"""Run the five-stage CLI chain once on generated inputs and check its outputs.

Usage: python3 bench/chain.py --workload NAME --inputs DIR --out DIR [--trace]

Calls ``pamcurate.cli.main`` for ``align``, ``curate-ais``, ``fit``,
``sample`` and ``assemble`` in this process and prints one JSON line: the
exit code and time of each stage, the pipeline wall time and its value at
the reference machine speed (see ``calibrate.py``), the peak RSS, the
SHA-256 of each digested output and the invariant checks.  With
``--trace`` the calls into each module are wrapped by the span recorder in
``spans.py``, the spans are written to ``DIR/spans.json`` when the chain
ends, and the per-layer metrics are added to the JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import traceback
from pathlib import Path

import spans
from calibrate import at_reference_speed, kernel_seconds
from gen import shard_paths
from workloads import STAGE_SEED, WORKLOADS, Workload, use_checkout_src

DIGESTED = ("aligned.csv", "manifest_ais.txt", "model.bin", "manifest_hkmeans.txt", "manifest.txt")
STAGES = ("align", "curate-ais", "fit", "sample", "assemble")

def stage_argvs(w: Workload, inputs: Path, out: Path) -> list[list[str]]:
    config, shards = str(inputs / "deploy.json"), [str(p) for p in shard_paths(inputs)]
    sample = ["sample", "--config", config, "--model", str(out / "model.bin"), "--shards", *shards, *w.sample_flags]
    if w.checkpoint:
        sample += ["--checkpoint", str(out / "select.ckpt")]
    argvs = [
        ["align", "--config", config, "--ais", str(inputs / "ais.csv"), "--side-km", "4"]
        + ["--workers", str(w.align_workers)],
        ["curate-ais", "--config", config, "--aligned", str(out / "aligned.csv"), "--seed", str(STAGE_SEED)],
        ["fit", "--shards", *shards, "--levels", w.levels, "--seed", str(STAGE_SEED), *w.fit_flags],
        sample,
        ["assemble", "--ais-manifest", str(out / "manifest_ais.txt")]
        + ["--hkmeans-manifest", str(out / "manifest_hkmeans.txt")],
    ]
    return [argv + ["--out", str(out)] for argv in argvs]


def _window_ids(path: Path, sep: str) -> list[int]:
    """First field of every line: ``window_id=N ...`` or ``N,mmsi``."""
    with open(path, encoding="utf-8") as fh:
        return [int(line.split(sep, 1)[0].removeprefix("window_id=")) for line in fh if line.strip()]


def invariants(out: Path) -> dict[str, bool]:
    """Output checks that hold for every input, independent of the digests."""
    checks = {"hkmeans_count_is_quota_total": False, "ais_windows_aligned": False, "manifest_is_union": False}
    try:
        stats = json.loads((out / "sample_stats.json").read_text(encoding="utf-8"))
        ais = _window_ids(out / "manifest_ais.txt", " ")
        hk = _window_ids(out / "manifest_hkmeans.txt", " ")
        aligned = set(_window_ids(out / "aligned.csv", ","))
        final = _window_ids(out / "manifest.txt", " ")
    except (OSError, ValueError):
        return checks
    checks["hkmeans_count_is_quota_total"] = len(hk) == stats["quota_total"]
    checks["ais_windows_aligned"] = set(ais) <= aligned
    checks["manifest_is_union"] = set(final) == set(ais) | set(hk) and len(final) == len(set(final))
    return checks


def run(w: Workload, inputs: Path, out: Path, recorder) -> dict:
    """Run the chain, timing each stage and the calibration kernel between stages."""
    from pamcurate import cli

    out.mkdir(parents=True, exist_ok=True)
    codes: dict[str, int] = {}
    stage_s: dict[str, float] = {}
    kernel_s = [kernel_seconds()]
    for stage, argv in zip(STAGES, stage_argvs(w, inputs, out)):
        with recorder.span(f"cli.{stage.replace('-', '_')}") as span:
            try:
                codes[stage] = cli.main(argv)
            except Exception:  # a crash is a failed stage, reported like a non-zero exit
                traceback.print_exc()
                codes[stage] = 1
        stage_s[stage] = span.seconds
        kernel_s.append(kernel_seconds())
        if codes[stage] != 0:
            break
    pipeline_ref_s = sum(map(at_reference_speed, stage_s.values(), kernel_s, kernel_s[1:]))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digests = {}
    for name in DIGESTED:
        path = out / name
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    return {
        "stages": codes,
        "stage_s": stage_s,
        "pipeline_s": sum(stage_s.values()),
        "pipeline_ref_s": pipeline_ref_s,
        "kernel_s": kernel_s,
        "peak_rss_mb": peak_rss_mb,
        "digests": digests,
        "invariants": invariants(out),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    use_checkout_src()
    w, inputs, out = WORKLOADS[args.workload], Path(args.inputs), Path(args.out)
    recorder = spans.SpanRecorder()
    if args.trace:
        spans.install(recorder)
    result = run(w, inputs, out, recorder)
    if args.trace:
        recorder.dump(out / "spans.json")
        result["layers"] = spans.layer_metrics(recorder.spans, out, len(shard_paths(inputs)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
