"""pamcurate benchmark: seeded inputs, the real five-stage CLI chain, checked outputs.

Usage:
    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

For each workload it generates the inputs in a child process (several
times, for ``setup_s``), then runs the chain in a fresh child process per
repetition until ``--seconds`` have passed.  Every repetition's stage exit
codes, output digests and invariants are checked.  ``--trace 0`` reports the
end-to-end metrics, each a median over the repetitions (or, for
``setup_s``, over the input writes; ``ok_frac`` is the share of repetitions
in which no operation failed); ``--trace 1`` alternates untraced and
traced repetitions and reports the per-layer metrics (medians over the
traced repetitions) plus the tracing overhead.
A metric table goes to stdout and the last stdout line is one JSON object
(for ``all``, one object per workload keyed by name).  Work files live in
``.bench_work/`` of the checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from spans import LAYER_METRICS, OVERHEAD_METRIC, fold_runs
from workloads import BENCH, ROOT, WORKLOADS, use_checkout_src

SETUP_REPEATS = 15
MIN_REPS = {0: 3, 1: 4}
CHILD_TIMEOUT_S = 150
WORK = ROOT / ".bench_work"
EXPECTED_DIGESTS = BENCH / "expected_digests.json"
STAGE_OPS, DIGEST_OPS, INVARIANT_OPS = 5, 5, 3
OPS_PER_REP = STAGE_OPS + DIGEST_OPS + INVARIANT_OPS
END_TO_END = {
    "pipeline_ref_s": "s",
    "records_per_ref_s": "records/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "ok_frac": "ratio",
}


class ChildError(RuntimeError):
    pass


def child(script: str, *args) -> dict:
    """Run a benchmark script in a fresh interpreter; return its last stdout line as JSON."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(BENCH / script), *map(str, args)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildError(f"{script} timed out after {CHILD_TIMEOUT_S} s") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{script} exited with {proc.returncode}")
    return json.loads(lines[-1])


def load_expected(workload: str, seed: int) -> dict | None:
    table = json.loads(EXPECTED_DIGESTS.read_text(encoding="utf-8")) if EXPECTED_DIGESTS.is_file() else {}
    return table.get(workload, {}).get(str(seed))


def failures(rep: dict, reference: dict) -> int:
    """Failed operations of one repetition: stages, digests, invariants."""
    failed = sum(1 for code in rep["stages"].values() if code != 0) + STAGE_OPS - len(rep["stages"])
    failed += sum(1 for name, digest in rep["digests"].items() if digest is None or digest != reference.get(name))
    failed += sum(1 for ok in rep["invariants"].values() if not ok)
    return failed


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = work / "inputs"
        setup = child("gen.py", "--workload", name, "--seed", seed, "--out", inputs, "--repeats", SETUP_REPEATS)
        records = setup["ais_rows"] + setup["records"]
        for file, info in setup["files"].items():
            print(f"# input {file} sha256={info['sha256']} bytes={info['bytes']}", file=sys.stderr)

        reps: list[dict | None] = []
        start = time.monotonic()
        while len(reps) < MIN_REPS[trace] or time.monotonic() - start < seconds:
            traced_rep = trace and len(reps) % 2 == 1
            out = work / f"run{len(reps)}"
            flags = ["--trace"] if traced_rep else []
            try:
                rep = child("chain.py", "--workload", name, "--inputs", inputs, "--out", out, *flags)
                rep["traced"] = traced_rep
            except ChildError as exc:
                print(f"# {name}: repetition {len(reps)} failed: {exc}", file=sys.stderr)
                rep = None
            reps.append(rep)
            shutil.rmtree(out, ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    done = [r for r in reps if r is not None]
    reference = load_expected(name, seed) or (done[0]["digests"] if done else {})
    attempted = OPS_PER_REP * len(reps)
    rep_failed = [failures(r, reference) for r in done]
    failed = OPS_PER_REP * (len(reps) - len(done)) + sum(rep_failed)
    clean_reps = rep_failed.count(0)

    plain = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    for kind, group in (("untraced", plain), ("traced", traced)):
        for key in ("pipeline_s", "pipeline_ref_s") if group else ():
            times = " ".join(f"{r[key]:.4f}" for r in group)
            print(f"# {name}: {kind} {key} of {len(group)} repetitions: {times}", file=sys.stderr)
    if trace:
        if not traced or not plain:
            raise ChildError(f"{name}: no complete traced and untraced repetitions")
        metrics, unstable = fold_runs([r["layers"] for r in traced])
        attempted += 1
        if unstable:
            failed += 1
            print(f"# {name}: counts differ between traced runs: {', '.join(unstable)}", file=sys.stderr)
        overhead = statistics.median(r["pipeline_ref_s"] for r in traced) / statistics.median(
            r["pipeline_ref_s"] for r in plain
        )
        metrics[OVERHEAD_METRIC[0]] = overhead - 1.0
        units = {metric: unit for metric, (unit, _) in LAYER_METRICS.items()} | dict([OVERHEAD_METRIC])
    else:
        if not plain:
            raise ChildError(f"{name}: no repetition completed")
        metrics = {
            "pipeline_ref_s": statistics.median(r["pipeline_ref_s"] for r in plain),
            "records_per_ref_s": statistics.median(records / r["pipeline_ref_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "setup_s": statistics.median(setup["setup_ref_s"]),
            "ok_frac": clean_reps / len(reps),
        }
        units = END_TO_END

    print(
        f"{name} seed={seed} trace={int(trace)} repetitions={len(reps)}: {setup['ais_rows']} AIS rows, "
        f"{setup['windows']} deployment windows, {setup['records']} embedding records"
    )
    for metric, value in metrics.items():
        print(f"  {metric:<36} {value:>16.6g} {units[metric]}")
    print(f"  {'failed_frac':<36} {failed / attempted:>16.6g} ratio ({failed} of {attempted} operations)")
    if not trace:
        wall = statistics.median(r["pipeline_s"] for r in plain)
        print(f"  {'pipeline_s (wall)':<36} {wall:>16.6g} s")
        print(f"  {'records_per_s (wall)':<36} {records / wall:>16.6g} records/s")
        print(f"  {'setup_s (wall)':<36} {statistics.median(setup['setup_s']):>16.6g} s")
        print(f"  medians of {len(plain)} repetitions")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": units[metric]} for metric, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout_src()
    # On SIGTERM, unwind: subprocess.run kills and reaps the running child, and
    # the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
