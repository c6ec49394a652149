"""Operator-facing command line: one subcommand per pipeline stage.

Stages communicate only through files.  Every run writes a run-record
(flags, seed, SHA-256 digests of inputs and outputs) next to its outputs,
and every stage is deterministic given its record, so reruns and replays
are bit-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import reduce
from pathlib import Path

from . import ais_curate, assemble_ssl, geo_align, hkmeans, hsample
from .core_model import (
    CurationManifest,
    load_deployment,
    read_manifest,
    read_shard,
    write_manifest,
)
from .errors import PamCurateError, ValidationError

logger = logging.getLogger(__name__)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_run_record(out_dir: Path, stage: str, flags: dict, seed, inputs, outputs) -> Path:
    record = {
        "stage": stage,
        "flags": {k: v for k, v in sorted(flags.items())},
        "seed": seed,
        "digest_algorithm": "sha256",
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
    }
    path = out_dir / f"{stage}_run.json"
    _write_json(path, record)
    return path


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_align(args) -> int:
    out = _out_dir(args)
    config = load_deployment(args.config)
    pulses, rejected_rows = geo_align.read_ais_csv(args.ais)
    # Partition + union is how parallel workers combine; the result is the
    # same for any partitioning, so the worker count never changes outputs.
    workers = max(1, args.workers)
    chunks = [pulses[i::workers] for i in range(workers)] if workers > 1 else [pulses]
    results = [geo_align.align(chunk, config, side_km=args.side_km) for chunk in chunks]
    windows = reduce(geo_align.AlignedWindowSet.union, (r.windows for r in results))
    aligned_pulses = sum(len(r.pulses) for r in results)
    unaligned = sum(r.rejects.get("unaligned", 0) for r in results)

    sidecar = out / "aligned.csv"
    geo_align.write_sidecar(windows, sidecar)
    stats_path = out / "align_stats.json"
    _write_json(
        stats_path,
        {
            "pulses_read": len(pulses),
            "rejected_rows": rejected_rows,
            "aligned_pulses": aligned_pulses,
            "unaligned_pulses": unaligned,
            "aligned_windows": len(windows),
            "side_km": args.side_km,
        },
    )
    _write_run_record(out, "align", _flags(args), None, [Path(args.config), Path(args.ais)], [sidecar, stats_path])
    logger.info("align: %d pulses -> %d aligned windows (%d rows rejected)", len(pulses), len(windows), rejected_rows)
    return 0


def cmd_curate_ais(args) -> int:
    out = _out_dir(args)
    config = load_deployment(args.config)
    pairs = geo_align.read_sidecar(args.aligned)
    aligned = geo_align.aligned_from_sidecar(pairs, config)
    hist = ais_curate.histogram(aligned)
    if args.threshold is not None:
        threshold = ais_curate.Threshold(t=args.threshold, origin="manual")
    else:
        threshold = ais_curate.detect_knee(hist)
    entries = ais_curate.curate(aligned, threshold, seed=args.seed)

    manifest_path = out / "manifest_ais.txt"
    write_manifest(CurationManifest(entries=tuple(entries)), manifest_path)
    stats_path = out / "curate_stats.json"
    _write_json(
        stats_path,
        {
            "threshold": threshold.t,
            "threshold_origin": threshold.origin,
            "ships": hist.total_ships,
            "aligned_windows": hist.total_windows,
            "retained_windows": len(entries),
        },
    )
    _write_run_record(
        out, "curate_ais", _flags(args), args.seed, [Path(args.config), Path(args.aligned)], [manifest_path, stats_path]
    )
    logger.info("curate-ais: t=%d (%s), kept %d of %d windows", threshold.t, threshold.origin, len(entries), len(aligned))
    return 0


def _parse_levels(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValidationError(f"bad --levels value {text!r}; expected comma-separated integers") from None


def cmd_fit(args) -> int:
    out = _out_dir(args)
    shard_paths = [Path(p) for p in args.shards]
    config = hkmeans.FitConfig(
        level_ks=_parse_levels(args.levels),
        batch_size=args.batch_size,
        passes=args.passes,
        resample_rounds=args.resample_rounds,
        seed=args.seed,
    )

    def source():
        for path in shard_paths:
            yield read_shard(path).vectors

    hierarchy = hkmeans.build_hierarchy(source, config)
    model_path = out / "model.bin"
    hkmeans.save_model(hierarchy, model_path)
    stats_path = out / "fit_stats.json"
    _write_json(
        stats_path,
        {
            "levels": [cs.k for cs in hierarchy.levels],
            "dim": hierarchy.dim,
            "absorbed": int(hierarchy.levels[0].counts.sum()),
        },
    )
    _write_run_record(out, "fit", _flags(args), args.seed, shard_paths, [model_path, stats_path])
    logger.info("fit: model with levels %s saved", [cs.k for cs in hierarchy.levels])
    return 0


def _select_partition(shard_paths, hierarchy, quotas) -> hsample.SelectionState:
    return hsample.stream_select((read_shard(p) for p in shard_paths), hierarchy, quotas)


def cmd_sample(args) -> int:
    out = _out_dir(args)
    config = load_deployment(args.config)
    hierarchy = hkmeans.load_model(args.model)
    shard_paths = [Path(p) for p in args.shards]

    populations, rejected = hsample.count_populations((read_shard(p) for p in shard_paths), hierarchy)
    quotas = hsample.allocate_quotas(hierarchy, populations, args.target_n)

    workers = max(1, args.workers)
    if args.checkpoint and workers > 1:
        raise ValidationError("--checkpoint requires --workers 1")
    if args.checkpoint:
        state = _select_with_checkpoint(shard_paths, hierarchy, quotas, Path(args.checkpoint))
    elif workers == 1:
        state = _select_partition(shard_paths, hierarchy, quotas)
    else:
        partitions = [shard_paths[i::workers] for i in range(workers)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            states = list(pool.map(lambda part: _select_partition(part, hierarchy, quotas), partitions))
        state = reduce(hsample.merge, states)

    entries = hsample.emit(state, hierarchy, config.window_index())
    manifest_path = out / "manifest_hkmeans.txt"
    write_manifest(CurationManifest(entries=tuple(entries)), manifest_path)
    stats_path = out / "sample_stats.json"
    _write_json(
        stats_path,
        {
            "target_n": args.target_n,
            "quota_total": quotas.total,
            "selected": len(entries),
            "processed_records": state.processed,
            "rejected_shards": state.rejected_shards + rejected,
            "evictions": state.evictions,
        },
    )
    _write_run_record(
        out,
        "sample",
        _flags(args),
        None,
        [Path(args.config), Path(args.model), *shard_paths],
        [manifest_path, stats_path],
    )
    logger.info("sample: selected %d of target %d", len(entries), args.target_n)
    return 0


def _select_with_checkpoint(shard_paths, hierarchy, quotas, checkpoint: Path) -> hsample.SelectionState:
    """Resume-capable selection: state plus a list of finished shards."""
    done_path = checkpoint.with_suffix(checkpoint.suffix + ".done")
    state = None
    done: set[str] = set()
    if checkpoint.exists():
        state = hsample.load_checkpoint(checkpoint)
        if done_path.exists():
            done = set(done_path.read_text(encoding="utf-8").splitlines())
        logger.info("resuming from %s (%d shards done)", checkpoint, len(done))
    for path in shard_paths:
        if str(path) in done:
            continue
        state = hsample.stream_select([read_shard(path)], hierarchy, quotas, state=state)
        hsample.save_checkpoint(state, checkpoint)
        done.add(str(path))
        done_path.write_text("\n".join(sorted(done)) + "\n", encoding="utf-8")
    if state is None:
        state = hsample.SelectionState.empty(quotas.leaf_quotas)
    return state


def cmd_assemble(args) -> int:
    out = _out_dir(args)
    ais_manifest = read_manifest(args.ais_manifest)
    hk_manifest = read_manifest(args.hkmeans_manifest)
    manifest = assemble_ssl.assemble(ais_manifest.entries, hk_manifest.entries)
    summary = assemble_ssl.summarize(manifest)

    manifest_path = out / "manifest.txt"
    write_manifest(manifest, manifest_path)
    summary_json = out / "summary.json"
    _write_json(summary_json, summary)
    summary_txt = out / "summary.txt"
    summary_txt.write_text(assemble_ssl.format_summary(summary), encoding="utf-8")
    _write_run_record(
        out,
        "assemble",
        _flags(args),
        None,
        [Path(args.ais_manifest), Path(args.hkmeans_manifest)],
        [manifest_path, summary_json, summary_txt],
    )
    logger.info("assemble: %d entries, %.2f h", summary["total_entries"], summary["total_hours"])
    return 0


def cmd_stats(args) -> int:
    out = _out_dir(args)
    inputs = []
    outputs = []
    payload: dict = {}
    if args.aligned:
        if not args.config:
            raise ValidationError("--aligned requires --config to resolve window ids")
        config = load_deployment(args.config)
        pairs = geo_align.read_sidecar(args.aligned)
        aligned = geo_align.aligned_from_sidecar(pairs, config)
        hist = ais_curate.histogram(aligned)
        curve = ais_curate.occurrence_curve(hist)
        curve_path = out / "occurrence_curve.csv"
        with open(curve_path, "w", encoding="utf-8", newline="\n") as fh:
            for rank, count in curve:
                fh.write(f"{rank},{count}\n")
        outputs.append(curve_path)
        inputs.append(Path(args.aligned))
        payload.update({"ships": hist.total_ships, "aligned_windows": hist.total_windows})
        if args.threshold is not None:
            payload.update({"threshold": args.threshold, "threshold_origin": "manual"})
        else:
            try:
                knee = ais_curate.detect_knee(hist)
                payload.update({"threshold": knee.t, "threshold_origin": knee.origin})
            except ValidationError as exc:
                payload.update({"threshold": None, "threshold_error": str(exc)})
    if args.config:
        config = load_deployment(args.config)
        hydro_path = out / "hydrophones.csv"
        with open(hydro_path, "w", encoding="utf-8", newline="\n") as fh:
            for h in config.hydrophones:
                fh.write(f"{h.id},{h.location.lat},{h.location.lon}\n")
        outputs.append(hydro_path)
        inputs.append(Path(args.config))
    if not inputs:
        raise ValidationError("stats needs --aligned and/or --config")
    stats_path = out / "stats.json"
    _write_json(stats_path, payload)
    outputs.append(stats_path)
    _write_run_record(out, "stats", _flags(args), None, dict.fromkeys(inputs), outputs)
    return 0


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------


def _flags(args) -> dict:
    skip = {"func", "command"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pamcurate", description="PAM window curation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("align", help="match AIS pulses to recording windows")
    p.add_argument("--config", required=True, help="deployment config JSON")
    p.add_argument("--ais", required=True, help="AIS pulse CSV")
    p.add_argument("--side-km", type=float, default=4.0, help="fence side length in km")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("curate-ais", help="occurrence-threshold curation of aligned windows")
    p.add_argument("--config", required=True)
    p.add_argument("--aligned", required=True, help="sidecar written by align")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threshold", type=int, default=None, help="manual threshold (skips knee detection)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_curate_ais)

    default_levels = ",".join(str(k) for k in hkmeans.PRODUCTION_LEVEL_KS)
    p = sub.add_parser("fit", help="fit the hierarchical clustering model")
    p.add_argument("--shards", nargs="+", required=True, help="embedding shard files")
    p.add_argument("--levels", default=default_levels, help=f"cluster counts finest-first (default {default_levels})")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--batch-size", type=int, default=4096)
    p.add_argument("--passes", type=int, default=2)
    p.add_argument("--resample-rounds", type=int, default=3)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sample", help="select a balanced subset from the hierarchy")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--shards", nargs="+", required=True)
    p.add_argument("--target-n", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--checkpoint", default=None, help="checkpoint file for resumable runs (workers=1)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("assemble", help="merge the two curated manifests")
    p.add_argument("--ais-manifest", required=True)
    p.add_argument("--hkmeans-manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_assemble)

    p = sub.add_parser("stats", help="emit occurrence curve and hydrophone coordinates")
    p.add_argument("--config", default=None)
    p.add_argument("--aligned", default=None)
    p.add_argument("--threshold", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PamCurateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    sys.exit(main())
