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
from functools import reduce
from pathlib import Path

import numpy as np

from . import ais_curate, assemble_ssl, geo_align, hkmeans, hsample
from .core_model import load_deployment, read_manifest, read_shard, write_atomic, write_manifest
from .errors import PamCurateError, ShardDimError, ValidationError

logger = logging.getLogger(__name__)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_run_record(args, inputs, outputs) -> Path:
    """Write ``<stage>_run.json`` into ``--out``: the stage's flags and
    seed, and the SHA-256 of each of its input and output files."""
    stage, flags = args.command.replace("-", "_"), _flags(args)
    record = {
        "stage": stage,
        "flags": flags,
        "seed": flags.get("seed"),
        "digest_algorithm": "sha256",
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
    }
    path = Path(args.out) / f"{stage}_run.json"
    _write_json(path, record)
    return path


def _out_dir(args) -> Path:
    """Make ``--out``; each stage calls this only once its inputs are read."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _check_at_least(value: int, least: int, flag: str) -> None:
    if value < least:
        raise ValidationError(f"{flag} must be at least {least}, got {value}")


def cmd_align(args) -> int:
    _check_at_least(args.workers, 1, "--workers")
    geo_align.check_side_km(args.side_km)
    config = load_deployment(args.config)
    pulses, rejected_rows = geo_align.read_ais_csv(args.ais)
    out = _out_dir(args)
    result = geo_align.align(pulses, config, side_km=args.side_km)

    sidecar = out / "aligned.csv"
    geo_align.write_sidecar(result.windows, sidecar)
    stats_path = out / "align_stats.json"
    _write_json(
        stats_path,
        {
            "pulses_read": len(pulses),
            "rejected_rows": rejected_rows,
            "aligned_pulses": len(result.pulses),
            "unaligned_pulses": result.unaligned,
            "aligned_windows": len(result.windows),
            "side_km": args.side_km,
        },
    )
    _write_run_record(args, [Path(args.config), Path(args.ais)], [sidecar, stats_path])
    logger.info(
        "align: %d pulses -> %d aligned windows (%d rows rejected)", len(pulses), len(result.windows), rejected_rows
    )
    return 0


def _manual_threshold(args) -> ais_curate.Threshold | None:
    return None if args.threshold is None else ais_curate.Threshold(t=args.threshold, origin="manual")


def cmd_curate_ais(args) -> int:
    manual = _manual_threshold(args)
    _check_at_least(args.seed, 0, "--seed")
    config = load_deployment(args.config)
    index = config.window_index()
    aligned = geo_align.aligned_from_sidecar(geo_align.read_sidecar(args.aligned), index)
    counts = ais_curate.histogram(aligned)
    threshold = manual if manual is not None else ais_curate.detect_knee(counts)
    manifest = ais_curate.curate(aligned, threshold, args.seed, index)
    out = _out_dir(args)

    manifest_path = out / "manifest_ais.txt"
    write_manifest(manifest, manifest_path)
    stats_path = out / "curate_stats.json"
    _write_json(
        stats_path,
        {
            "threshold": threshold.t,
            "threshold_origin": threshold.origin,
            "ships": len(counts),
            "aligned_windows": len(aligned),
            "retained_windows": len(manifest),
        },
    )
    _write_run_record(args, [Path(args.config), Path(args.aligned)], [manifest_path, stats_path])
    logger.info("curate-ais: t=%d (%s), kept %d of %d windows", threshold.t, threshold.origin, len(manifest), len(aligned))
    return 0


def _parse_levels(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValidationError(f"bad --levels value {text!r}; expected comma-separated integers") from None


def cmd_fit(args) -> int:
    config = hkmeans.FitConfig(
        level_ks=_parse_levels(args.levels),
        batch_size=args.batch_size,
        passes=args.passes,
        resample_rounds=args.resample_rounds,
        seed=args.seed,
    )
    shard_paths = [Path(p) for p in args.shards]
    hierarchy = hkmeans.build_hierarchy(lambda: (shard.vectors for shard, _ in _shards(shard_paths)), config)
    out = _out_dir(args)
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
    _write_run_record(args, shard_paths, [model_path, stats_path])
    logger.info("fit: model with levels %s saved", [cs.k for cs in hierarchy.levels])
    return 0


def _shards(paths, dim: int | None = None):
    """Read each shard file once and yield ``(shard, data)``: the shard and
    the bytes it was parsed from.  A shard whose dim is not ``dim``, by
    default the first shard's, is a ShardDimError at its dim field, offset 8."""
    of = "of the model" if dim else "of the first shard"
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        shard = read_shard(path, data)
        if shard.dim != (dim := dim or shard.dim):
            raise ShardDimError(f"shard dim {shard.dim} != {dim} {of}", path=str(path), offset=8)
        yield shard, data


def _select_partition(shard_paths, hierarchy, quotas, checkpoint: Path | None = None) -> hsample.SelectionState:
    """Stream the shards into one selection state, one shard at a time.

    With a checkpoint, the file is a journal that gets one record appended
    after every shard: the SHA-256 of the bytes that were folded, and the
    rows the fold kept.  Its directory is made only before the first
    append.  A resumed run must have the same quotas and list the shards
    done first, in the same order, and continues with the next one; a
    resume refused for that leaves the file as it was.
    """
    state = hsample.SelectionState.empty(quotas.leaf_quotas)
    if checkpoint is not None:
        if checkpoint.exists():
            state = hsample.load_checkpoint(checkpoint)
        done = len(state.shard_digests)
        digests = [bytes.fromhex(_sha256(p)) for p in shard_paths[:done]]
        if state.shard_digests != digests or state.quotas.tolist() != quotas.leaf_quotas.tolist():
            raise ValidationError(f"checkpoint {checkpoint} was written for other shards, --shards order or quotas")
        logger.info("checkpoint %s: %d of %d shards already done", checkpoint, done, len(shard_paths))
    end = state.journal_end
    for shard, data in _shards(shard_paths[len(state.shard_digests) :], hierarchy.dim):
        records = []
        state = hsample.stream_select([shard], hierarchy, quotas, state=state, records=records)
        if checkpoint is not None:
            records[0].shard_digests.append(hashlib.sha256(data).digest())
            checkpoint.parent.mkdir(parents=True, exist_ok=True)
            end = hsample.save_checkpoint(records[0], checkpoint, end)
    return state


def cmd_sample(args) -> int:
    _check_at_least(args.workers, 1, "--workers")
    _check_at_least(args.target_n, 1, "--target-n")
    config = load_deployment(args.config)
    hierarchy = hkmeans.load_model(args.model)
    shard_paths = [Path(p) for p in args.shards]
    checkpoint = Path(args.checkpoint) if args.checkpoint else None

    # Every shard is read and checked here, before quotas, the checkpoint or --out.
    populations = hsample.count_populations((shard for shard, _ in _shards(shard_paths, hierarchy.dim)), hierarchy)
    quotas = hsample.allocate_quotas(hierarchy, populations, args.target_n)
    # Strided shard partitions, each streamed alone and merged; the result does
    # not depend on their count.  A checkpoint holds one stream's state.
    parts = 1 if checkpoint else min(args.workers, len(shard_paths))
    states = [_select_partition(shard_paths[i::parts], hierarchy, quotas, checkpoint) for i in range(parts)]
    state = reduce(hsample.merge, states)

    manifest = hsample.emit(state, hierarchy, config.window_index())
    if len(manifest) < quotas.total:
        # A leaf's population counts a window id once per record, its selection once.
        ids = np.concatenate([shard.window_ids for shard, _ in _shards(shard_paths)])
        ids, copies = np.unique(ids, return_counts=True)
        repeated = ids[copies > 1].tolist()
        raise ValidationError(
            f"selected {len(manifest)} windows, fewer than the quota total {quotas.total}: "
            f"{len(repeated)} window ids are in more than one shard, the first {repeated[:5]}"
        )
    out = _out_dir(args)
    manifest_path = out / "manifest_hkmeans.txt"
    write_manifest(manifest, manifest_path)
    stats_path = out / "sample_stats.json"
    _write_json(
        stats_path,
        {
            "target_n": args.target_n,
            "quota_total": quotas.total,
            # Leaves water-filling capped at their whole non-empty population.
            "capped_leaves": int(((quotas.leaf_quotas == populations) & (populations > 0)).sum()),
            "selected": len(manifest),
            "processed_records": state.processed,
            "evictions": state.processed - len(manifest),
        },
    )
    _write_run_record(args, [Path(args.config), Path(args.model), *shard_paths], [manifest_path, stats_path])
    logger.info("sample: selected %d of target %d", len(manifest), args.target_n)
    return 0


def cmd_assemble(args) -> int:
    manifest = assemble_ssl.assemble(read_manifest(args.ais_manifest), read_manifest(args.hkmeans_manifest))
    out = _out_dir(args)
    summary = assemble_ssl.summarize(manifest)

    manifest_path = out / "manifest.txt"
    write_manifest(manifest, manifest_path)
    summary_json = out / "summary.json"
    _write_json(summary_json, summary)
    summary_txt = out / "summary.txt"
    write_atomic(summary_txt, assemble_ssl.format_summary(summary))
    _write_run_record(
        args, [Path(args.ais_manifest), Path(args.hkmeans_manifest)], [manifest_path, summary_json, summary_txt]
    )
    logger.info("assemble: %d entries, %.2f h", summary["total_entries"], summary["total_hours"])
    return 0


def cmd_stats(args) -> int:
    if not args.config:
        raise ValidationError("stats needs --config, also to resolve the window ids of --aligned")
    manual = _manual_threshold(args)
    config = load_deployment(args.config)
    if args.aligned:
        aligned = geo_align.aligned_from_sidecar(geo_align.read_sidecar(args.aligned), config.window_index())
    out = _out_dir(args)
    inputs = []
    outputs = []
    payload: dict = {}
    if args.aligned:
        counts = ais_curate.histogram(aligned)
        curve = ais_curate.occurrence_curve(counts)
        curve_path = out / "occurrence_curve.csv"
        write_atomic(curve_path, "".join(f"{rank},{count}\n" for rank, count in enumerate(curve.tolist())))
        outputs.append(curve_path)
        inputs.append(Path(args.aligned))
        payload.update({"ships": len(counts), "aligned_windows": len(aligned)})
        if manual is not None:
            payload.update({"threshold": manual.t, "threshold_origin": manual.origin})
        else:
            try:
                knee = ais_curate.detect_knee(counts)
                payload.update({"threshold": knee.t, "threshold_origin": knee.origin})
            except ValidationError as exc:
                payload.update({"threshold": None, "threshold_error": str(exc)})
    hydro_path = out / "hydrophones.csv"
    write_atomic(hydro_path, "".join(f"{h.id},{h.location.lat},{h.location.lon}\n" for h in config.hydrophones))
    outputs.append(hydro_path)
    inputs.append(Path(args.config))
    stats_path = out / "stats.json"
    _write_json(stats_path, payload)
    outputs.append(stats_path)
    _write_run_record(args, dict.fromkeys(inputs), outputs)
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
    p.add_argument("--workers", type=int, default=1, help="no effect: the stage runs as one stream (must be at least 1)")
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
    p.add_argument("--workers", type=int, default=1, help="shard partitions, selected in turn and merged")
    p.add_argument("--checkpoint", default=None, help="checkpoint file for resumable runs, streamed as one partition")
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
    except (PamCurateError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    sys.exit(main())


if __name__ == "__main__":
    entry()
