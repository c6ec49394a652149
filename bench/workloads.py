"""Workload definitions shared by gen.py, chain.py and run.py.

Each workload fixes the shape of the synthetic inputs and the CLI flags of
the five pipeline stages.  The workload seed (a command-line argument of
the benchmark) changes only the generated inputs; the stages themselves
always run with the fixed ``STAGE_SEED``, so the program sees nothing but
its input files.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Seed passed to `curate-ais` and `fit`; fixed so that only the inputs vary.
STAGE_SEED = 11


@dataclass(frozen=True)
class Workload:
    name: str
    # Deployment: hydrophones x recordings of `recording_s` seconds, with
    # `gap_s` of silence between consecutive recordings.
    hydrophones: int
    recordings: int
    recording_s: int
    gap_s: int
    # AIS traffic: exactly `ais_pulses` data rows, per-ship counts from a power law.
    ais_pulses: int
    # Embeddings: `embedded` windows of the deployment in `shards` shards.
    embedded: int
    shards: int
    dim: int
    levels: str
    align_workers: int = 1
    fit_flags: tuple[str, ...] = ()
    sample_flags: tuple[str, ...] = ()
    checkpoint: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="embed-heavy",
            hydrophones=8,
            recordings=4,
            recording_s=4000,
            gap_s=900,
            ais_pulses=10_000,
            embedded=4_800,
            shards=8,
            dim=16,
            levels="256,32,8",
            sample_flags=("--target-n", "2000", "--workers", "2"),
        ),
        Workload(
            name="ais-dense",
            hydrophones=10,
            recordings=12,
            recording_s=6000,
            gap_s=1200,
            ais_pulses=50_000,
            embedded=1_200,
            shards=4,
            dim=16,
            levels="32,8",
            align_workers=2,
            sample_flags=("--target-n", "600"),
        ),
        Workload(
            name="select-wide",
            hydrophones=12,
            recordings=4,
            recording_s=6000,
            gap_s=1200,
            ais_pulses=12_000,
            embedded=28_800,
            shards=32,
            dim=16,
            levels="64,8",
            fit_flags=("--passes", "1", "--resample-rounds", "1"),
            sample_flags=("--target-n", "14000"),
            checkpoint=True,
        ),
    )
}


def use_checkout_src() -> None:
    """Make ``pamcurate`` importable from this checkout's ``src/``, or exit 2.

    The benchmark measures the program built from the checkout it sits in,
    never an installed copy.
    """
    if not (SRC / "pamcurate" / "cli.py").is_file():
        print(f"error: no pamcurate sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import pamcurate

    if Path(pamcurate.__file__).resolve().parent != SRC / "pamcurate":
        print(f"error: pamcurate imported from {pamcurate.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
