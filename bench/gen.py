"""Seeded input generator: deployment JSON, AIS CSV and embedding shards.

Usage: python3 bench/gen.py --workload NAME --seed N --out DIR [--repeats K]

Writes the workload's inputs into DIR ``K`` times over (each write replaces
the last and must produce identical bytes), then prints one JSON line with
the time of each write, as measured and at the reference machine speed (see
``calibrate.py``), and the digest and size of every input file.  Only
numpy and the public writers ``write_shard`` and ``save_deployment`` are
used, so the generator does not depend on the package's test helpers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import zlib
from pathlib import Path

import numpy as np

from calibrate import at_reference_speed, kernel_seconds
from workloads import WORKLOADS, Workload, use_checkout_src

T0 = 1_685_577_600  # 2023-06-01T00:00:00Z
WINDOW_S = 10
SIDE_M = 4000.0  # fence side used by `align --side-km 4`
METERS_PER_DEG_LAT = 111_195.0
MMSI_BASE = 200_000_000
PULSE_ALPHA = 1.6  # per-ship pulse counts ~ c^-alpha
MAX_PULSES = 400
MALFORMED_FRAC = 0.01
OFF_FENCE_FRAC = 0.03
MIXTURE_K = 48


def _rng(workload: Workload, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed & (2**64 - 1), zlib.crc32(workload.name.encode())])


def _deployment(w: Workload, rng: np.random.Generator):
    from pamcurate.core_model import DeploymentConfig, GeoPoint, Hydrophone, Recording

    hydrophones = []
    for h in range(w.hydrophones):
        # A grid 0.5 degrees apart: fences (0.036 degrees wide) never overlap.
        lat = 20.0 + 0.5 * (h // 8) + float(rng.uniform(-0.05, 0.05))
        lon = -150.0 + 0.5 * (h % 8) + float(rng.uniform(-0.05, 0.05))
        start = T0 + int(rng.integers(0, 600))
        recordings = []
        for r in range(w.recordings):
            # A ragged duration leaves an incomplete last window.
            duration = w.recording_s + int(rng.integers(0, WINDOW_S))
            recordings.append(Recording(id=f"R{r:02d}", start=start, duration_s=duration, native_sample_rate_hz=64_000))
            start += duration + w.gap_s
        hydrophones.append(Hydrophone(id=f"H{h:02d}", location=GeoPoint(lat, lon), recordings=tuple(recordings)))
    return DeploymentConfig(hydrophones=tuple(hydrophones))


def _ship_pulse_counts(w: Workload, rng: np.random.Generator) -> np.ndarray:
    """Power-law pulse counts per ship, cut to exactly ``w.ais_pulses`` in total."""
    values = np.arange(1, MAX_PULSES + 1)
    pmf = values**-PULSE_ALPHA
    pmf /= pmf.sum()
    counts = rng.choice(values, size=2 * w.ais_pulses // int((values * pmf).sum()) + MAX_PULSES, p=pmf)
    total = np.cumsum(counts)
    if total[-1] < w.ais_pulses:
        raise RuntimeError("power-law draw too short; raise the number of ships drawn")
    ships = int(np.searchsorted(total, w.ais_pulses)) + 1
    counts = counts[:ships]
    counts[-1] -= total[ships - 1] - w.ais_pulses
    return counts


def _write_ais(w: Workload, config, rng: np.random.Generator, path: Path) -> int:
    """Ship tracks around hydrophones; returns the number of data rows.

    Each ship loiters near one hydrophone and reports at exponential
    intervals, so its pulses cross recordings, gaps between recordings and
    the fence edge.  A few percent of pulses are far from every fence and
    about one percent of rows are malformed.
    """
    counts = _ship_pulse_counts(w, rng)
    n = int(counts.sum())
    ship = np.repeat(np.arange(len(counts)), counts)
    home = rng.integers(0, len(config.hydrophones), size=len(counts))
    span_end = max(rec.end for h in config.hydrophones for rec in h.recordings)
    track_start = rng.integers(T0, span_end, size=len(counts))

    # Pulse times: per-ship cumulative exponential gaps from its track start.
    gaps = rng.exponential(40.0, size=n)
    first = np.r_[0, np.cumsum(counts)[:-1]]
    elapsed = np.cumsum(gaps)
    elapsed -= np.repeat(elapsed[first], counts)
    times = track_start[ship] + elapsed.astype(np.int64)

    lat0 = np.array([h.location.lat for h in config.hydrophones])[home][ship]
    lon0 = np.array([h.location.lon for h in config.hydrophones])[home][ship]
    centre = rng.normal(0.0, 0.6 * SIDE_M / 2, size=(len(counts), 2))[ship]
    offset = centre + rng.normal(0.0, 0.25 * SIDE_M / 2, size=(n, 2))
    off_fence = rng.random(n) < OFF_FENCE_FRAC
    offset[off_fence] += 20_000.0
    lat = lat0 + offset[:, 0] / METERS_PER_DEG_LAT
    lon = lon0 + offset[:, 1] / (METERS_PER_DEG_LAT * np.cos(np.radians(lat0)))

    order = np.argsort(times, kind="stable")
    mmsi = (MMSI_BASE + 7 * ship[order]).astype(str).astype(object)
    stamp = np.datetime_as_string(times[order].astype("datetime64[s]")).astype(object)
    lat_s = np.char.mod("%.6f", lat[order]).astype(object)
    lon_s = np.char.mod("%.6f", lon[order]).astype(object)
    vtype = rng.integers(30, 90, size=n).astype(str).astype(object)
    vtype[rng.random(n) < 0.2] = ""

    bad = np.flatnonzero(rng.random(n) < MALFORMED_FRAC)
    kinds = rng.integers(0, 5, size=len(bad))
    for row, kind in zip(bad, kinds):
        if kind == 0:
            mmsi[row] = "MMSI?"
        elif kind == 1:
            mmsi[row] = "0"
        elif kind == 2:
            stamp[row] = "2023-02-30T12:00:00"
        elif kind == 3:
            lat_s[row] = "95.000000"
        else:
            lon_s[row] = ""

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("MMSI,BaseDateTime,LAT,LON,VesselType\n")
        fh.writelines(f"{a},{b},{c},{d},{e}\n" for a, b, c, d, e in zip(mmsi, stamp, lat_s, lon_s, vtype))
    return n


def _write_shards(w: Workload, config, rng: np.random.Generator, shard_dir: Path) -> int:
    """Long-tailed Gaussian-mixture embeddings of a random subset of windows."""
    from pamcurate.core_model import EmbeddingShard, window_id_of, write_shard

    recs = [(h.id, rec.id) for h in config.hydrophones for rec in h.recordings]
    per_rec = np.array([rec.window_count for h in config.hydrophones for rec in h.recordings])
    bounds = np.cumsum(per_rec)
    chosen = rng.choice(int(bounds[-1]), size=w.embedded, replace=False)
    rec_idx = np.searchsorted(bounds, chosen, side="right")
    slot = chosen - (bounds[rec_idx] - per_rec[rec_idx])
    ids = np.array(
        [window_id_of(*recs[r], int(s) * WINDOW_S) for r, s in zip(rec_idx, slot)],
        dtype=np.uint64,
    )

    weights = np.arange(1, MIXTURE_K + 1, dtype=np.float64) ** -1.2
    weights /= weights.sum()
    means = rng.standard_normal((MIXTURE_K, w.dim))
    spread = rng.uniform(0.15, 0.6, size=MIXTURE_K)
    labels = rng.choice(MIXTURE_K, size=w.embedded, p=weights)
    vectors = (means[labels] + spread[labels, None] * rng.standard_normal((w.embedded, w.dim))).astype(np.float32)

    shard_dir.mkdir(parents=True, exist_ok=True)
    for i, part in enumerate(np.array_split(np.arange(w.embedded), w.shards)):
        write_shard(EmbeddingShard(dim=w.dim, window_ids=ids[part], vectors=vectors[part]), shard_dir / f"shard-{i:03d}.bin")
    return w.embedded


def generate(w: Workload, seed: int, out: Path) -> dict:
    """Write every input of workload ``w`` for ``seed`` into ``out``."""
    from pamcurate.core_model import save_deployment

    rng = _rng(w, seed)
    out.mkdir(parents=True, exist_ok=True)
    config = _deployment(w, rng)
    save_deployment(config, out / "deploy.json")
    rows = _write_ais(w, config, rng, out / "ais.csv")
    records = _write_shards(w, config, rng, out / "shards")
    return {"ais_rows": rows, "windows": config.total_windows(), "records": records}


def shard_paths(inputs: Path) -> list[Path]:
    return sorted((inputs / "shards").glob("shard-*.bin"))


def describe(inputs: Path) -> dict:
    files = [inputs / "deploy.json", inputs / "ais.csv", *shard_paths(inputs)]
    return {
        str(p.relative_to(inputs)): {"sha256": hashlib.sha256(p.read_bytes()).hexdigest(), "bytes": p.stat().st_size}
        for p in files
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--repeats", type=int, default=1)
    args = parser.parse_args(argv)
    use_checkout_src()
    w = WORKLOADS[args.workload]
    out = Path(args.out)

    times, ref_times, files = [], [], None
    for _ in range(max(1, args.repeats)):
        before = kernel_seconds()
        start = time.perf_counter()
        sizes = generate(w, args.seed, out)
        times.append(time.perf_counter() - start)
        ref_times.append(at_reference_speed(times[-1], before, kernel_seconds()))
        described = describe(out)
        if files is not None and described != files:
            print("error: input generation is not deterministic", file=sys.stderr)
            return 1
        files = described
    print(json.dumps({"setup_s": times, "setup_ref_s": ref_times, **sizes, "files": files}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
