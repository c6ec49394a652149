from pathlib import Path

import numpy as np
import pytest

from pamcurate.core_model import (
    DeploymentConfig,
    EmbeddingShard,
    GeoPoint,
    Hydrophone,
    Recording,
    format_utc,
    parse_utc,
    save_deployment,
    write_shard,
)

T0 = parse_utc("2023-06-01T00:00:00")


@pytest.fixture
def deployment() -> DeploymentConfig:
    """Two hydrophones, three recordings, 60 windows in total."""
    return DeploymentConfig(
        hydrophones=(
            Hydrophone(
                id="H1",
                location=GeoPoint(35.0, -120.0),
                recordings=(
                    Recording(id="R1", start=T0, duration_s=300, native_sample_rate_hz=64_000),
                    Recording(id="R2", start=T0 + 1000, duration_s=200, native_sample_rate_hz=64_000),
                ),
            ),
            Hydrophone(
                id="H2",
                location=GeoPoint(36.5, -121.0),
                recordings=(
                    Recording(id="R1", start=T0, duration_s=100, native_sample_rate_hz=200_000),
                ),
            ),
        )
    )


def blocked_nearest_centroids(points, centroids, block_elems: int = 1 << 23):
    """Exhaustive nearest-centroid reference: explicit float64 differences for
    every (point, centroid) pair, blockwise over an ``(rows, k_block, d)``
    array.  Ties go to the lowest index; the blocking does not change the
    per-pair arithmetic."""
    points = np.asarray(points, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    n, d = points.shape
    k = len(centroids)
    best_idx = np.zeros(n, dtype=np.int64)
    best_d2 = np.full(n, np.inf)
    k_block = max(1, min(k, block_elems // max(1, d)))
    rows = max(1, block_elems // (k_block * max(1, d)))
    for i0 in range(0, n, rows):
        pts = points[i0 : i0 + rows]
        for c0 in range(0, k, k_block):
            block = centroids[c0 : c0 + k_block]
            d2 = ((pts[:, None, :] - block[None, :, :]) ** 2).sum(axis=2)
            local = d2.argmin(axis=1)
            local_d2 = d2[np.arange(len(pts)), local]
            improved = local_d2 < best_d2[i0 : i0 + len(pts)]
            sub_idx = best_idx[i0 : i0 + len(pts)]
            sub_d2 = best_d2[i0 : i0 + len(pts)]
            sub_idx[improved] = local[improved] + c0
            sub_d2[improved] = local_d2[improved]
    return best_idx, best_d2


def random_shard(rng: np.random.Generator, n: int, dim: int) -> EmbeddingShard:
    ids = np.unique(rng.integers(0, 2**62, size=2 * n + 16, dtype=np.uint64))[:n]
    vectors = rng.standard_normal((n, dim)).astype(np.float32)
    return EmbeddingShard(dim=dim, window_ids=ids, vectors=vectors)


def make_hierarchy(rng: np.random.Generator, ks=(7, 3, 2), dim=5):
    """Random (but internally consistent) hierarchy for selection tests."""
    from pamcurate.hkmeans import CentroidSet, ClusterHierarchy, nearest_centroids

    sets = [
        CentroidSet(
            level=level,
            centroids=rng.standard_normal((k, dim)).astype(np.float32),
            counts=rng.integers(0, 1000, size=k).astype(np.uint64),
        )
        for level, k in enumerate(ks, start=1)
    ]
    parents = []
    for lower, upper in zip(sets, sets[1:]):
        idx, _ = nearest_centroids(lower.centroids.astype(np.float64), upper.centroids.astype(np.float64))
        parents.append(idx.astype(np.uint32))
    return ClusterHierarchy(levels=tuple(sets), parents=tuple(parents))


def build_pipeline_fixture(root: Path) -> dict:
    """Deterministic desk-scale corpus: config, AIS csv, embedding shards.

    400 windows across two hydrophones; five ships with occurrence counts
    {30, 12, 6, 3, 1} inside the H1 fence, one ship far outside, plus two
    malformed AIS rows.
    """
    root.mkdir(parents=True, exist_ok=True)
    config = DeploymentConfig(
        hydrophones=(
            Hydrophone(
                id="H1",
                location=GeoPoint(0.0, 0.0),
                recordings=(
                    Recording(id="R1", start=T0, duration_s=2000, native_sample_rate_hz=64_000),
                    Recording(id="R2", start=T0 + 3000, duration_s=1000, native_sample_rate_hz=64_000),
                ),
            ),
            Hydrophone(
                id="H2",
                location=GeoPoint(0.5, 0.5),
                recordings=(
                    Recording(id="R1", start=T0, duration_s=1000, native_sample_rate_hz=200_000),
                ),
            ),
        )
    )
    config_path = root / "deploy.json"
    save_deployment(config, config_path)

    rows = ["MMSI,BaseDateTime,LAT,LON,SOG,VesselType"]

    def pulse_row(mmsi, t, lat, lon, vtype=70):
        rows.append(f"{mmsi},{format_utc(t)},{lat},{lon},0.0,{vtype}")

    ship_slots = {
        300000001: range(0, 30),        # occ 30 in H1/R1
        300000002: range(40, 52),       # occ 12
        300000003: range(60, 66),       # occ 6
        300000004: range(70, 73),       # occ 3
        300000005: range(80, 81),       # occ 1
    }
    for mmsi, slots in ship_slots.items():
        for slot in slots:
            pulse_row(mmsi, T0 + slot * 10 + 3, 0.001, -0.001)
    # shared window: ship 2 also pings inside ship 1's slot 0
    pulse_row(300000002, T0 + 5, 0.002, 0.0)
    # far outside every fence
    pulse_row(300000006, T0 + 15, 2.0, 2.0)
    pulse_row(300000006, T0 + 95, 2.0, 2.0)
    rows.append("notanumber,2023-06-01T00:00:03,0.0,0.0,0.0,70")
    rows.append("300000007,garbage,0.0,0.0,0.0,70")
    ais_path = root / "ais.csv"
    ais_path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    rng = np.random.default_rng(123)
    index = config.window_index()
    ids = np.array(sorted(index), dtype=np.uint64)
    means = np.array(
        [[6.0, 0, 0, 0, 0, 0], [0, 6.0, 0, 0, 0, 0], [0, 0, 6.0, 0, 0, 0]], dtype=np.float64
    )
    labels = rng.choice(3, size=len(ids), p=[0.6, 0.25, 0.15])
    vectors = (means[labels] + 0.2 * rng.standard_normal((len(ids), 6))).astype(np.float32)
    shard_paths = []
    for i in range(3):
        sel = slice(i * len(ids) // 3, (i + 1) * len(ids) // 3)
        path = root / f"shard{i}.bin"
        write_shard(EmbeddingShard(dim=6, window_ids=ids[sel], vectors=vectors[sel]), path)
        shard_paths.append(path)

    return {
        "config": config_path,
        "ais": ais_path,
        "shards": shard_paths,
        "deployment": config,
        "window_count": len(ids),
    }
