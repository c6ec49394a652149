"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import gc
import itertools
import time

import numpy as np

from pamcurate.ais_curate import Threshold, curate, detect_knee, occurrence_curve
from pamcurate.assemble_ssl import assemble, summarize
from pamcurate.core_model import (
    MANIFEST,
    CurationManifest,
    EmbeddingShard,
    read_manifest,
    read_shard,
    write_manifest,
    write_shard,
)
from pamcurate.hkmeans import FitConfig, build_hierarchy, load_model, minibatch_fit, save_model
from pamcurate.hsample import (
    SelectionState,
    allocate_quotas,
    count_populations,
    load_checkpoint,
    merge,
    save_checkpoint,
    stream_select,
)
from synth import MixtureSpec, gen_mixture, kneedle_dense_oracle, lloyd_reference
from synth import by_leaf, exact_topn_per_cluster

from conftest import build_pipeline_fixture, make_hierarchy, random_shard
from test_ais_curate import make_aligned
from test_cli import run_pipeline


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} {name} failed: {detail}"


def norm_rows(x):
    x = np.asarray(x, dtype=np.float64)
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def test_c1_dataset_arithmetic():
    n_ais, n_hk = 25_021, 323_532
    ais = CurationManifest.of(np.arange(n_ais), "H1", "R1", np.arange(n_ais) * 10, "ais", mmsi=300000001)
    hk_ids = n_ais + np.arange(n_hk)
    hk = CurationManifest.of(hk_ids, "H1", "R1", hk_ids * 10, "hkmeans")
    gc.collect()
    start = time.perf_counter()
    summary = summarize(assemble(ais, hk))
    elapsed = time.perf_counter() - start
    ok = (
        summary["total_entries"] == 348_553
        and abs(summary["total_hours"] - 968.20) <= 0.01
        and elapsed < 1.0
    )
    report(1, "dataset-arithmetic", ok, f"{summary['total_hours']:.4f} h in {elapsed:.2f} s")


def test_c2_streaming_selection_oracle_equivalence():
    rng = np.random.default_rng(20_240_517)
    start = time.perf_counter()
    instances = 0
    for trial in range(50):
        n = int(rng.integers(100, 3000)) if trial < 47 else int(rng.integers(8000, 10_001))
        dim = int(rng.integers(2, 17))
        leaves = int(rng.integers(3, 13))
        hierarchy = make_hierarchy(rng, ks=(leaves, 2), dim=dim)
        ids = np.unique(rng.integers(0, 2**60, size=2 * n, dtype=np.uint64))[:n]
        vectors = rng.standard_normal((n, dim)).astype(np.float32)
        quotas = rng.integers(0, max(2, n // leaves), size=leaves)

        # arbitrary shard split, arbitrary arrival order, arbitrary merge split
        n_shards = int(rng.integers(1, 7))
        bounds = np.sort(rng.integers(0, n + 1, size=n_shards - 1)) if n_shards > 1 else np.array([], int)
        pieces = np.split(np.arange(n), bounds)
        order = rng.permutation(len(pieces))
        shards = [EmbeddingShard(dim=dim, window_ids=ids[pieces[i]], vectors=vectors[pieces[i]]) for i in order]
        cut = int(rng.integers(0, len(shards) + 1))
        state_a = stream_select(shards[:cut], hierarchy, quotas)
        state_b = stream_select(shards[cut:], hierarchy, quotas)
        state = merge(state_a, state_b)

        reference = exact_topn_per_cluster(
            ids, vectors, hierarchy.levels[0].centroids.astype(np.float64), quotas, normalize=True
        )
        got = {leaf: {wid for _, wid in by_leaf(state)[leaf]} for leaf in range(leaves)}
        if got != reference:
            report(2, "selection-oracle-equivalence", False, f"trial {trial} mismatch")
        instances += 1
    elapsed = time.perf_counter() - start
    report(2, "selection-oracle-equivalence", instances == 50 and elapsed < 60.0, f"{instances} instances in {elapsed:.1f} s")


def test_c3_clustering_quality():
    s = 7.0711  # pairwise mean separation 10
    means = ((s, 0.0, 0.0, 0.0), (0.0, s, 0.0, 0.0), (0.0, 0.0, s, 0.0))
    start = time.perf_counter()
    hits = 0
    for seed in range(20):
        spec = MixtureSpec(k=3, dim=4, weights=(1 / 3,) * 3, means=means, stddevs=(0.1,) * 3, n=3000, seed=seed)
        points, _ = gen_mixture(spec)
        normalized = norm_rows(points)
        reference = lloyd_reference(normalized, 3, seed=seed)
        fitted = minibatch_fit(normalized, 3, FitConfig(batch_size=256, passes=2, seed=seed))
        got = fitted.centroids.astype(np.float64)
        matched = min(
            max(np.linalg.norm(got[list(perm)] - reference, axis=1))
            for perm in itertools.permutations(range(3))
        )
        hits += matched < 0.1
    elapsed = time.perf_counter() - start
    report(3, "clustering-quality", hits >= 19 and elapsed < 60.0, f"{hits}/20 within 0.1 in {elapsed:.1f} s")


def kl_to_uniform(occupancy: np.ndarray) -> float:
    p = occupancy / occupancy.sum()
    positive = p[p > 0]
    return float((positive * np.log(positive * len(p))).sum())


def test_c4_long_tail_flattening():
    means = ((8.0, 0, 0, 0, 0, 0), (0, 8.0, 0, 0, 0, 0), (0, 0, 8.0, 0, 0, 0))
    start = time.perf_counter()
    wins = 0
    for seed in range(20):
        spec = MixtureSpec(
            k=3, dim=6, weights=(0.90, 0.05, 0.05), means=means, stddevs=(0.3,) * 3, n=3000, seed=seed
        )
        points, labels = gen_mixture(spec)
        config = FitConfig(level_ks=(12, 3), batch_size=256, passes=2, resample_rounds=2, seed=seed)
        hierarchy = build_hierarchy(points, config)
        ids = np.arange(len(points), dtype=np.uint64)
        shard = EmbeddingShard(dim=6, window_ids=ids, vectors=points.astype(np.float32))
        populations = count_populations([shard], hierarchy)
        quotas = allocate_quotas(hierarchy, populations, 300)
        state = stream_select([shard], hierarchy, quotas)
        selected = np.unique(state.held["window_id"]).astype(np.int64)

        kl_hier = kl_to_uniform(np.bincount(labels[selected], minlength=3))
        rng = np.random.default_rng(seed + 1_000)
        random_pick = rng.choice(len(points), size=len(selected), replace=False)
        kl_rand = kl_to_uniform(np.bincount(labels[random_pick], minlength=3))
        wins += kl_hier < kl_rand
    elapsed = time.perf_counter() - start
    report(4, "long-tail-flattening", wins >= 19 and elapsed < 60.0, f"{wins}/20 trials in {elapsed:.1f} s")


def test_c5_ais_curation_statistics():
    t = 250
    seeds = 200
    start = time.perf_counter()
    details = []
    ok = True
    for c in (100, 250, 500, 10_000):
        aligned, index = make_aligned({777: list(range(c))})
        threshold = Threshold(t=t, origin="manual")
        retained = [len(curate(aligned, threshold, s, index)) for s in range(seeds)]
        mean = float(np.mean(retained))
        expected = min(c, t)
        p = min(1.0, t / c)
        sigma_mean = np.sqrt(c * p * (1 - p) / seeds)
        if sigma_mean == 0.0:
            good = mean == expected
        else:
            good = abs(mean - expected) <= 3 * sigma_mean
        ok &= good
        details.append(f"c={c}: mean {mean:.1f} vs {expected}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    report(5, "ais-curation-statistics", ok, "; ".join(details) + f" in {elapsed:.1f} s")


def test_c6_knee_detection_sanity():
    m = 1500
    alpha = np.log(1000) / np.log(m)
    curve_fn = lambda r: 1e4 * (r + 1.0) ** (-alpha)
    counts = np.array([max(1, round(curve_fn(i))) for i in range(m)])
    start = time.perf_counter()
    threshold = detect_knee(counts)
    detected_rank = occurrence_curve(counts).tolist().index(threshold.t)
    oracle_rank = kneedle_dense_oracle(curve_fn, m)
    elapsed = time.perf_counter() - start
    ok = abs(detected_rank - oracle_rank) <= 2 and 100 <= threshold.t <= 600 and elapsed < 1.0
    report(6, "knee-detection", ok, f"t={threshold.t} rank {detected_rank} vs oracle {oracle_rank:.2f} in {elapsed:.2f} s")


def test_c8_determinism_and_replay(tmp_path):
    fixture = build_pipeline_fixture(tmp_path / "fx")
    outs = {}
    for name, workers in (("a", 1), ("b", 1), ("w4", 4)):
        out = tmp_path / name
        run_pipeline(fixture, out, workers=workers)
        outs[name] = out
    files = ("aligned.csv", "manifest_ais.txt", "model.bin", "manifest_hkmeans.txt", "manifest.txt")
    rerun_ok = all((outs["a"] / f).read_bytes() == (outs["b"] / f).read_bytes() for f in files)
    worker_ok = all((outs["a"] / f).read_bytes() == (outs["w4"] / f).read_bytes() for f in files)
    report(8, "determinism-and-replay", rerun_ok and worker_ok, "two runs and workers 1 vs 4 bit-identical")


def test_c9_format_round_trips(tmp_path):
    rng = np.random.default_rng(99)
    cases = 0
    ok = True

    for i in range(350):
        shard = random_shard(rng, int(rng.integers(0, 40)), int(rng.integers(1, 10)))
        path = tmp_path / "shard.bin"
        write_shard(shard, path)
        ok &= read_shard(path) == shard
        cases += 1

    for i in range(350):
        n = int(rng.integers(0, 30))
        wids = np.unique(rng.integers(0, 2**62, size=2 * n + 8, dtype=np.uint64))[:n]
        rows = np.empty(n, MANIFEST)
        rows["window_id"] = wids
        rows["hydrophone_id"] = [f"H{h}" for h in rng.integers(5, size=n)]
        rows["recording_id"] = [f"R{r}" for r in rng.integers(5, size=n)]
        rows["offset_s"] = rng.integers(0, 50, size=n) * 10
        rows["source"] = np.where(rng.random(n) < 0.5, "ais", "hkmeans").astype(object)
        rows["mmsi"] = np.where(rng.random(n) < 0.5, rng.integers(1, 10**9, size=n), 0)
        paths = ["/".join(map(str, rng.integers(0, 9, size=2))) for _ in wids]
        rows["cluster_path"] = np.where(rng.random(n) < 0.5, paths, "").astype(object)
        manifest = CurationManifest(rows)
        path = tmp_path / "m.txt"
        write_manifest(manifest, path)
        ok &= read_manifest(path) == manifest
        cases += 1

    for i in range(150):
        ks = (int(rng.integers(4, 9)), int(rng.integers(2, 4)))
        hierarchy = make_hierarchy(rng, ks=ks, dim=int(rng.integers(1, 8)))
        path = tmp_path / "model.bin"
        save_model(hierarchy, path)
        ok &= load_model(path) == hierarchy
        cases += 1

    for i in range(150):
        leaves = int(rng.integers(1, 8))
        quotas = rng.integers(0, 6, size=leaves)
        state = SelectionState.empty(quotas)
        for _ in range(int(rng.integers(0, 40))):
            state.fold([int(rng.integers(0, leaves))], [int(rng.integers(0, 2**62))], [float(rng.random())])
        state.processed = int(rng.integers(0, 10**6))
        path = tmp_path / "sel.ckpt"
        save_checkpoint(state, path)
        loaded, _, _ = load_checkpoint(path)
        ok &= loaded == state
        first_bytes = path.read_bytes()
        save_checkpoint(loaded, path)
        ok &= path.read_bytes() == first_bytes
        cases += 1

    report(9, "format-round-trips", ok and cases >= 1000, f"{cases} randomized cases bit-exact")
