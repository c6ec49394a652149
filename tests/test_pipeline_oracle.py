"""The five stages end to end, through ``cli.main``, against references
composed from ``synth``: every line of ``aligned.csv``, ``manifest_ais.txt``,
``manifest_hkmeans.txt`` and ``manifest.txt`` is rebuilt one record at a
time, with no package code on the selection path.

Only ``model.bin`` and the threshold the knee detector wrote to
``curate_stats.json`` are taken as given.  The fixture is
``build_pipeline_fixture`` plus what it lacks end to end: a fourth shard
that repeats one window id with its vector, and a pulse inside the fences
of both hydrophones.  Hypothesis draws the ``--seed``, the ``--target-n``
and the ``--shards`` order, one more input of the determinism contract.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pamcurate.ais_curate import Threshold
from pamcurate.core_model import EmbeddingShard, format_utc, read_shard, write_shard
from pamcurate.hkmeans import load_model
from conftest import T0, blocked_nearest_centroids, build_pipeline_fixture
from synth import (
    align_reference,
    assemble_reference,
    curate_reference,
    iter_windows,
    parents_reference,
    quotas_reference,
    read_ais_csv_reference,
    topn_per_leaf,
)
from test_cli import run

SEED = 11
SIDE_KM = 80.0  # fences of half-side 0.36 deg: H1's at (0, 0) and H2's at (0.5, 0.5) overlap
LEVELS = (8, 2)
TARGET_N = 60
SHARED_PULSE = (300000008, T0 + 505, 0.25, 0.25)  # inside both fences and both first recordings


def extend_fixture(root):
    fixture = build_pipeline_fixture(root / "fx")
    mmsi, t, lat, lon = SHARED_PULSE
    with open(fixture["ais"], "a", encoding="utf-8") as fh:
        fh.write(f"{mmsi},{format_utc(t)},{lat},{lon},0.0,70\n")
    first = read_shard(fixture["shards"][0])
    repeat = root / "fx" / "repeat.bin"
    write_shard(EmbeddingShard(first.dim, first.window_ids[5:6], first.vectors[5:6]), repeat)
    fixture["shards"], fixture["repeated"] = [*fixture["shards"], repeat], int(first.window_ids[5])
    return fixture


def run_stages(fixture, out, seed, target_n):
    """Run the five stages, ``assemble`` only after a ``sample`` that exits
    0; returns ``sample``'s exit code and what it wrote to stderr."""
    config, shards = fixture["config"], fixture["shards"]
    assert run("align", "--config", config, "--ais", fixture["ais"], "--side-km", SIDE_KM, "--out", out) == 0
    assert run("curate-ais", "--config", config, "--aligned", out / "aligned.csv", "--seed", seed, "--out", out) == 0
    levels = ",".join(map(str, LEVELS))
    args = ["fit", "--shards", *shards, "--levels", levels, "--seed", seed, "--batch-size", 64, "--out", out]
    assert run(*args) == 0
    args = ["sample", "--config", config, "--model", out / "model.bin", "--shards", *shards]
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = run(*args, "--target-n", target_n, "--out", out)
    if code == 0:
        manifests = ["--ais-manifest", out / "manifest_ais.txt", "--hkmeans-manifest", out / "manifest_hkmeans.txt"]
        assert run("assemble", *manifests, "--out", out) == 0
    return code, err.getvalue()


def manifest_line(wid, hid, rid, off, source, mmsi=0, cluster_path=""):
    line = f"window_id={wid} hydrophone_id={hid} recording_id={rid} offset_s={off} source={source}"
    return line + (f" mmsi={mmsi}" if mmsi else "") + (f" cluster_path={cluster_path}" if cluster_path else "")


def lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def hkmeans_reference(fixture, hierarchy, windows, target_n):
    """``sample``'s manifest rows: every record assigned by exhaustive
    float64 differences on rows normalised as ``hkmeans._normalize_rows``
    does, leaf populations per record, water-filled quotas, and each
    leaf's closest distinct windows.  Also whether they fall short of
    ``target_n``: the repeated window counts twice in its leaf's
    population, so a leaf whose quota is its whole population holds one
    window fewer."""
    shards = [read_shard(path) for path in fixture["shards"]]
    ids = np.concatenate([shard.window_ids for shard in shards])
    vectors = np.concatenate([shard.vectors for shard in shards]).astype(np.float64)
    normalized = vectors / np.sqrt((vectors * vectors).sum(axis=1))[:, None]
    centroids = hierarchy.levels[0].centroids.astype(np.float64)
    leaf_idx, d2 = blocked_nearest_centroids(normalized, centroids)
    populations = np.bincount(leaf_idx, minlength=LEVELS[0])
    assert populations.sum() == len(set(ids.tolist())) + 1  # the repeated window counts twice
    parents = [pmap.tolist() for pmap in parents_reference(hierarchy.levels)]
    quotas = quotas_reference(LEVELS, parents, populations.tolist(), target_n)[0]
    repeated_leaf = leaf_idx[np.flatnonzero(ids == fixture["repeated"])[0]]
    short = quotas[repeated_leaf] == populations[repeated_leaf]
    rows = []
    for leaf, pairs in enumerate(topn_per_leaf(leaf_idx, ids, np.sqrt(d2), quotas)):
        chain = [leaf]
        for pmap in parents:
            chain.append(pmap[chain[-1]])
        path = "/".join(map(str, chain[::-1]))
        rows += [(*windows[wid], "hkmeans", 0, path) for _, wid in pairs]
    assert len(rows) == target_n - short
    return sorted(rows), short


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1000), target_n=st.integers(1, 300), order=st.permutations(range(4)))
@example(seed=SEED, target_n=TARGET_N, order=[0, 1, 2, 3])
def test_five_stages_match_the_composed_references(seed, target_n, order):
    with tempfile.TemporaryDirectory() as tmp:
        check_five_stages(Path(tmp), seed, target_n, order)


def check_five_stages(tmp_path, seed, target_n, order):
    fixture = extend_fixture(tmp_path)
    fixture["shards"] = [fixture["shards"][i] for i in order]
    out = tmp_path / "out"
    code, err = run_stages(fixture, out, seed, target_n)
    windows = {window.window_id: window for window in iter_windows(fixture["deployment"])}

    pulses, rejected = read_ais_csv_reference(fixture["ais"])
    aligned, _, _ = align_reference(pulses, fixture["deployment"], side_km=SIDE_KM)
    ships: dict[int, set[int]] = {}
    for pulse in aligned:
        ships.setdefault(pulse.window_id, set()).add(pulse.mmsi)
    assert rejected == 2 and sum(SHARED_PULSE[0] in mmsis for mmsis in ships.values()) == 2
    assert lines(out / "aligned.csv") == sorted(f"{wid},{mmsi}" for wid, mmsis in ships.items() for mmsi in mmsis)

    stats = json.loads((out / "curate_stats.json").read_text())
    threshold = Threshold(t=stats["threshold"], origin=stats["threshold_origin"])
    ais_rows = curate_reference(ships, windows, threshold, seed)
    assert lines(out / "manifest_ais.txt") == [manifest_line(*row) for row in ais_rows]

    hkmeans_rows, short = hkmeans_reference(fixture, load_model(out / "model.bin"), windows, target_n)
    if short:
        assert code == 2 and f"fewer than the quota total {target_n}" in err
        assert not (out / "manifest_hkmeans.txt").exists()
        return
    assert code == 0
    assert lines(out / "manifest_hkmeans.txt") == [manifest_line(*row) for row in hkmeans_rows]

    merged = assemble_reference(ais_rows, hkmeans_rows)
    assert lines(out / "manifest.txt") == [manifest_line(*row) for row in merged]
    if (seed, target_n, order) == (SEED, TARGET_N, [0, 1, 2, 3]):
        assert fixture["repeated"] in [row[0] for row in hkmeans_rows]  # selected once, counted twice
        # the two routes overlap, so assembly resolves collisions here
        assert len(merged) < len(ais_rows) + len(hkmeans_rows)
