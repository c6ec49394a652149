"""Checks of the benchmark itself: its declared metrics, its seeded inputs,
and its exact counters on real traced runs.

Run from the repository root: python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from chain import DIGESTED, invariants
from gen import describe, generate, shard_paths
from spans import LAYER_METRICS, OVERHEAD_METRIC
from workloads import BENCH, ROOT, WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_declares_what_the_runs_report():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert declared == {name: unit for name, (unit, _) in LAYER_METRICS.items()} | dict([OVERHEAD_METRIC])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generator_is_a_function_of_the_seed(name, work_dir):
    sizes = generate(WORKLOADS[name], 7, work_dir / "a")
    generate(WORKLOADS[name], 7, work_dir / "b")
    generate(WORKLOADS[name], 8, work_dir / "c")
    assert describe(work_dir / "a") == describe(work_dir / "b")
    assert describe(work_dir / "a") != describe(work_dir / "c")
    assert sizes["records"] == WORKLOADS[name].embedded
    assert len(shard_paths(work_dir / "a")) == WORKLOADS[name].shards


def _chain(name, inputs, out, traced):
    return run.child("chain.py", "--workload", name, "--inputs", inputs, "--out", out, *(["--trace"] if traced else []))


# Hand-derived from the fit/sample flags: each mini-batch pass and each
# resample round's assignment pass reads every shard once, and `sample`
# reads every shard twice (population count, then selection).
#   embed-heavy: fit 2 + 3 x (1 + 2) = 11, sample 2  -> 13
#   select-wide: fit 1 + 1 x (1 + 1) = 3,  sample 2  -> 5
#   ais-dense:   default fit like embed-heavy        -> 13
EXPECTED = {
    "embed-heavy": {"core_model.shard_reads_per_shard": 13, "hkmeans.fit_passes": 8, "hkmeans.resample_rounds": 3},
    "ais-dense": {"core_model.shard_reads_per_shard": 13, "hkmeans.fit_passes": 8, "hkmeans.resample_rounds": 3},
    "select-wide": {"core_model.shard_reads_per_shard": 5, "hkmeans.fit_passes": 2, "hkmeans.resample_rounds": 1},
}


@pytest.mark.parametrize("name", ["embed-heavy", "select-wide"])
def test_traced_counts_repeat_and_match_hand_derived_values(name, work_dir):
    w = WORKLOADS[name]
    inputs = work_dir / "inputs"
    sizes = generate(w, 3, inputs)
    shard_bytes = sum(p.stat().st_size for p in shard_paths(inputs))
    plain = _chain(name, inputs, work_dir / "plain", traced=False)
    first = _chain(name, inputs, work_dir / "t1", traced=True)
    second = _chain(name, inputs, work_dir / "t2", traced=True)

    assert plain["digests"] == first["digests"] == second["digests"]
    assert all(first["invariants"].values())
    exact = [metric for metric, (_, is_exact) in LAYER_METRICS.items() if is_exact]
    assert {m: first["layers"][m] for m in exact} == {m: second["layers"][m] for m in exact}

    layers = first["layers"]
    for metric, value in EXPECTED[name].items():
        assert layers[metric] == value, metric
    reads = EXPECTED[name]["core_model.shard_reads_per_shard"]
    assert layers["core_model.shard_reads"] == reads * w.shards
    assert layers["core_model.shard_bytes_read"] == reads * shard_bytes
    assert layers["core_model.windows_indexed"] == 2 * sizes["windows"]  # curate-ais and sample
    assert layers["geo_align.rows_read"] == sizes["ais_rows"]
    assert layers["hsample.records_pushed"] == w.embedded
    assert layers["hsample.checkpoint_writes"] == (w.shards if w.checkpoint else 0)
    target_n = int(w.sample_flags[w.sample_flags.index("--target-n") + 1])
    assert layers["hsample.entries_emitted"] == target_n
    assert (layers["hsample.merge_s"] > 0) == ("--workers" in w.sample_flags)


def test_failures_count_each_broken_operation():
    digests = dict.fromkeys(DIGESTED, "x")
    rep = {
        "stages": {"align": 0, "curate-ais": 0, "fit": 2},
        "digests": digests | {"model.bin": None},
        "invariants": {"a": True, "b": False},
    }
    # fit failed, sample and assemble never ran, one digest missing, one invariant broken.
    assert run.failures(rep, digests) == 1 + 2 + 1 + 1


def test_manifest_invariant_checks_which_windows_not_only_how_many(work_dir):
    def manifest(name, *ids):
        lines = (f"window_id={i} hydrophone_id=H00 recording_id=R00 offset_s=0 source=x" for i in ids)
        (work_dir / name).write_text("".join(line + "\n" for line in lines), encoding="utf-8")

    (work_dir / "sample_stats.json").write_text('{"quota_total": 2}', encoding="utf-8")
    (work_dir / "aligned.csv").write_text("1,200000000\n2,200000007\n", encoding="utf-8")
    manifest("manifest_ais.txt", 1, 2)
    manifest("manifest_hkmeans.txt", 2, 3)
    manifest("manifest.txt", 1, 2, 3)
    assert all(invariants(work_dir).values())

    manifest("manifest.txt", 1, 2, 4)  # right size, one window swapped
    checks = invariants(work_dir)
    assert not checks["manifest_is_union"]
    assert checks["hkmeans_count_is_quota_total"] and checks["ais_windows_aligned"]

    manifest("manifest.txt", 1, 2, 3, 3)  # a window listed twice
    assert not invariants(work_dir)["manifest_is_union"]


def test_without_program_sources_it_fails_without_a_result(work_dir):
    shutil.copy(ROOT / "BENCHMARK.json", work_dir)
    shutil.copytree(BENCH, work_dir / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "ais-dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=work_dir,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
