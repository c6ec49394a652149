"""The benchmark's traced run (``bench/run.py --trace 1``) wraps ``pamcurate``
functions by name and reads ``sample_stats.json`` keys.  These tests read
``bench/spans.py`` and fail when a rename in the package would break it.
"""

import importlib
import importlib.util
import inspect
import json
import re
from pathlib import Path

import pytest

from pamcurate import geo_align, hsample
from pamcurate.core_model import load_deployment
from conftest import build_pipeline_fixture
from test_cli import run, run_pipeline

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(spans):
    for module_name, attribute, *_ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{module_name}.{attribute}"
        assert callable(owner), f"{module_name}.{attribute}"


def test_sample_stats_carry_the_keys_layer_metrics_reads(spans, tmp_path):
    keys = set(re.findall(r'sample\["(\w+)"\]', inspect.getsource(spans.layer_metrics)))
    assert keys == {"processed_records", "selected", "evictions"}
    out = tmp_path / "out"
    run_pipeline(build_pipeline_fixture(tmp_path / "fx"), out, workers=2)
    stats = json.loads((out / "sample_stats.json").read_text())
    assert keys <= stats.keys()


def test_call_shapes_the_counters_read_match_the_stats(tmp_path):
    """The counters of ``read_ais_csv``, ``align``, ``window_index``,
    ``read_sidecar`` and ``curate`` take ``len`` of what those calls return
    or take; the lengths must be the counts the stages report (sidecar lines
    for ``read_sidecar``, distinct windows for the aligned set)."""
    fixture = build_pipeline_fixture(tmp_path / "fx")
    out = tmp_path / "out"
    run_pipeline(fixture, out)
    stats = json.loads((out / "align_stats.json").read_text())
    config = load_deployment(fixture["config"])
    pulses, rejected = geo_align.read_ais_csv(fixture["ais"])
    assert len(pulses) + rejected == stats["pulses_read"] + stats["rejected_rows"]
    assert len(geo_align.align(pulses, config, side_km=stats["side_km"]).pulses) == stats["aligned_pulses"]
    assert len(config.window_index()) == config.total_windows() == fixture["window_count"]
    sidecar = out / "aligned.csv"
    pairs = geo_align.read_sidecar(sidecar)
    assert len(pairs) == len(sidecar.read_text().splitlines())
    curated = json.loads((out / "curate_stats.json").read_text())
    assert len(geo_align.aligned_from_sidecar(pairs, config.window_index())) == curated["aligned_windows"] < len(pairs)


def test_checkpoint_counter_sees_one_append_per_shard(spans, tmp_path, monkeypatch):
    """The ``hsample.save_checkpoint`` counter reads the checkpoint's size
    from the call's second positional argument after every call, and the
    bench counts the calls as checkpoint writes: a checkpointed ``sample``
    calls it once per shard it folds, with the journal path there."""
    assert list(inspect.signature(hsample.save_checkpoint).parameters)[:2] == ["state", "path"]
    (count,) = [count for _, attribute, _, count in spans.TARGETS if attribute == "save_checkpoint"]
    fixture = build_pipeline_fixture(tmp_path / "fx")
    out, ckpt = tmp_path / "out", tmp_path / "sel.ckpt"
    run_pipeline(fixture, out)
    calls, real = [], hsample.save_checkpoint

    def save(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, kwargs, count(args, kwargs, result)))
        return result

    monkeypatch.setattr(hsample, "save_checkpoint", save)
    argv = ["sample", "--config", fixture["config"], "--model", out / "model.bin", "--shards", *fixture["shards"]]
    assert run(*argv, "--target-n", 60, "--checkpoint", ckpt, "--out", tmp_path / "s") == 0
    assert len(calls) == len(fixture["shards"])
    assert all(args[1] == ckpt and not kwargs for args, kwargs, _ in calls)
    sizes = [counted["bytes"] for _, _, counted in calls]
    assert sizes == sorted(sizes) and sizes[-1] == ckpt.stat().st_size
