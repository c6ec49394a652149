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

from conftest import build_pipeline_fixture
from test_cli import run_pipeline

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
