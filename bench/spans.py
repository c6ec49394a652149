"""Outside-in span recorder and the per-layer metrics derived from it.

The recorder wraps module-level functions of ``pamcurate`` by attribute,
including every alias another module imported by value (``cli.read_shard``,
``hsample.assign_batch``, ...), plus ``DeploymentConfig.window_index``.
Each call becomes a span with its name, start, end, parent span and
thread; the parent is the innermost open span of the same thread, so the
shard generator consumed inside ``fit`` and the ``sample --workers`` pool
threads nest correctly.  Spans stay in memory until :meth:`dump`.

Counts come only from the wrapped calls' arguments and return values and
from the stages' ``*_stats.json`` files, never from timing, so they repeat
exactly between runs on the same inputs.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    counts: dict | None


class _Open:
    """Context manager for one span; ``seconds`` is set on exit."""

    def __init__(self, recorder: "SpanRecorder", name: str):
        self.recorder, self.name, self.seconds = recorder, name, 0.0

    def __enter__(self):
        self.index, self.parent = self.recorder._open()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.seconds = end - self.start
        self.recorder._close(self.index, Span(self.name, self.start, end, self.parent, threading.get_ident(), None))
        return False


class SpanRecorder:
    def __init__(self):
        self.spans: list[Span | None] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, int | None]:
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(index)
        return index, parent

    def _close(self, index: int, span: Span) -> None:
        self._stack().pop()
        self.spans[index] = span

    def span(self, name: str) -> _Open:
        return _Open(self, name)

    def wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._close(index, Span(name, start, end, parent, threading.get_ident(), None))
            if count is not None:
                self.spans[index] = self.spans[index]._replace(counts=count(args, kwargs, result))
            return result

        return wrapper

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps([s._asdict() for s in self.spans]) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# What is wrapped, and what each call counts
# ---------------------------------------------------------------------------


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _nearest(args, kwargs, result):
    (n, d), k = args[0].shape, args[1].shape[0]
    return {"distance_evals": n * k, "diff_bytes": 8 * n * k * d}


def _collisions(args, kwargs, result):
    return {"collisions": len(args[0]) + len(args[1]) - len(result)}


# (module, attribute, span name, counter); attribute "Class.method" wraps a method.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("pamcurate.cli", "_write_run_record", "cli.run_record", None),
    ("pamcurate.cli", "_sha256", "cli.sha256", lambda a, k, r: {"bytes": os.path.getsize(a[0])}),
    ("pamcurate.cli", "_select_partition", "cli.select_partition", None),
    ("pamcurate.core_model", "read_shard", "core_model.read_shard", lambda a, k, r: {"bytes": os.path.getsize(a[0])}),
    ("pamcurate.core_model", "load_deployment", "core_model.load_deployment", None),
    ("pamcurate.core_model", "DeploymentConfig.window_index", "core_model.window_index", lambda a, k, r: {"windows": len(r)}),
    ("pamcurate.core_model", "read_manifest", "core_model.read_manifest", lambda a, k, r: {"lines": len(r)}),
    ("pamcurate.core_model", "write_manifest", "core_model.write_manifest", lambda a, k, r: {"lines": len(a[0])}),
    ("pamcurate.geo_align", "read_ais_csv", "geo_align.read_ais_csv",
     lambda a, k, r: {"rows": len(r[0]) + r[1], "rejected": r[1]}),
    ("pamcurate.geo_align", "align", "geo_align.align", lambda a, k, r: {"aligned": len(r.pulses)}),
    ("pamcurate.geo_align", "write_sidecar", "geo_align.write_sidecar", None),
    ("pamcurate.geo_align", "read_sidecar", "geo_align.read_sidecar", lambda a, k, r: {"lines": len(r)}),
    ("pamcurate.geo_align", "aligned_from_sidecar", "geo_align.aligned_from_sidecar", None),
    ("pamcurate.ais_curate", "histogram", "ais_curate.histogram", None),
    ("pamcurate.ais_curate", "detect_knee", "ais_curate.detect_knee", None),
    ("pamcurate.ais_curate", "curate", "ais_curate.curate",
     lambda a, k, r: {"aligned": len(a[0]), "retained": len(r)}),
    ("pamcurate.hkmeans", "nearest_centroids", "hkmeans.nearest_centroids", _nearest),
    ("pamcurate.hkmeans", "minibatch_fit", "hkmeans.minibatch_fit",
     lambda a, k, r: {"passes": _arg(a, k, 2, "config").passes}),
    ("pamcurate.hkmeans", "resample_fit", "hkmeans.resample_fit",
     lambda a, k, r: {"rounds": _arg(a, k, 2, "config").resample_rounds}),
    ("pamcurate.hkmeans", "build_hierarchy", "hkmeans.build_hierarchy", None),
    ("pamcurate.hkmeans", "save_model", "hkmeans.save_model", None),
    ("pamcurate.hkmeans", "load_model", "hkmeans.load_model", None),
    ("pamcurate.hkmeans", "assign_batch", "hkmeans.assign_batch", None),
    ("pamcurate.hsample", "count_populations", "hsample.count_populations", None),
    ("pamcurate.hsample", "stream_select", "hsample.stream_select", None),
    ("pamcurate.hsample", "merge", "hsample.merge", None),
    ("pamcurate.hsample", "emit", "hsample.emit", lambda a, k, r: {"entries": len(r)}),
    ("pamcurate.hsample", "save_checkpoint", "hsample.save_checkpoint",
     lambda a, k, r: {"bytes": os.path.getsize(a[1])}),
    ("pamcurate.assemble_ssl", "assemble", "assemble_ssl.assemble", _collisions),
    ("pamcurate.assemble_ssl", "summarize", "assemble_ssl.summarize", None),
)


def install(recorder: SpanRecorder) -> None:
    """Replace every target, and every alias of it in a ``pamcurate`` module, by a wrapper."""
    import importlib

    for module_name, attribute, span_name, count in TARGETS:
        owner = importlib.import_module(module_name)
        *cls, fn_name = attribute.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        original = getattr(owner, fn_name)
        wrapper = recorder.wrap(span_name, original, count)
        setattr(owner, fn_name, wrapper)
        for name, module in list(sys.modules.items()):
            if name.startswith("pamcurate") and module is not None:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, alias, wrapper)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# name -> (unit, exact).  Exact metrics are counts, or ratios of counts, and
# must repeat bit for bit between traced runs of one input; the others are
# times and are reported as medians.
LAYER_METRICS: dict[str, tuple[str, bool]] = {
    "cli.align_s": ("s", False),
    "cli.curate_ais_s": ("s", False),
    "cli.fit_s": ("s", False),
    "cli.sample_s": ("s", False),
    "cli.assemble_s": ("s", False),
    "cli.run_record_s": ("s", False),
    "cli.bytes_hashed": ("bytes", True),
    "core_model.read_shard_s": ("s", False),
    "core_model.shard_reads": ("count", True),
    "core_model.shard_reads_per_shard": ("count", True),
    "core_model.shard_bytes_read": ("bytes", True),
    "core_model.window_index_s": ("s", False),
    "core_model.windows_indexed": ("count", True),
    "core_model.manifest_write_s": ("s", False),
    "core_model.manifest_read_s": ("s", False),
    "core_model.manifest_lines": ("count", True),
    "geo_align.read_ais_csv_s": ("s", False),
    "geo_align.rows_read": ("count", True),
    "geo_align.rows_rejected": ("count", True),
    "geo_align.align_s": ("s", False),
    "geo_align.pulses_aligned": ("count", True),
    "geo_align.align_hit_ratio": ("ratio", True),
    "geo_align.sidecar_s": ("s", False),
    "geo_align.sidecar_lines": ("count", True),
    "ais_curate.histogram_s": ("s", False),
    "ais_curate.knee_s": ("s", False),
    "ais_curate.curate_s": ("s", False),
    "ais_curate.retained_ratio": ("ratio", True),
    "hkmeans.nearest_centroids_s": ("s", False),
    "hkmeans.nearest_centroids_calls": ("count", True),
    "hkmeans.distance_evals": ("count", True),
    "hkmeans.diff_bytes_computed": ("bytes", True),
    "hkmeans.distance_evals_per_s": ("1/s", False),
    "hkmeans.minibatch_fit_self_s": ("s", False),
    "hkmeans.fit_passes": ("count", True),
    "hkmeans.resample_fit_self_s": ("s", False),
    "hkmeans.resample_rounds": ("count", True),
    "hkmeans.build_hierarchy_self_s": ("s", False),
    "hkmeans.model_io_s": ("s", False),
    "hsample.count_populations_s": ("s", False),
    "hsample.stream_select_self_s": ("s", False),
    "hsample.records_pushed": ("count", True),
    "hsample.evictions": ("count", True),
    "hsample.select_accept_ratio": ("ratio", True),
    "hsample.merge_s": ("s", False),
    "hsample.partition_skew": ("ratio", False),
    "hsample.checkpoint_write_s": ("s", False),
    "hsample.checkpoint_writes": ("count", True),
    "hsample.checkpoint_bytes": ("bytes", True),
    "hsample.emit_s": ("s", False),
    "hsample.entries_emitted": ("count", True),
    "assemble_ssl.assemble_s": ("s", False),
    "assemble_ssl.summarize_s": ("s", False),
    "assemble_ssl.collisions": ("count", True),
}
# Computed by run.py from traced and untraced repetitions, not from one run's spans.
OVERHEAD_METRIC = ("trace.overhead_frac", "ratio")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], out: Path, shard_count: int) -> dict[str, float]:
    """Fold one traced run's spans and stats files into the per-layer metrics.

    A layer's self time is its span minus the spans it directly caused in
    the same thread.
    """
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    durations: dict[str, list[float]] = defaultdict(list)
    for s in spans:
        dur = s.end - s.start
        total[s.name] += dur
        self_s[s.name] += dur
        calls[s.name] += 1
        durations[s.name].append(dur)
        if s.parent is not None and spans[s.parent].thread == s.thread:
            self_s[spans[s.parent].name] -= dur
        for key, value in (s.counts or {}).items():
            counts[s.name][key] += value
    sample = json.loads((out / "sample_stats.json").read_text(encoding="utf-8"))
    busy = durations["cli.select_partition"]
    rows = counts["geo_align.read_ais_csv"]["rows"]
    nearest_s = total["hkmeans.nearest_centroids"]

    m = {
        "cli.align_s": total["cli.align"],
        "cli.curate_ais_s": total["cli.curate_ais"],
        "cli.fit_s": total["cli.fit"],
        "cli.sample_s": total["cli.sample"],
        "cli.assemble_s": total["cli.assemble"],
        "cli.run_record_s": total["cli.run_record"],
        "cli.bytes_hashed": counts["cli.sha256"]["bytes"],
        "core_model.read_shard_s": total["core_model.read_shard"],
        "core_model.shard_reads": calls["core_model.read_shard"],
        "core_model.shard_reads_per_shard": _ratio(calls["core_model.read_shard"], shard_count),
        "core_model.shard_bytes_read": counts["core_model.read_shard"]["bytes"],
        "core_model.window_index_s": total["core_model.window_index"],
        "core_model.windows_indexed": counts["core_model.window_index"]["windows"],
        "core_model.manifest_write_s": total["core_model.write_manifest"],
        "core_model.manifest_read_s": total["core_model.read_manifest"],
        "core_model.manifest_lines": counts["core_model.write_manifest"]["lines"]
        + counts["core_model.read_manifest"]["lines"],
        "geo_align.read_ais_csv_s": total["geo_align.read_ais_csv"],
        "geo_align.rows_read": rows,
        "geo_align.rows_rejected": counts["geo_align.read_ais_csv"]["rejected"],
        "geo_align.align_s": total["geo_align.align"],
        "geo_align.pulses_aligned": counts["geo_align.align"]["aligned"],
        "geo_align.align_hit_ratio": _ratio(counts["geo_align.align"]["aligned"], rows),
        "geo_align.sidecar_s": total["geo_align.write_sidecar"]
        + total["geo_align.read_sidecar"]
        + self_s["geo_align.aligned_from_sidecar"],
        "geo_align.sidecar_lines": counts["geo_align.read_sidecar"]["lines"],
        "ais_curate.histogram_s": total["ais_curate.histogram"],
        "ais_curate.knee_s": total["ais_curate.detect_knee"],
        "ais_curate.curate_s": total["ais_curate.curate"],
        "ais_curate.retained_ratio": _ratio(
            counts["ais_curate.curate"]["retained"], counts["ais_curate.curate"]["aligned"]
        ),
        "hkmeans.nearest_centroids_s": nearest_s,
        "hkmeans.nearest_centroids_calls": calls["hkmeans.nearest_centroids"],
        "hkmeans.distance_evals": counts["hkmeans.nearest_centroids"]["distance_evals"],
        "hkmeans.diff_bytes_computed": counts["hkmeans.nearest_centroids"]["diff_bytes"],
        "hkmeans.distance_evals_per_s": _ratio(counts["hkmeans.nearest_centroids"]["distance_evals"], nearest_s),
        "hkmeans.minibatch_fit_self_s": self_s["hkmeans.minibatch_fit"],
        "hkmeans.fit_passes": counts["hkmeans.minibatch_fit"]["passes"],
        "hkmeans.resample_fit_self_s": self_s["hkmeans.resample_fit"],
        "hkmeans.resample_rounds": counts["hkmeans.resample_fit"]["rounds"],
        "hkmeans.build_hierarchy_self_s": self_s["hkmeans.build_hierarchy"],
        "hkmeans.model_io_s": total["hkmeans.save_model"] + total["hkmeans.load_model"],
        "hsample.count_populations_s": total["hsample.count_populations"],
        "hsample.stream_select_self_s": self_s["hsample.stream_select"],
        "hsample.records_pushed": sample["processed_records"],
        "hsample.evictions": sample["evictions"],
        "hsample.select_accept_ratio": _ratio(sample["selected"], sample["processed_records"]),
        "hsample.merge_s": total["hsample.merge"],
        "hsample.partition_skew": _ratio(max(busy), min(busy)) if len(busy) > 1 else 1.0,
        "hsample.checkpoint_write_s": total["hsample.save_checkpoint"],
        "hsample.checkpoint_writes": calls["hsample.save_checkpoint"],
        "hsample.checkpoint_bytes": counts["hsample.save_checkpoint"]["bytes"],
        "hsample.emit_s": total["hsample.emit"],
        "hsample.entries_emitted": counts["hsample.emit"]["entries"],
        "assemble_ssl.assemble_s": total["assemble_ssl.assemble"],
        "assemble_ssl.summarize_s": total["assemble_ssl.summarize"],
        "assemble_ssl.collisions": counts["assemble_ssl.assemble"]["collisions"],
    }
    return m


def fold_runs(layer_runs: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each timed metric over traced runs; exact metrics must agree.

    Returns the folded metrics and the names of exact metrics that differed.
    """
    folded, unstable = {}, []
    for name, (_, exact) in LAYER_METRICS.items():
        values = [run[name] for run in layer_runs]
        if exact:
            if len(set(values)) > 1:
                unstable.append(name)
            folded[name] = values[0]
        else:
            folded[name] = statistics.median(values)
    return folded, unstable
