"""Rebalance the long-tailed per-ship window distribution.

Ships heard in at most ``t`` windows keep all of them; a ship heard in
``c > t`` windows keeps each window independently with probability ``t/c``,
so every ship's expected retained count is ``min(c, t)``.  The threshold is
either supplied by the operator or detected at the knee of the descending
occurrence curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_model import CurationManifest, WindowIndex
from .errors import ValidationError
from .geo_align import AlignedWindowSet

THRESHOLD_ORIGINS = ("detected", "manual")


@dataclass(frozen=True)
class Threshold:
    t: int
    origin: str

    def __post_init__(self):
        if self.t < 1:
            raise ValidationError(f"threshold must be >= 1, got {self.t}")
        if self.origin not in THRESHOLD_ORIGINS:
            raise ValidationError(f"origin {self.origin!r} not in {THRESHOLD_ORIGINS}")


def histogram(aligned: AlignedWindowSet) -> np.ndarray:
    """Per ship, in ascending mmsi order, the number of distinct windows it
    was heard in.  A window shared by several ships counts once for each of them.
    """
    return np.unique(aligned.pairs["mmsi"], return_counts=True)[1]


def occurrence_curve(counts: np.ndarray) -> np.ndarray:
    """The per-ship ``counts`` in descending order; a count's rank is its index."""
    return np.sort(counts)[::-1]


def detect_knee(counts) -> Threshold:
    """Kneedle-style knee of the descending occurrence curve of the per-ship
    ``counts``, each at least 1.

    Both axes are normalized to [0, 1]; because the curve is decreasing and
    convex, the knee is the rank maximizing ``(1 - y_norm) - x_norm``
    (smallest rank on ties).  The returned threshold is the count at the
    knee rank.  Needs at least 3 distinct count values to be meaningful;
    flatter histograms require a manual threshold.
    """
    values = occurrence_curve(np.asarray(counts)).astype(np.float64)
    if (values < 1).any():
        raise ValidationError("occurrence counts must be >= 1")
    if len(np.unique(values)) < 3:
        raise ValidationError(
            "occurrence histogram has fewer than 3 distinct values; no knee — pass a manual threshold"
        )
    ranks = np.arange(len(values), dtype=np.float64)
    y_norm = (values - values.min()) / (values.max() - values.min())
    x_norm = ranks / ranks.max()
    diff = (1.0 - y_norm) - x_norm
    knee_rank = int(diff.argmax())
    return Threshold(t=int(values[knee_rank]), origin="detected")


def curate(aligned: AlignedWindowSet, threshold: Threshold, seed: int, index: WindowIndex) -> CurationManifest:
    """Thin the aligned windows ship by ship; returns the manifest of the
    retained windows, with their coordinates taken from ``index``.

    Each ship heard in more than ``t`` windows uses its own generator seeded
    with ``seed XOR mmsi`` and draws over its windows in ascending window_id
    order, so the output does not depend on the order of the pairs or of the
    other ships.  A window heard from several ships is kept if at least one
    of them retains it, and its row records the smallest retaining mmsi.
    """
    pairs, t = aligned.pairs, threshold.t
    by_ship = np.lexsort((pairs["window_id"], pairs["mmsi"]))
    ships, starts, counts = np.unique(pairs["mmsi"][by_ship], return_index=True, return_counts=True)
    kept = np.ones(len(pairs), dtype=bool)
    heavy = counts > t
    for mmsi, start, count in zip(ships[heavy].tolist(), starts[heavy].tolist(), counts[heavy].tolist()):
        draws = np.random.default_rng(np.random.PCG64(seed ^ mmsi)).random(count)
        kept[by_ship[start : start + count]] = draws < t / count
    # ``pairs`` is sorted by (window_id, mmsi): a window's first kept pair has its smallest retaining mmsi.
    retained = pairs[kept]
    window_ids, first = np.unique(retained["window_id"], return_index=True)
    coordinates = index.coordinates(window_ids, "retained")
    return CurationManifest.of(window_ids, *coordinates, "ais", mmsi=retained["mmsi"][first])
