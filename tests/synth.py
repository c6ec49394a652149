"""Synthetic data generators and brute-force reference implementations.

Everything in this module exists for tests and acceptance checks.  The
production modules never import it, so comparisons between the streaming
implementations and these references are comparisons between independent
code paths, not shared helpers.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from pamcurate.ais_curate import Threshold
from pamcurate.core_model import (
    MANIFEST,
    U64_MAX,
    CurationManifest,
    DeploymentConfig,
    GeoPoint,
    Hydrophone,
    Recording,
    WINDOW_S,
    parse_utc,
    _manifest_fault,
    window_id_of,
)
from pamcurate.errors import ParseError, ValidationError
from pamcurate.geo_align import AIS_COLUMNS, PAIRS, AlignedWindowSet, GeoFence, fence_of

# ---------------------------------------------------------------------------
# Gaussian mixtures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixtureSpec:
    """Isotropic Gaussian mixture with optionally long-tailed weights."""

    k: int
    dim: int
    weights: tuple[float, ...]
    means: tuple[tuple[float, ...], ...]
    stddevs: tuple[float, ...]
    n: int
    seed: int

    def __post_init__(self):
        if self.k < 1 or self.dim < 1 or self.n < 1:
            raise ValidationError("k, dim and n must be >= 1")
        if len(self.weights) != self.k or len(self.means) != self.k or len(self.stddevs) != self.k:
            raise ValidationError("weights, means and stddevs must each have k entries")
        if any(w <= 0 for w in self.weights):
            raise ValidationError("weights must be positive")
        if not math.isclose(sum(self.weights), 1.0, rel_tol=1e-9):
            raise ValidationError(f"weights must sum to 1, got {sum(self.weights)}")
        if any(s <= 0 for s in self.stddevs):
            raise ValidationError("stddevs must be positive")
        if any(len(m) != self.dim for m in self.means):
            raise ValidationError("every mean must have dim components")


def gen_mixture(spec: MixtureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``spec.n`` points; returns ``(points, component_labels)``.

    Pure function of the spec: the same spec (seed included) always yields
    the same sample.
    """
    rng = np.random.default_rng(spec.seed)
    weights = np.asarray(spec.weights, dtype=np.float64)
    weights = weights / weights.sum()
    labels = rng.choice(spec.k, size=spec.n, p=weights)
    means = np.asarray(spec.means, dtype=np.float64)
    stddevs = np.asarray(spec.stddevs, dtype=np.float64)
    noise = rng.standard_normal((spec.n, spec.dim))
    points = means[labels] + stddevs[labels][:, None] * noise
    return points, labels


# ---------------------------------------------------------------------------
# Per-row AIS reference: one object per pulse, as the package read and
# aligned pulses before its columnar path
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class AisPulse:
    """One timestamped, geolocated vessel ping."""

    mmsi: int
    time: int
    position: GeoPoint
    vessel_type: int | None = None

    def __post_init__(self):
        if not 0 < self.mmsi <= 999_999_999:
            raise ValidationError(f"mmsi {self.mmsi} outside 1..999999999")


def ais_columns(pulses: Iterable[AisPulse]) -> np.ndarray:
    """The pulses as the ``geo_align.AIS_COLUMNS`` array the package reads."""
    return np.array([(p.mmsi, p.time, p.position.lat, p.position.lon) for p in pulses], dtype=AIS_COLUMNS)


def read_ais_csv_reference(path: str | Path) -> tuple[list[AisPulse], int]:
    """Per-row ``csv.DictReader`` reader; a malformed row is counted, not fatal."""
    pulses: list[AisPulse] = []
    rejected = 0
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in ("MMSI", "BaseDateTime", "LAT", "LON") if c not in header]
        if missing:
            raise ParseError(f"AIS CSV missing columns {missing}", path=str(path), offset=1)
        for row in reader:
            try:
                vessel_raw = (row.get("VesselType") or "").strip()
                pulse = AisPulse(
                    mmsi=int(row["MMSI"]),
                    time=parse_utc(row["BaseDateTime"]),
                    position=GeoPoint(float(row["LAT"]), float(row["LON"])),
                    vessel_type=int(float(vessel_raw)) if vessel_raw else None,
                )
            except (ValueError, TypeError, OverflowError, ValidationError):
                rejected += 1
                continue
            pulses.append(pulse)
    return pulses, rejected


def contains_reference(fence: GeoFence, point: GeoPoint) -> bool:
    if abs(point.lat - fence.center.lat) > fence.lat_span_deg:
        return False
    dlon = abs((point.lon - fence.center.lon + 180.0) % 360.0 - 180.0)
    return dlon <= fence.lon_span_deg


class AlignedPulse(NamedTuple):
    mmsi: int
    time: int
    window_id: int
    hydrophone_id: str


def align_reference(
    pulses: Iterable[AisPulse], config: DeploymentConfig, side_km: float = 4.0
) -> tuple[list[AlignedPulse], AlignedWindowSet, dict[str, int]]:
    """Every pulse against every hydrophone's fence and recordings in turn;
    returns the sorted aligned pulses, the aligned windows and the rejects."""
    fences = [(h, fence_of(h.location, side_km)) for h in config.hydrophones]
    aligned: list[AlignedPulse] = []
    ships: dict[int, set[int]] = {}
    rejects: dict[str, int] = {}
    for pulse in pulses:
        matched = False
        for hydrophone, fence in fences:
            if not contains_reference(fence, pulse.position):
                continue
            window = _window_at(hydrophone, pulse.time)
            if window is None:
                continue
            ships.setdefault(window.window_id, set()).add(pulse.mmsi)
            aligned.append(AlignedPulse(pulse.mmsi, pulse.time, window.window_id, hydrophone.id))
            matched = True
        if not matched:
            rejects["unaligned"] = rejects.get("unaligned", 0) + 1
    return sorted(aligned), aligned_of(ships), rejects


def aligned_of(ships: dict[int, set[int]]) -> AlignedWindowSet:
    """The AlignedWindowSet of a ``window_id -> set of mmsi`` map."""
    pairs = [(wid, mmsi) for wid, mmsis in ships.items() for mmsi in mmsis]
    return AlignedWindowSet.of([wid for wid, _ in pairs], [mmsi for _, mmsi in pairs])


class AudioWindow(NamedTuple):
    """One complete 10-second slice of a recording."""

    window_id: int
    hydrophone_id: str
    recording_id: str
    offset_s: int


def iter_windows(config: DeploymentConfig) -> Iterator[AudioWindow]:
    """Every window of a deployment, one at a time, in config order."""
    for h in config.hydrophones:
        for rec in h.recordings:
            for off in rec.window_offsets:
                yield AudioWindow(window_id_of(h.id, rec.id, off), h.id, rec.id, off)


def _window_at(hydrophone: Hydrophone, time: int) -> AudioWindow | None:
    for rec in hydrophone.recordings:
        if rec.start <= time < rec.end:
            offset = (time - rec.start) // WINDOW_S * WINDOW_S
            if offset + WINDOW_S <= rec.duration_s:
                return AudioWindow(window_id_of(hydrophone.id, rec.id, offset), hydrophone.id, rec.id, offset)
            return None
    return None


# ---------------------------------------------------------------------------
# Occurrence histogram and thinning, one ship at a time
# ---------------------------------------------------------------------------


def histogram_reference(ships: dict[int, set[int]]) -> dict[int, int]:
    """Per-ship distinct-window counts of a ``window_id -> set of mmsi`` map, by mmsi."""
    counts: dict[int, int] = {}
    for mmsis in ships.values():
        for mmsi in mmsis:
            counts[mmsi] = counts.get(mmsi, 0) + 1
    return counts


def curate_reference(
    ships: dict[int, set[int]], windows: dict[int, AudioWindow], threshold: Threshold, seed: int
) -> list[tuple]:
    """``ais_curate.curate`` with dicts: a ship seen in ``c`` windows keeps
    each with probability ``min(1, t/c)``, its own ``PCG64(seed ^ mmsi)``
    drawing over its windows in ascending id order, and the smallest retaining
    mmsi per window; ``windows`` maps every window id to its coordinates.
    Returns the manifest rows as tuples, in window id order."""
    by_ship: dict[int, list[int]] = {}
    for wid, mmsis in ships.items():
        for mmsi in mmsis:
            by_ship.setdefault(mmsi, []).append(wid)

    retained: dict[int, int] = {}
    for mmsi in sorted(by_ship):
        wids = sorted(by_ship[mmsi])
        p = min(1.0, threshold.t / len(wids))
        if p >= 1.0:
            kept = wids
        else:
            rng = np.random.default_rng(np.random.PCG64(seed ^ mmsi))
            draws = rng.random(len(wids))
            kept = [wid for wid, u in zip(wids, draws) if u < p]
        for wid in kept:
            if wid not in retained or mmsi < retained[wid]:
                retained[wid] = mmsi

    return [(*windows[wid], "ais", retained[wid], "") for wid in sorted(retained)]


# ---------------------------------------------------------------------------
# Manifest assembly, one row at a time
# ---------------------------------------------------------------------------


class ManifestRow(NamedTuple):
    """One manifest line; ``mmsi`` 0 and ``cluster_path`` "" mean absent."""

    window_id: int
    hydrophone_id: str
    recording_id: str
    offset_s: int
    source: str
    mmsi: int = 0
    cluster_path: str = ""


def assemble_reference(ais_rows: Iterable[tuple], hkmeans_rows: Iterable[tuple]) -> list[ManifestRow]:
    """``assemble_ssl.assemble`` with a dict keyed by window_id: on a
    collision the ``ais`` row wins and inherits the other row's cluster path
    when it has none; a repeat within one input, or a collision of two rows
    with one source, raises ValidationError.  Returns rows in window id order."""
    merged: dict[int, ManifestRow] = {}
    for e in map(ManifestRow._make, hkmeans_rows):
        if e.window_id in merged:
            raise ValidationError(f"duplicate window_id {e.window_id} within the cluster-curated rows")
        merged[e.window_id] = e
    seen_ais: set[int] = set()
    for e in map(ManifestRow._make, ais_rows):
        if e.window_id in seen_ais:
            raise ValidationError(f"duplicate window_id {e.window_id} within the AIS-curated rows")
        seen_ais.add(e.window_id)
        other = merged.get(e.window_id)
        if other is None:
            merged[e.window_id] = e
            continue
        if e.source == other.source:
            raise ValidationError(f"window_id {e.window_id} appears in both inputs with source {e.source!r}")
        winner, loser = (e, other) if e.source == "ais" else (other, e)
        if not winner.cluster_path and loser.cluster_path:
            winner = winner._replace(cluster_path=loser.cluster_path)
        merged[e.window_id] = winner
    return [merged[wid] for wid in sorted(merged)]


# ---------------------------------------------------------------------------
# Text files read line by line
# ---------------------------------------------------------------------------

_SIDECAR_LINE = re.compile(r"(0|[1-9][0-9]{0,19}),([1-9][0-9]{0,8})")
_MANIFEST_LINE = re.compile(
    r"window_id=(0|[1-9][0-9]{0,19}) hydrophone_id=(\S*) recording_id=(\S*) offset_s=(0|[1-9][0-9]{0,17})"
    r" source=(\S*)(?: mmsi=([1-9][0-9]{0,8}))?(?: cluster_path=(\S+))?"
)


def read_sidecar_reference(path: str | Path) -> np.ndarray:
    """``geo_align.read_sidecar`` as a per-line regex loop: the ``PAIRS`` row
    of every line; a bad line other than a blank one is a ParseError at its
    line number."""
    window_ids, mmsis = [], []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not (line := line.rstrip("\n")):
                continue
            match = _SIDECAR_LINE.fullmatch(line)
            if not match or (window_id := int(match[1])) > U64_MAX:
                raise ParseError(f"bad sidecar line {line!r}", path=str(path), offset=lineno)
            window_ids.append(window_id)
            mmsis.append(int(match[2]))
    pairs = np.empty(len(window_ids), PAIRS)
    pairs["window_id"], pairs["mmsi"] = window_ids, mmsis
    return pairs


def read_manifest_reference(path: str | Path) -> CurationManifest:
    """``core_model.read_manifest`` as a per-line regex loop: a bad line, a
    value ``CurationManifest`` rejects and a repeated window id are each a
    ParseError at their line number; blank lines are skipped."""
    rows, linenos = [], []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not (line := line.rstrip("\n")):
                continue
            match = _MANIFEST_LINE.fullmatch(line)
            if not match or int(match[1]) > U64_MAX:
                raise ParseError(f"bad manifest line {line!r}", path=str(path), offset=lineno)
            wid, hid, rid, off, src, mmsi, cpath = match.groups()
            rows.append((int(wid), hid, rid, int(off), src, int(mmsi or 0), cpath or ""))
            linenos.append(lineno)
    rows = np.array(rows, dtype=MANIFEST)
    try:
        return CurationManifest(rows)
    except ValidationError:
        row, message = _manifest_fault(rows)
        raise ParseError(message, path=str(path), offset=linenos[row]) from None


# ---------------------------------------------------------------------------
# Synthetic vessel traffic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrafficSpec:
    """Per-ship window occurrences drawn from a bounded discrete power law."""

    ships: int
    alpha: float
    occ_min: int = 1
    occ_max: int = 1000
    seed: int = 0
    window_pool: int | None = None

    def __post_init__(self):
        if self.ships < 1:
            raise ValidationError("ships must be >= 1")
        if self.occ_min < 1 or self.occ_max < self.occ_min:
            raise ValidationError("need 1 <= occ_min <= occ_max")
        if self.alpha <= 0:
            raise ValidationError("alpha must be positive")


@dataclass(frozen=True)
class TrafficSample:
    """A traffic draw plus its ground truth.

    ``pulses`` fall inside the synthetic hydrophone's fence at mid-window
    times, so aligning them against ``deployment`` reproduces ``windows``
    exactly.  ``counts`` maps each mmsi to its number of distinct windows.
    """

    pulses: tuple[AisPulse, ...]
    windows: dict[int, set[int]]
    counts: dict[int, int]
    deployment: DeploymentConfig


_TRAFFIC_HYDROPHONE = "SYNTH0"
_TRAFFIC_RECORDING = "SR0"
_TRAFFIC_START = parse_utc("2023-01-01T00:00:00")
_TRAFFIC_MMSI_BASE = 200_000_000


def gen_traffic(spec: TrafficSpec) -> TrafficSample:
    rng = np.random.default_rng(spec.seed)
    values = np.arange(spec.occ_min, spec.occ_max + 1, dtype=np.float64)
    pmf = values ** (-spec.alpha)
    pmf /= pmf.sum()
    occurrences = rng.choice(values.astype(np.int64), size=spec.ships, p=pmf)

    pool = spec.window_pool if spec.window_pool is not None else 2 * int(occurrences.max())
    if pool < int(occurrences.max()):
        raise ValidationError(f"window_pool {pool} smaller than the largest occurrence {occurrences.max()}")

    deployment = DeploymentConfig(
        hydrophones=(
            Hydrophone(
                id=_TRAFFIC_HYDROPHONE,
                location=GeoPoint(0.0, 0.0),
                recordings=(
                    Recording(
                        id=_TRAFFIC_RECORDING,
                        start=_TRAFFIC_START,
                        duration_s=pool * WINDOW_S,
                        native_sample_rate_hz=64_000,
                    ),
                ),
            ),
        )
    )

    slot_ids = [window_id_of(_TRAFFIC_HYDROPHONE, _TRAFFIC_RECORDING, s * WINDOW_S) for s in range(pool)]
    pulses: list[AisPulse] = []
    windows: dict[int, set[int]] = {}
    counts: dict[int, int] = {}
    center = GeoPoint(0.0, 0.0)
    for ship in range(spec.ships):
        mmsi = _TRAFFIC_MMSI_BASE + ship
        c = int(occurrences[ship])
        slots = np.sort(rng.choice(pool, size=c, replace=False))
        counts[mmsi] = c
        for s in slots:
            wid = slot_ids[int(s)]
            pulses.append(AisPulse(mmsi=mmsi, time=_TRAFFIC_START + int(s) * WINDOW_S + 5, position=center))
            windows.setdefault(wid, set()).add(mmsi)
    return TrafficSample(pulses=tuple(pulses), windows=windows, counts=counts, deployment=deployment)


def tail_index_mle(occurrences, occ_min: int) -> float:
    """Continuous-approximation maximum-likelihood exponent of a discrete power law."""
    occ = np.asarray(occurrences, dtype=np.float64)
    occ = occ[occ >= occ_min]
    if len(occ) == 0:
        raise ValidationError("no occurrences at or above occ_min")
    return 1.0 + len(occ) / np.log(occ / (occ_min - 0.5)).sum()


# ---------------------------------------------------------------------------
# Batch k-means reference
# ---------------------------------------------------------------------------


def _sq_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    return ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


def parents_reference(levels) -> list[np.ndarray]:
    """Each cluster's nearest centroid one level up, by exhaustive float64
    explicit-difference distance; ``argmin`` sends ties to the lowest index."""
    return [
        _sq_distances(lower.centroids.astype(np.float64), upper.centroids.astype(np.float64)).argmin(axis=1)
        for lower, upper in zip(levels, levels[1:])
    ]


def _kmeans_pp(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    centroids[0] = points[rng.integers(n)]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            raise ValidationError(f"fewer than {k} distinct points for k-means++ seeding")
        centroids[j] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((points - centroids[j]) ** 2).sum(axis=1))
    return centroids


def lloyd_reference(
    points,
    k: int,
    seed: int = 0,
    init: np.ndarray | None = None,
    max_iter: int = 200,
    collect_trajectory: bool = False,
):
    """Classic batch k-means run to an assignment fixpoint (or ``max_iter``).

    Initialization is k-means++ unless explicit ``init`` centroids are given.
    The within-cluster squared-distance objective is asserted non-increasing
    at every iteration.  With ``collect_trajectory`` the per-iteration
    centroid states are returned alongside the result.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValidationError("points must be a 2-d array")
    n = len(points)
    if n < k:
        raise ValidationError(f"need at least k={k} points, got {n}")
    rng = np.random.default_rng(seed)
    if init is None:
        centroids = _kmeans_pp(points, k, rng)
    else:
        centroids = np.array(init, dtype=np.float64)
        if centroids.shape != (k, points.shape[1]):
            raise ValidationError(f"init shape {centroids.shape} != {(k, points.shape[1])}")

    trajectory = []
    prev_assign = None
    prev_obj = math.inf
    for _ in range(max_iter):
        d2 = _sq_distances(points, centroids)
        assign = d2.argmin(axis=1)
        obj = d2[np.arange(n), assign].sum()
        assert obj <= prev_obj * (1 + 1e-12) + 1e-12, "k-means objective increased"
        prev_obj = obj
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
        for c in range(k):
            members = points[assign == c]
            if len(members):
                centroids[c] = members.sum(axis=0) / len(members)
        if collect_trajectory:
            trajectory.append(centroids.copy())
    if collect_trajectory:
        return centroids, trajectory
    return centroids


def absorb_reference(centroids: np.ndarray, counts: np.ndarray, points: np.ndarray, idx: np.ndarray) -> None:
    """The running-mean update by ``np.add.at``: per-centroid sums that start at
    ``+0.0`` and add the points in order, then the same mean step as ``_absorb``."""
    sums = np.zeros_like(centroids)
    np.add.at(sums, idx, points)
    absorbed = np.bincount(idx, minlength=len(centroids))
    mask = absorbed > 0
    denom = (counts[mask] + absorbed[mask]).astype(np.float64)
    centroids[mask] = (centroids[mask] * counts[mask, None] + sums[mask]) / denom[:, None]
    counts += absorbed


def kmeans_objective(points, centroids) -> float:
    points = np.asarray(points, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    return float(_sq_distances(points, centroids).min(axis=1).sum())


# ---------------------------------------------------------------------------
# Quota water-filling, one unit at a time
# ---------------------------------------------------------------------------


def _deal(total: int, capacities: list[int]) -> list[int]:
    """Deal ``total`` units one at a time, in rounds over the children in
    index order, skipping a child once it holds its capacity."""
    assert total <= sum(capacities)
    dealt = [0] * len(capacities)
    while total:
        for i, capacity in enumerate(capacities):
            if total and dealt[i] < capacity:
                dealt[i] += 1
                total -= 1
    return dealt


def quotas_reference(level_ks, parents, leaf_populations, n_target: int) -> list[list[int]]:
    """``hsample.allocate_quotas``'s quotas, leaf level first, for a hierarchy
    with ``level_ks`` nodes per level and the child-to-parent maps
    ``parents``: the top level's nodes share ``min(n_target, population)``,
    and every node deals its quota down to its children, recursively."""
    # children[level][node]: the level-``level`` nodes under ``node`` of the level above.
    children = [
        [[child for child, parent in enumerate(pmap) if parent == node] for node in range(k)]
        for pmap, k in zip(parents, level_ks[1:])
    ]

    def population(level: int, node: int) -> int:
        if level == 0:
            return int(leaf_populations[node])
        return sum(population(level - 1, child) for child in children[level - 1][node])

    quotas = [[0] * k for k in level_ks]

    def fill(level: int, nodes: list[int], total: int) -> None:
        for node, quota in zip(nodes, _deal(total, [population(level, node) for node in nodes])):
            quotas[level][node] = quota
            if level:
                fill(level - 1, children[level - 1][node], quota)

    top = len(level_ks) - 1
    fill(top, list(range(level_ks[top])), min(n_target, sum(int(p) for p in leaf_populations)))
    return quotas


# ---------------------------------------------------------------------------
# Offline per-cluster selection reference
# ---------------------------------------------------------------------------


def exact_topn_per_cluster(
    window_ids,
    points,
    centroids,
    quotas,
    normalize: bool = False,
) -> dict[int, set[int]]:
    """For each cluster, the quota-many assigned ids closest to the centroid.

    Assignment is by squared Euclidean distance (lowest cluster index on
    ties); ranking within a cluster is by ``(distance, window_id)``
    ascending, so equal distances resolve to the smaller id.
    """
    window_ids = np.asarray(window_ids, dtype=np.uint64)
    points = np.asarray(points, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    if normalize:
        points = points / np.linalg.norm(points, axis=1, keepdims=True)
    d2 = _sq_distances(points, centroids)
    assign = d2.argmin(axis=1)
    dist = np.sqrt(d2[np.arange(len(points)), assign])

    selected: dict[int, set[int]] = {}
    for c in range(len(centroids)):
        quota = int(quotas[c]) if not isinstance(quotas, dict) else int(quotas.get(c, 0))
        members = np.flatnonzero(assign == c)
        if quota <= 0 or len(members) == 0:
            selected[c] = set()
            continue
        ranked = sorted((float(dist[i]), int(window_ids[i])) for i in members)
        selected[c] = {wid for _, wid in ranked[:quota]}
    return selected


def topn_per_leaf(leaf_idx, window_ids, distances, quotas) -> list[list[tuple[float, int]]]:
    """Per leaf, the ``quotas[leaf]`` smallest ``(distance, window_id)`` pairs,
    best first, after each ``(leaf, window_id)`` is reduced to its minimum
    distance over all records.  Plain Python over the whole record list: no
    streaming, no eviction, no arrival order."""
    best: dict[tuple[int, int], float] = {}
    for leaf, wid, dist in zip(leaf_idx, window_ids, distances):
        key = (int(leaf), int(wid))
        best[key] = min(float(dist), best.get(key, math.inf))
    per_leaf: list[list[tuple[float, int]]] = [[] for _ in quotas]
    for (leaf, wid), dist in best.items():
        per_leaf[leaf].append((dist, wid))
    return [sorted(pairs)[: int(quota)] for pairs, quota in zip(per_leaf, quotas)]


def by_leaf(state) -> list[list[tuple[float, int]]]:
    """A selection state's entries in :func:`topn_per_leaf`'s shape: per
    leaf, its ``(distance, window_id)`` pairs in held (best-first) order."""
    per_leaf: list[list[tuple[float, int]]] = [[] for _ in state.quotas]
    for leaf, wid, dist in state.held.tolist():
        per_leaf[leaf].append((dist, wid))
    return per_leaf


# ---------------------------------------------------------------------------
# Dense-grid knee reference
# ---------------------------------------------------------------------------


def kneedle_dense_oracle(curve, n_ranks: int, grid: int = 100_001) -> float:
    """Continuous knee location of a descending convex curve.

    ``curve`` maps a (fractional) rank in ``[0, n_ranks - 1]`` to a count.
    The curve is evaluated on a dense grid, both axes are normalized to
    [0, 1], and the knee is the grid point maximizing
    ``(1 - y_norm) - x_norm`` (the standard transform that turns the knee of
    a decreasing convex curve into a peak).  Returns the fractional rank.
    """
    if n_ranks < 3:
        raise ValidationError("need at least 3 ranks")
    r = np.linspace(0.0, n_ranks - 1.0, grid)
    y = np.asarray([curve(x) for x in r], dtype=np.float64)
    y_norm = (y - y.min()) / (y.max() - y.min())
    x_norm = r / (n_ranks - 1.0)
    diff = (1.0 - y_norm) - x_norm
    return float(r[int(diff.argmax())])
