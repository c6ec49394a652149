"""Online hierarchical k-means over embedding streams.

The fit operates on L2-normalized vectors with squared-Euclidean
assignments (the ordering is equivalent to cosine similarity on the raw
vectors).  The finest level is trained with a streaming mini-batch fit
wrapped in resampling rounds that rebalance long-tailed data; coarser
levels cluster the centroids of the level below with plain batch k-means,
which is cheap because those inputs are small.

Determinism contract: a fixed seed plus a fixed stream order yields a
bit-identical hierarchy.  All tie-breaks resolve to the lowest cluster
index.
"""

from __future__ import annotations

import itertools
import logging
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from .core_model import BinaryReader, fields_equal, write_atomic
from .errors import DegenerateFitError, ValidationError

logger = logging.getLogger(__name__)

MODEL_MAGIC = b"PAMHKM01"

# Cluster counts of the full-corpus deployment, finest level first.
PRODUCTION_LEVEL_KS = (6000, 400, 40, 10)


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        raise ValidationError("vectors must be finite")
    norms = np.sqrt((m * m).sum(axis=1))
    zero = np.flatnonzero(norms == 0.0)
    if len(zero):
        raise ValidationError(f"cannot normalize zero vector at row {int(zero[0])}")
    return m / norms[:, None]


def _rounding_slack(x_norms: np.ndarray, c_norm: float, roundings: int) -> np.ndarray:
    """``γ_roundings·M·(2‖x‖ + M) + 2u·(‖x‖ + M)² + 2⁻¹²⁵`` for ``x_norms = ‖x‖``,
    ``c_norm = M`` and float32's ``u = 2⁻²⁴``; ``inf`` where ``(‖x‖ + M)² > 2¹²⁷``
    or ``γ ≥ 1/4``.  See :func:`nearest_centroids`."""
    mu = roundings * 2.0**-24
    gamma = mu / (1.0 - mu) if mu < 0.2 else np.inf
    squares = (x_norms + c_norm) ** 2
    slack = gamma * c_norm * (2.0 * x_norms + c_norm) + 2.0**-23 * squares + 2.0**-125
    slack[~(squares <= 2.0**127)] = np.inf
    return slack


def nearest_centroids(points: np.ndarray, centroids: np.ndarray, block_elems: int = 1 << 20):
    """Nearest centroid per point by squared Euclidean distance.

    Returns ``(indices, squared_distances)``.  Ties go to the lowest
    centroid index.  Every distance is the float64 explicit-difference sum
    ``((x - c) ** 2).sum()``, bit for bit, but only the few centroids that
    can win are scored that way:

    1. Candidate screen, in float32.  Each block of rows is rounded to
       float32 in a buffer whose rows end in 1, and one float32 GEMM with
       ``[-2c; ‖c‖²]`` (``‖c‖²`` summed in float64, then rounded) gives
       ``Ĝ``, an estimate of ``G = ‖c‖² − 2·x·c``, the exact distance ``D``
       less the row constant ``‖x‖²``.  Let ``u = 2⁻²⁴``,
       ``γ_m = m·u / (1 − m·u)``, ``M = max‖c‖``, ``N = ‖x‖ + M`` and
       ``K = M·(2‖x‖ + M)``.  Rounding the inputs costs each ``x_i·c_i`` two
       roundings and ``‖c‖²`` one (its float64 sum errs by less than one
       more); the GEMM's ``d + 1`` terms add at most ``d + 1`` each, in any
       summation order, FMA or not.  So, by Cauchy–Schwarz,
       ``|Ĝ − G| ≤ γ_{d+3}·(2·Σ|x_i·c_i| + ‖c‖²) + U ≤ γ_{d+3}·K + U``, where
       ``U`` bounds underflow: each rounding into the subnormal range may err
       by ``2⁻¹⁵⁰`` more (sums there are exact), so
       ``U < 1.25·(d + 2 + 2·√d·N)·2⁻¹⁵⁰`` and ``2U ≤ u·N² + 2⁻¹²⁶``.  The
       float64 ``E`` is within ``2⁻²⁸·u·N²`` of ``D``, so every centroid of
       minimal ``E`` has ``Ĝ`` within ``2·γ_{d+3}·K + 2U`` (plus that) of
       ``min Ĝ``.  The slack ``s = γ_{2d+10}·K + 2u·N² + 2⁻¹²⁵`` is rounded
       to float32, and the threshold ``fl(min Ĝ + s)``, as
       ``|min Ĝ| ≤ 1.25·K + U``, loses at most ``u·(1.25·K + U + 2s)``.
       Since ``γ_{2d+10} ≥ 2·γ_{d+3} + 4u``, the ``K`` term covers all ``K``
       terms, ``2u·N²`` the ``N²`` ones and ``2⁻¹²⁵`` the underflow, while
       ``γ_{2d+10} < 1/4`` and float32 does not overflow: every product,
       partial sum and threshold stays below ``1.75·N²``, so ``N² ≤ 2¹²⁷``
       suffices.  Past that, or for ``d`` past 1.6 million, the slack is
       ``inf``, the threshold ``inf`` or NaN, which no ``Ĝ`` is above, and
       every centroid of the row is a candidate.
    2. Pick and tie test.  ``j = argmin(Ĝ)`` per row, and ``Ĝ[r, j]`` is
       the row's ``min``: a row holding a NaN has its first NaN at ``j`` and
       a NaN ``min``, and the only equal values that differ in bits, ``±0``,
       become the same once the positive slack is added.  So the threshold
       ``Ĝ[r, j] + s`` is the one ``min`` gives, bit for bit.  Every
       centroid with ``Ĝ`` not above it is a candidate, and ``j`` always is
       one, since adding the slack never lowers ``Ĝ[r, j]``.  A second
       ``argmin``, with ``Ĝ[r, j]`` set to ``+inf``, gives the row's next
       value, and the row is tied iff that value is not above the
       threshold.  A row that is not tied picks ``j``, which alone is
       re-scored.  A tied row gets ``Ĝ[r, j]`` back, and all of its
       candidates are re-scored; the pick is the lexicographic minimum of
       ``(distance, index)``, so the lowest index wins exact ties, which
       are always candidates.  Either way each row's sum runs in the same
       order as in a full ``(n, k, d)`` evaluation.  Indices and distances
       therefore equal the exhaustive explicit-difference search, whatever
       the BLAS or its thread count.

    ``block_elems`` bounds the ``rows × k`` GEMM block, the ``rows × (d + 1)``
    float32 copy of the points and the ``rows × d`` re-score of one
    candidate per row; it changes memory use only, never the result.
    """
    points = np.asarray(points, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    n, d = points.shape
    k = len(centroids)
    if centroids.shape[1] != d:
        raise ValidationError(f"dim mismatch: points have {d}, centroids have {centroids.shape[1]}")
    if k == 0:
        raise ValidationError("need at least one centroid")
    c2 = np.einsum("ij,ij->i", centroids, centroids)
    x_norms = np.sqrt(np.einsum("ij,ij->i", points, points))
    slack = _rounding_slack(x_norms, np.sqrt(c2.max()), 2 * d + 10).astype(np.float32)
    best_idx = np.empty(n, dtype=np.int64)
    best_d2 = np.empty(n, dtype=np.float64)
    rows = max(1, block_elems // max(k, d))
    approx_buf = np.empty((min(rows, n), k), dtype=np.float32)
    pts_buf = np.empty((min(rows, n), d + 1), dtype=np.float32)
    pts_buf[:, d] = 1.0
    # Overflow and inf - inf only widen the screen (step 1), so they stay silent.
    with np.errstate(over="ignore", invalid="ignore"):
        # Scaling by -2 is exact; the last row meets the 1s of ``pts_buf``, adding c2.
        scaled = np.column_stack((-2.0 * centroids, c2)).T.astype(np.float32)
        for i0 in range(0, n, rows):
            pts = points[i0 : i0 + rows]
            m = len(pts)
            pts_buf[:m, :d] = pts
            approx = np.matmul(pts_buf[:m], scaled, out=approx_buf[:m])
            r = np.arange(m)
            col = approx.argmin(axis=1)
            best = approx[r, col]
            threshold = best + slack[i0 : i0 + m]
            approx[r, col] = np.inf
            tied = np.flatnonzero(~(approx[r, approx.argmin(axis=1)] > threshold))
            # The gathered operand is C-contiguous, so the difference is too,
            # whatever the layout of ``points``, and each row sums in the order
            # of the exhaustive ``(n, k, d)`` search.
            d2 = ((pts - centroids[col]) ** 2).sum(axis=1)
            if len(tied):
                approx[tied, col[tied]] = best[tied]
                row, cand = np.nonzero(~(approx[tied] > threshold[tied, None]))
                cand_d2 = ((pts[tied[row]] - centroids[cand]) ** 2).sum(axis=1)
                # Stable, so equal (row, distance) pairs keep ascending centroid
                # order and the first entry of each row is its pick.
                pick = np.lexsort((cand_d2, row))[np.searchsorted(row, np.arange(len(tied)))]
                col[tied], d2[tied] = cand[pick], cand_d2[pick]
            best_idx[i0 : i0 + m] = col
            best_d2[i0 : i0 + m] = d2
    return best_idx, best_d2


# ---------------------------------------------------------------------------
# Model types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CentroidSet:
    """Centroids of one hierarchy level with per-centroid absorption counts.

    Centroids are stored float32 (the on-disk precision); fitting happens in
    float64 and quantizes once on construction.
    """

    centroids: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        cents = np.ascontiguousarray(np.asarray(self.centroids, dtype=np.float32))
        counts = np.ascontiguousarray(np.asarray(self.counts, dtype=np.uint64))
        if cents.ndim != 2 or cents.shape[0] < 1:
            raise ValidationError(f"centroids must be a non-empty 2-d array, got shape {cents.shape}")
        if not np.all(np.isfinite(cents)):
            raise ValidationError("centroids must be finite")
        if counts.shape != (cents.shape[0],):
            raise ValidationError(f"counts shape {counts.shape} does not match k={cents.shape[0]}")
        object.__setattr__(self, "centroids", cents)
        object.__setattr__(self, "counts", counts)

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]

    __eq__ = fields_equal


@dataclass(frozen=True)
class ClusterHierarchy:
    """Centroid sets level 1..L (finest first) and the child-to-parent maps they imply.

    ``parents[i]`` maps each level-(i+1) cluster to its nearest level-(i+2)
    centroid, ties to the lowest index; construction computes it.
    """

    levels: tuple[CentroidSet, ...]
    parents: tuple[np.ndarray, ...] = field(init=False, compare=False)

    def __post_init__(self):
        levels = tuple(self.levels)
        if not levels:
            raise ValidationError("hierarchy needs at least one level")
        if any(cs.dim != levels[0].dim for cs in levels):
            raise ValidationError("all levels must share one dim")
        ks = [cs.k for cs in levels]
        if any(a <= b for a, b in zip(ks, ks[1:])):
            raise ValidationError(f"cluster counts must strictly decrease upward, got {ks}")
        parents = tuple(
            nearest_centroids(lower.centroids, upper.centroids)[0].astype(np.uint32)
            for lower, upper in zip(levels, levels[1:])
        )
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "parents", parents)

    @property
    def dim(self) -> int:
        return self.levels[0].dim

    @property
    def leaf_count(self) -> int:
        return self.levels[0].k


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the streaming fit; ``level_ks`` is finest-first."""

    level_ks: tuple[int, ...] = ()
    batch_size: int = 4096
    passes: int = 2
    resample_rounds: int = 3
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "level_ks", tuple(int(k) for k in self.level_ks))
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if self.passes < 1:
            raise ValidationError("passes must be >= 1")
        if self.resample_rounds < 0:
            raise ValidationError("resample_rounds must be >= 0")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.level_ks:
            if any(k < 1 for k in self.level_ks):
                raise ValidationError("all level_ks must be >= 1")
            if any(a <= b for a, b in zip(self.level_ks, self.level_ks[1:])):
                raise ValidationError(f"level_ks must strictly decrease, got {self.level_ks}")


# ---------------------------------------------------------------------------
# Streaming plumbing
# ---------------------------------------------------------------------------


def _batches(source, batch_size: int) -> Iterator[np.ndarray]:
    """One pass over a point source in batches of ``batch_size`` rows (the
    last may be shorter), wherever its chunks end; every fit pass reads its
    source here.  A source is a 2-d array, or a zero-arg callable, called
    once per pass, that returns 2-d chunks of one dim; empty ones are skipped."""
    pending: list[np.ndarray] = []
    count = 0
    dim = None
    for chunk in source() if callable(source) else (source,):
        chunk = np.asarray(chunk)
        if chunk.ndim != 2:
            raise ValidationError(f"point chunks must be 2-d arrays, got shape {chunk.shape}")
        if not len(chunk):
            continue
        dim = chunk.shape[1] if dim is None else dim
        if chunk.shape[1] != dim:
            raise ValidationError(f"chunk dim {chunk.shape[1]} != {dim}")
        pending.append(chunk)
        count += len(chunk)
        while count >= batch_size:
            buf = pending[0] if len(pending) == 1 else np.concatenate(pending)
            yield buf[:batch_size]
            rest = buf[batch_size:]
            pending = [rest] if len(rest) else []
            count = len(rest)
    if count:
        yield pending[0] if len(pending) == 1 else np.concatenate(pending)


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Exact k-means++ seeding over a buffered prefix.

    Each draw is ``Generator.choice(n, p=d2 / d2.sum())`` inlined, so the
    centres and the generator state equal that loop's bit for bit, and
    ``d2``, each row's distance to its nearest centre, is the float64
    explicit-difference value ``E``.  A new centre ``c`` changes only the
    rows with ``E < d2``; a float32 screen finds a superset of them, which
    alone is re-scored, in place.  The prefix is rounded to float32 once,
    transposed, over a row of 1s, and one float32 mat-vec with
    ``[-2c; ‖c‖²]`` gives each row ``Ĝ``.  As in :func:`nearest_centroids`
    with ``M = max‖x‖`` (centres are rows), ``Ĝ`` errs by at most
    ``γ_{d+3}·K + U``, ``U ≤ u·N²/2 + 2⁻¹²⁶``, and ``E`` by ``2⁻²⁸·u·N²``.
    A row is re-scored iff ``Ĝ`` is not above its float32 bar
    ``fl(d2 − ‖x‖² + s)``, ``s = γ_{d+6}·K + 2u·N² + 2⁻¹²⁵``, which changes
    only with its ``d2``.  Only one estimate errs here, and as
    ``|d2 − ‖x‖²| ≤ N²``, the bar's roundings cost below ``u·(1.1·N² + s)``,
    so ``2u·N²`` and ``γ_{d+6} ≥ γ_{d+3} + 3u`` cover every term.  A bar
    starts at ``inf`` and stays ``inf`` where ``N² > 2¹²⁷``: float32 may
    overflow there, so such rows are always re-scored.
    """
    n, d = points.shape
    if n < k:
        raise DegenerateFitError(f"initialization buffer holds {n} points, need >= {k}")
    x2 = np.einsum("ij,ij->i", points, points)
    offset = _rounding_slack(np.sqrt(x2), np.sqrt(x2.max()), d + 6) - x2
    # Transposed, so the mat-vec runs along the rows; the last row of 1s
    # meets each centre's ``‖c‖²``.
    prefix = np.empty((d + 1, n), dtype=np.float32)
    prefix[d] = 1.0
    centre = np.empty(d + 1, dtype=np.float32)
    g = np.empty(n, dtype=np.float32)
    centroids = np.empty((k, d), dtype=np.float64)
    d2 = np.full(n, np.inf)
    bar = np.full(n, np.inf, dtype=np.float32)
    cdf = np.empty(n)
    pick = rng.integers(n)
    # Overflow and inf - inf only widen the screen: rows with N² > 2¹²⁷ are
    # always re-scored, so they stay silent.
    with np.errstate(over="ignore", invalid="ignore"):
        # Blocks of rows keep the transposing reads in cache.
        for i in range(0, n, 128):
            prefix[:d, i : i + 128] = points[i : i + 128].T
        for j in range(k):
            c = centroids[j] = points[pick]
            if j == k - 1:
                break
            centre[:d] = -2.0 * c  # scaling by -2 is exact
            centre[d] = x2[pick]
            np.matmul(centre, prefix, out=g)
            rows = np.flatnonzero(~(g > bar))
            d2[rows] = rescored = np.minimum(d2[rows], ((points[rows] - c) ** 2).sum(axis=1))
            bar[rows] = rescored + offset[rows]
            total = d2.sum()
            if total <= 0.0:
                raise DegenerateFitError(f"fewer than {k} distinct points in initialization buffer")
            np.divide(d2, total, out=cdf)
            np.cumsum(cdf, out=cdf)
            cdf /= cdf[-1]  # as choice does: the last entry is near 1, not always 1
            pick = cdf.searchsorted(rng.random(), side="right")
    return centroids


# ---------------------------------------------------------------------------
# Fits
# ---------------------------------------------------------------------------


def minibatch_fit(source, k: int, config: FitConfig) -> CentroidSet:
    """Streaming k-means over the :func:`_batches` of ``source``: per batch,
    assign to the nearest centroid, then move each centroid to the running
    mean of the points it has absorbed.

    Per-centroid absorption counts reset at the start of every pass, so a
    pass behaves as one incremental Lloyd step over the stream; with
    ``batch_size`` covering the whole stream each pass IS an exact Lloyd
    iteration.  Centroids are seeded by k-means++ over the first
    ``max(10k, batch_size)`` rows of the first pass, whose batches are then
    fitted like the rest.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    rng = np.random.default_rng(config.seed)
    for pass_idx in range(config.passes):
        batches = map(_normalize_rows, _batches(source, config.batch_size))
        if pass_idx == 0:
            prefix_rows = max(10 * k, config.batch_size)
            head = list(itertools.islice(batches, -(-prefix_rows // config.batch_size)))
            rows = sum(map(len, head))
            if rows < k:
                raise DegenerateFitError(f"stream yielded {rows} points, need >= {k}")
            centroids = _kmeans_pp_init(np.concatenate(head)[:prefix_rows], k, rng)
            batches = itertools.chain(head, batches)

        counts = np.zeros(k, dtype=np.int64)
        for batch in batches:
            _absorb(centroids, counts, batch, nearest_centroids(batch, centroids)[0])
        if not counts.any():
            raise DegenerateFitError(f"pass {pass_idx + 1} of {config.passes}: stream yielded no points")
        logger.debug("minibatch_fit pass %d/%d: %d absorptions", pass_idx + 1, config.passes, counts.sum())

    return CentroidSet(centroids=centroids.astype(np.float32), counts=counts.astype(np.uint64))


def resample_fit(source, k: int, config: FitConfig) -> CentroidSet:
    """Mini-batch fit wrapped in cluster-balanced resampling rounds.

    After the initial fit, each round assigns the full stream to the current
    centroids, draws an equal per-cluster quota ``ceil(M/k)`` of points
    (without replacement inside clusters that are large enough, with
    replacement otherwise), and refits from scratch on that rebalanced
    multiset.  The fresh k-means++ seeding is what lets rare modes win
    centroids: on the balanced resample they carry the weight that the raw
    long-tailed stream denies them.
    """
    cs = minibatch_fit(source, k, config)
    for round_idx in range(1, config.resample_rounds + 1):
        centroids = cs.centroids.astype(np.float64)
        parts = [nearest_centroids(_normalize_rows(b), centroids)[0] for b in _batches(source, config.batch_size)]
        if not parts:
            raise DegenerateFitError(f"resample round {round_idx}: stream yielded no points")
        assignment = np.concatenate(parts)
        total = len(assignment)
        quota = -(-total // k)
        # Stream positions grouped by cluster, ascending within each cluster.
        members = np.argsort(assignment, kind="stable")
        sizes = np.bincount(assignment, minlength=k)
        starts = np.cumsum(sizes) - sizes
        rng = np.random.default_rng((config.seed, round_idx))
        chosen = []
        for c in np.flatnonzero(sizes):
            count = int(sizes[c])
            picks = rng.choice(count, size=quota, replace=count < quota)
            chosen.append(members[starts[c] + picks])
        multiplicity = np.bincount(np.concatenate(chosen), minlength=total)

        def resampled(mult=multiplicity, size=config.batch_size):
            for i, batch in enumerate(_batches(source, size)):
                yield np.repeat(batch, mult[i * size : i * size + len(batch)], axis=0)

        round_seed = int(np.random.SeedSequence((config.seed, round_idx)).generate_state(1)[0])
        cs = minibatch_fit(resampled, k, replace(config, seed=round_seed))
        logger.debug("resample_fit round %d/%d done", round_idx, config.resample_rounds)
    return cs


def _absorb(centroids: np.ndarray, counts: np.ndarray, points: np.ndarray, idx: np.ndarray) -> None:
    """Move each centroid in place to the mean of its ``counts`` earlier points
    and its rows of ``points`` (``idx`` names each row's centroid), then add those
    rows to ``counts``; an empty cluster stays put.  ``bincount`` sums each (centroid,
    column) bin from ``+0.0`` in point order, so with zero counts a mean is
    ``sum(axis=0) / count`` bit for bit."""
    k, d = centroids.shape
    sums = np.bincount((idx[:, None] * d + np.arange(d)).ravel(), weights=points.ravel(), minlength=k * d).reshape(k, d)
    absorbed = np.bincount(idx, minlength=k)
    mask = absorbed > 0
    denom = (counts[mask] + absorbed[mask]).astype(np.float64)
    centroids[mask] = (centroids[mask] * counts[mask, None] + sums[mask]) / denom[:, None]
    counts += absorbed


def _lloyd(points: np.ndarray, k: int, init: np.ndarray, max_iter: int = 200):
    """Batch k-means to an assignment fixpoint, whose last update recomputes the same means; for the upper levels."""
    points = np.asarray(points, dtype=np.float64)
    centroids = np.array(init, dtype=np.float64)
    assign = None
    for _ in range(max_iter):
        idx, _ = nearest_centroids(points, centroids)
        counts = np.zeros(k, dtype=np.int64)
        _absorb(centroids, counts, points, idx)
        if assign is not None and np.array_equal(idx, assign):
            break
        assign = idx
    return centroids, counts


def build_hierarchy(source, config: FitConfig) -> ClusterHierarchy:
    """Fit all levels: streaming resample fit at the bottom, batch k-means above."""
    if not config.level_ks:
        raise ValidationError("config.level_ks must name at least one level")
    sets: list[CentroidSet] = []
    for level, k in enumerate(config.level_ks, start=1):
        try:
            if not sets:
                sets.append(resample_fit(source, k, config))
                continue
            points = sets[-1].centroids.astype(np.float64)
            init = _kmeans_pp_init(points, k, np.random.default_rng((config.seed, 77, level)))
            centroids, counts = _lloyd(points, k, init)
            sets.append(CentroidSet(centroids=centroids.astype(np.float32), counts=counts.astype(np.uint64)))
        except (ValidationError, DegenerateFitError) as exc:
            raise type(exc)(f"level {level}: {exc}") from None
    return ClusterHierarchy(levels=tuple(sets))


# ---------------------------------------------------------------------------
# Assignment
# ---------------------------------------------------------------------------


def assign_batch(vectors, hierarchy: ClusterHierarchy):
    """Leaf index and Euclidean leaf distance for each (normalized) vector."""
    v = np.asarray(vectors, dtype=np.float64)
    if v.ndim != 2:
        raise ValidationError(f"expected a 2-d array of vectors, got shape {v.shape}")
    if v.shape[1] != hierarchy.dim:
        raise ValidationError(f"vector dim {v.shape[1]} != model dim {hierarchy.dim}")
    normalized = _normalize_rows(v)
    idx, d2 = nearest_centroids(normalized, hierarchy.levels[0].centroids.astype(np.float64))
    return idx, np.sqrt(d2)


# ---------------------------------------------------------------------------
# Model file
# ---------------------------------------------------------------------------


def save_model(hierarchy: ClusterHierarchy, path: str | Path) -> None:
    """Binary layout: magic, u32 level count, u32 dim, per level
    ``u32 k + k*u64 counts + k*dim*f32 centroids``, then the parent arrays
    (``k_l * u32`` each), all little-endian."""
    parts = [MODEL_MAGIC, struct.pack("<II", len(hierarchy.levels), hierarchy.dim)]
    for cs in hierarchy.levels:
        parts += [struct.pack("<I", cs.k), cs.counts.astype("<u8").tobytes(), cs.centroids.astype("<f4").tobytes()]
    parts += [pmap.astype("<u4").tobytes() for pmap in hierarchy.parents]
    write_atomic(path, b"".join(parts))


def load_model(path: str | Path) -> ClusterHierarchy:
    """Read a model file; every fault is a :class:`ParseError` located as README's formats table says."""
    reader = BinaryReader(path, MODEL_MAGIC)
    level_count, dim = reader.unpack("II", "header")
    if level_count < 1 or dim < 1:
        raise reader.error(f"bad model header: levels={level_count} dim={dim}")
    levels = []
    for level in range(1, level_count + 1):
        (k,) = reader.unpack("I", f"level {level} header")
        if not 0 < k < (levels[-1].k if levels else 2**32):
            raise reader.error(f"level {level} has k={k}; k must be positive and below the finer level's")
        counts = reader.array("<u8", k, f"level {level} count").copy()
        centroids = reader.array("<f4", k * dim, f"level {level} centroid value").reshape(k, dim).copy()
        try:
            levels.append(CentroidSet(centroids=centroids, counts=counts))
        except ValidationError:
            row = int(np.flatnonzero(~np.isfinite(centroids).all(axis=1))[0])
            raise reader.error(f"level {level} centroid {row} is not finite", reader.start + 4 * dim * row) from None
    at = reader.pos
    stored = [reader.array("<u4", cs.k, f"parent map {i} entry") for i, cs in enumerate(levels[:-1])]
    reader.end()
    hierarchy = ClusterHierarchy(levels=tuple(levels))
    for i, (pmap, expected) in enumerate(zip(stored, hierarchy.parents)):
        if not np.array_equal(pmap, expected):
            raise reader.error(f"invalid model: parent map {i} inconsistent with nearest-centroid assignment", at)
    return hierarchy
