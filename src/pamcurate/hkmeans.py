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

from .core_model import BinaryReader, write_atomic
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


def _rounding_slack(norms: np.ndarray, d: int) -> np.ndarray:
    """``8·γ_{d+4}·norms² + tiny`` for ``norms = ‖x‖ + max‖c‖``; see :func:`nearest_centroids`."""
    finfo = np.finfo(np.float64)
    mu = (d + 4) * finfo.eps / 2
    return 8.0 * (mu / (1.0 - mu)) * norms**2 + finfo.tiny


def nearest_centroids(points: np.ndarray, centroids: np.ndarray, block_elems: int = 1 << 20):
    """Nearest centroid per point by squared Euclidean distance.

    Returns ``(indices, squared_distances)``.  Ties go to the lowest
    centroid index.  Every distance is the float64 explicit-difference sum
    ``((x - c) ** 2).sum()``, bit for bit, but only the few centroids that
    can win are scored that way:

    1. Candidate pass.  One GEMM per block of rows gives the expanded form
       ``G = ‖x‖² + ‖c‖² − 2·x·c`` (``‖x‖²`` is left out: it is constant
       along a row).  With unit roundoff ``u`` and
       ``γ_m = m·u / (1 − m·u)``, every term of ``G`` carries at most
       ``d + 2`` roundings for any BLAS summation order or FMA use, so
       ``|G − D| ≤ γ_{d+2}·(‖x‖ + ‖c‖)²`` for the exact distance ``D``.
       The explicit-difference value ``E`` sums non-negative terms with
       ``d + 2`` roundings each, so ``|E − D| ≤ γ_{d+2}·D``, and ``D`` is
       at most ``(‖x‖ + ‖c‖)²`` too.  Hence ``|G − E| ≤ e`` with
       ``e = 2·γ_{d+2}·(‖x‖ + max‖c‖)²``, and every centroid of minimal
       ``E`` has ``G ≤ min G + 2e``.  The slack used is ``8·γ_{d+4}`` times
       the computed ``(‖x‖ + max‖c‖)²``, twice what is needed, so the
       rounding of the bound itself cannot cut it; the smallest normal
       float is added to cover underflow.  The bound assumes finite inputs
       far from overflow; non-finite ``G`` never fails the ``G > threshold``
       test, so such entries are always re-scored.
    2. Pick and re-score.  ``j = argmin(G)`` per row, and ``G[r, j]`` is
       the row's ``min``: a row holding a NaN has its first NaN at ``j`` and
       a NaN ``min``, and the only equal values that differ in bits, ``±0``,
       become the same once the positive slack is added.  So the threshold
       ``G[r, j] + slack`` is the one ``min`` gives, bit for bit.  Every
       centroid with ``G`` not above it is a candidate, and ``j`` always is
       one, since adding the slack never lowers ``G[r, j]``.  One count of
       the candidates in the block follows: if it equals the number of rows,
       ``j`` is each row's only candidate and so its pick, and only that
       centroid is re-scored.  Otherwise all of the block's candidates are
       re-scored and the pick is the lexicographic minimum of
       ``(distance, index)``, so the lowest index wins exact ties, which are
       always candidates.  Either way each row's sum runs in the same
       order as in a full ``(n, k, d)`` evaluation.  Indices and distances
       therefore equal the exhaustive explicit-difference search, whatever
       the BLAS or its thread count.

    ``block_elems`` bounds the ``rows × k`` GEMM block and the
    ``rows × d`` re-score of one candidate per row; it changes memory use
    only, never the result.
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
    slack = _rounding_slack(np.sqrt(np.einsum("ij,ij->i", points, points)) + np.sqrt(c2.max()), d)
    # Scaling by -2 is exact, so the GEMM yields -2·x·c directly.
    scaled = -2.0 * centroids.T
    best_idx = np.empty(n, dtype=np.int64)
    best_d2 = np.empty(n, dtype=np.float64)
    rows = max(1, block_elems // max(k, d))
    approx_buf = np.empty((min(rows, n), k))
    beyond_buf = np.empty((min(rows, n), k), dtype=bool)
    for i0 in range(0, n, rows):
        pts = points[i0 : i0 + rows]
        m = len(pts)
        approx = np.matmul(pts, scaled, out=approx_buf[:m])
        approx += c2
        j = approx.argmin(axis=1)
        threshold = approx[np.arange(m), j] + slack[i0 : i0 + m]
        beyond = np.greater(approx, threshold[:, None], out=beyond_buf[:m])
        tied = m * k - np.count_nonzero(beyond) > m
        row, col = np.divmod(np.flatnonzero(~beyond), k) if tied else (slice(None), j)
        # The gathered operand is C-contiguous, so the difference is too,
        # whatever the layout of ``points``, and each row sums in the order
        # of the exhaustive ``(n, k, d)`` search.
        d2 = ((pts[row] - centroids[col]) ** 2).sum(axis=1)
        if tied:
            # Stable, so equal (row, distance) pairs keep ascending centroid
            # order and the first entry of each row is its pick.
            pick = np.lexsort((d2, row))[np.searchsorted(row, np.arange(m))]
            col, d2 = col[pick], d2[pick]
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, CentroidSet):
            return NotImplemented
        return np.array_equal(self.centroids, other.centroids) and np.array_equal(self.counts, other.counts)


@dataclass(frozen=True)
class ClusterHierarchy:
    """Centroid sets level 1..L (finest first) and the child-to-parent maps they imply.

    ``parents[i]`` maps each level-(i+1) cluster to its nearest level-(i+2)
    centroid, ties to the lowest index; construction computes it.
    """

    levels: tuple[CentroidSet, ...]
    parents: tuple[np.ndarray, ...] = field(init=False, compare=False)
    _paths: np.ndarray = field(init=False, repr=False, compare=False)

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
        # Root-to-leaf index paths, one row per leaf.
        chain = [np.arange(levels[0].k, dtype=np.int64)]
        for pmap in parents:
            chain.append(pmap.astype(np.int64)[chain[-1]])
        object.__setattr__(self, "_paths", np.stack(chain[::-1], axis=1))

    @property
    def dim(self) -> int:
        return self.levels[0].dim

    @property
    def leaf_count(self) -> int:
        return self.levels[0].k

    def path_of(self, leaf: int) -> tuple[int, ...]:
        """Cluster indices root -> leaf for one finest-level cluster."""
        return tuple(int(c) for c in self._paths[leaf])


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
    centres and the generator state equal that loop's bit for bit.  As in
    :func:`nearest_centroids`, one mat-vec gives ``G`` for a new centre, and
    only rows with ``G`` within the rounding slack of their ``d2`` (centres
    are rows, so ``max‖x‖`` bounds ``‖c‖``) are re-scored exactly.
    """
    n, d = points.shape
    if n < k:
        raise DegenerateFitError(f"initialization buffer holds {n} points, need >= {k}")
    x2 = np.einsum("ij,ij->i", points, points)
    floor = x2 - _rounding_slack(np.sqrt(x2) + np.sqrt(x2.max()), d)
    centroids = np.empty((k, d), dtype=np.float64)
    d2 = np.full(n, np.inf)
    cdf = np.empty(n)
    pick = rng.integers(n)
    for j in range(k):
        c = centroids[j] = points[pick]
        if j == k - 1:
            break
        # Scaling by -2 is exact; rows with G − slack > d2 keep their d2.
        g = points @ (-2.0 * c)
        g += floor + x2[pick]
        rows = np.flatnonzero(~(g > d2))
        d2[rows] = np.minimum(d2[rows], ((points[rows] - c) ** 2).sum(axis=1))
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


def minibatch_fit(
    source,
    k: int,
    config: FitConfig,
    init: np.ndarray | None = None,
) -> CentroidSet:
    """Streaming k-means over the :func:`_batches` of ``source``: per batch,
    assign to the nearest centroid, then move each centroid to the running
    mean of the points it has absorbed.

    Per-centroid absorption counts reset at the start of every pass, so a
    pass behaves as one incremental Lloyd step over the stream; with
    ``batch_size`` covering the whole stream each pass IS an exact Lloyd
    iteration.  Unless ``init`` is given, centroids are seeded by k-means++
    over the first ``max(10k, batch_size)`` rows of the first pass, whose
    batches are then fitted like the rest.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    rng = np.random.default_rng(config.seed)
    centroids: np.ndarray | None = None
    if init is not None:
        centroids = np.array(init, dtype=np.float64)
        if centroids.ndim != 2 or centroids.shape[0] != k:
            raise ValidationError(f"init must have shape (k={k}, dim), got {centroids.shape}")

    for pass_idx in range(config.passes):
        batches = map(_normalize_rows, _batches(source, config.batch_size))
        if centroids is None:
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
    rows to ``counts``; an empty cluster stays put.  ``add.at`` sums from ``+0.0``
    in point order, so with zero counts a mean is ``sum(axis=0) / count`` bit for bit."""
    sums = np.zeros_like(centroids)
    np.add.at(sums, idx, points)
    absorbed = np.bincount(idx, minlength=len(centroids))
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
