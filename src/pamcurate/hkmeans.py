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

from .errors import DegenerateFitError, ParseError, ValidationError

logger = logging.getLogger(__name__)

MODEL_MAGIC = b"PAMHKM01"

# Cluster counts of the full-corpus deployment, finest level first.
PRODUCTION_LEVEL_KS = (6000, 400, 40, 10)


def normalize(vector) -> np.ndarray:
    """Scale a nonzero vector to unit L2 norm (float64)."""
    v = np.asarray(vector, dtype=np.float64)
    if v.ndim != 1:
        raise ValidationError(f"expected a 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError("vector must be finite")
    norm = np.sqrt((v * v).sum())
    if norm == 0.0:
        raise ValidationError("cannot normalize a zero vector")
    return v / norm


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        raise ValidationError("vectors must be finite")
    norms = np.sqrt((m * m).sum(axis=1))
    zero = np.flatnonzero(norms == 0.0)
    if len(zero):
        raise ValidationError(f"cannot normalize zero vector at row {int(zero[0])}")
    return m / norms[:, None]


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
    2. Re-score.  The candidates are gathered into one contiguous 2-d
       array and scored with the explicit-difference sum, which reduces each
       row in the same order as a full ``(n, k, d)`` evaluation.  All exact
       ties of the minimum are candidates, and the pick is the
       lexicographic minimum of ``(distance, index)``, so the lowest index
       wins them.  Indices and distances therefore equal the exhaustive
       explicit-difference search, whatever the BLAS or its thread count.

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
    finfo = np.finfo(np.float64)
    mu = (d + 4) * finfo.eps / 2
    gamma = mu / (1.0 - mu)
    c2 = np.einsum("ij,ij->i", centroids, centroids)
    norms = np.sqrt(np.einsum("ij,ij->i", points, points)) + np.sqrt(c2.max())
    slack = 8.0 * gamma * norms**2 + finfo.tiny
    # Scaling by -2 is exact, so the GEMM yields -2·x·c directly.
    scaled = -2.0 * centroids.T
    best_idx = np.empty(n, dtype=np.int64)
    best_d2 = np.empty(n, dtype=np.float64)
    rows = max(1, block_elems // max(k, d))
    for i0 in range(0, n, rows):
        pts = points[i0 : i0 + rows]
        approx = pts @ scaled
        approx += c2
        threshold = approx.min(axis=1) + slack[i0 : i0 + rows]
        row, col = np.divmod(np.flatnonzero(~(approx > threshold[:, None])), k)
        d2 = ((pts[row] - centroids[col]) ** 2).sum(axis=1)
        # Stable, so equal (row, distance) pairs keep ascending centroid
        # order and the first entry of each row is its pick.
        order = np.lexsort((d2, row))
        pick = order[np.searchsorted(row, np.arange(len(pts)))]
        best_idx[i0 : i0 + len(pts)] = col[pick]
        best_d2[i0 : i0 + len(pts)] = d2[pick]
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

    level: int
    centroids: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        if self.level < 1:
            raise ValidationError(f"level must be >= 1, got {self.level}")
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
        return (
            self.level == other.level
            and np.array_equal(self.centroids, other.centroids)
            and np.array_equal(self.counts, other.counts)
        )


@dataclass(frozen=True)
class ClusterHierarchy:
    """Centroid sets level 1..L (finest first) plus child-to-parent maps.

    ``parents[i]`` maps each level-(i+1) cluster to its nearest level-(i+2)
    centroid; construction re-derives and verifies that consistency.
    """

    levels: tuple[CentroidSet, ...]
    parents: tuple[np.ndarray, ...]
    _paths: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        levels = tuple(self.levels)
        parents = tuple(np.ascontiguousarray(np.asarray(p, dtype=np.uint32)) for p in self.parents)
        if not levels:
            raise ValidationError("hierarchy needs at least one level")
        for i, cs in enumerate(levels):
            if cs.level != i + 1:
                raise ValidationError(f"level field {cs.level} at position {i}, expected {i + 1}")
            if cs.dim != levels[0].dim:
                raise ValidationError("all levels must share one dim")
        ks = [cs.k for cs in levels]
        if any(a <= b for a, b in zip(ks, ks[1:])):
            raise ValidationError(f"cluster counts must strictly decrease upward, got {ks}")
        if len(parents) != len(levels) - 1:
            raise ValidationError(f"need {len(levels) - 1} parent maps, got {len(parents)}")
        for i, pmap in enumerate(parents):
            if pmap.shape != (levels[i].k,):
                raise ValidationError(f"parent map {i} has shape {pmap.shape}, expected ({levels[i].k},)")
            expected, _ = nearest_centroids(
                levels[i].centroids.astype(np.float64), levels[i + 1].centroids.astype(np.float64)
            )
            if not np.array_equal(pmap.astype(np.int64), expected):
                raise ValidationError(f"parent map {i} inconsistent with nearest-centroid assignment")
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClusterHierarchy):
            return NotImplemented
        return self.levels == other.levels and all(
            np.array_equal(a, b) for a, b in zip(self.parents, other.parents)
        )


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
        if self.level_ks:
            if any(k < 1 for k in self.level_ks):
                raise ValidationError("all level_ks must be >= 1")
            if any(a <= b for a, b in zip(self.level_ks, self.level_ks[1:])):
                raise ValidationError(f"level_ks must strictly decrease, got {self.level_ks}")


# ---------------------------------------------------------------------------
# Streaming plumbing
# ---------------------------------------------------------------------------


def _iter_chunks(source) -> Iterator[np.ndarray]:
    # A point source is a 2-d array, an iterable of 2-d chunks, or a zero-arg
    # callable returning such an iterable.  Multi-pass fits re-iterate the
    # source, so plain generators only support single-pass configs.
    if callable(source):
        chunks = source()
    elif isinstance(source, np.ndarray):
        chunks = (source,)
    else:
        chunks = source
    for chunk in chunks:
        arr = np.asarray(chunk)
        if arr.ndim != 2:
            raise ValidationError(f"point chunks must be 2-d, got shape {arr.shape}")
        if len(arr):
            yield arr


def _batches(chunks: Iterator[np.ndarray], batch_size: int) -> Iterator[np.ndarray]:
    pending: list[np.ndarray] = []
    count = 0
    dim = None
    for chunk in chunks:
        if dim is None:
            dim = chunk.shape[1]
        elif chunk.shape[1] != dim:
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
    """Distance-squared-weighted seeding over a buffered prefix."""
    n = len(points)
    if n < k:
        raise DegenerateFitError(f"initialization buffer holds {n} points, need >= {k}")
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    centroids[0] = points[rng.integers(n)]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            raise DegenerateFitError(f"fewer than {k} distinct points in initialization buffer")
        centroids[j] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((points - centroids[j]) ** 2).sum(axis=1))
    return centroids


# ---------------------------------------------------------------------------
# Fits
# ---------------------------------------------------------------------------


def minibatch_fit(
    source,
    k: int,
    config: FitConfig,
    init: np.ndarray | None = None,
    collect_trajectory: bool = False,
):
    """Streaming k-means: per batch, assign to the nearest centroid, then move
    each centroid to the running mean of the points it has absorbed.

    Per-centroid absorption counts reset at the start of every pass, so a
    pass behaves as one incremental Lloyd step over the stream; with
    ``batch_size`` covering the whole stream each pass IS an exact Lloyd
    iteration.  Unless ``init`` is given, centroids are seeded by k-means++
    over a buffered prefix of ``max(10k, batch_size)`` points.

    With ``collect_trajectory`` returns ``(centroid_set, trajectory)`` where
    the trajectory holds the float64 centroids after each pass.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    rng = np.random.default_rng(config.seed)
    centroids: np.ndarray | None = None
    if init is not None:
        centroids = np.array(init, dtype=np.float64)
        if centroids.ndim != 2 or centroids.shape[0] != k:
            raise ValidationError(f"init must have shape (k={k}, dim), got {centroids.shape}")

    trajectory: list[np.ndarray] = []
    counts = np.zeros(k, dtype=np.int64)
    ever_absorbed = np.zeros(k, dtype=bool)
    bbox_min: np.ndarray | None = None
    bbox_max: np.ndarray | None = None
    total_first_pass = 0

    for pass_idx in range(config.passes):
        chunk_iter = _iter_chunks(source)
        if centroids is None:
            buffer_target = max(10 * k, config.batch_size)
            buffered: list[np.ndarray] = []
            buffered_rows = 0
            for chunk in chunk_iter:
                buffered.append(chunk)
                buffered_rows += len(chunk)
                if buffered_rows >= buffer_target:
                    break
            if buffered_rows < k:
                raise DegenerateFitError(f"stream yielded {buffered_rows} points, need >= {k}")
            prefix = buffered[0] if len(buffered) == 1 else np.concatenate(buffered)
            # Exactly the first buffer_target rows, so the init does not
            # depend on how the stream happens to be chunked.
            prefix = _normalize_rows(prefix[:buffer_target])
            centroids = _kmeans_pp_init(prefix, k, rng)
            chunk_iter = itertools.chain(iter(buffered), chunk_iter)

        counts = np.zeros(k, dtype=np.int64)
        for raw in _batches(chunk_iter, config.batch_size):
            batch = _normalize_rows(raw)
            if batch.shape[1] != centroids.shape[1]:
                raise ValidationError(f"stream dim {batch.shape[1]} != centroid dim {centroids.shape[1]}")
            if pass_idx == 0:
                total_first_pass += len(batch)
            idx, _ = nearest_centroids(batch, centroids)
            sums = np.zeros_like(centroids)
            np.add.at(sums, idx, batch)
            absorbed = np.bincount(idx, minlength=k)
            mask = absorbed > 0
            denom = (counts[mask] + absorbed[mask]).astype(np.float64)
            centroids[mask] = (centroids[mask] * counts[mask, None] + sums[mask]) / denom[:, None]
            counts += absorbed
            ever_absorbed |= mask
            bmin, bmax = batch.min(axis=0), batch.max(axis=0)
            bbox_min = bmin if bbox_min is None else np.minimum(bbox_min, bmin)
            bbox_max = bmax if bbox_max is None else np.maximum(bbox_max, bmax)
            # Absorbing centroids are convex combinations of seen points.
            assert np.all(centroids[ever_absorbed] >= bbox_min - 1e-9) and np.all(
                centroids[ever_absorbed] <= bbox_max + 1e-9
            ), "centroid escaped the data bounding box"
        if collect_trajectory:
            trajectory.append(centroids.copy())
        logger.debug("minibatch_fit pass %d/%d: %d absorptions", pass_idx + 1, config.passes, counts.sum())

    if total_first_pass == 0:
        raise DegenerateFitError("stream yielded no points")
    result = CentroidSet(level=1, centroids=centroids.astype(np.float32), counts=counts.astype(np.uint64))
    if collect_trajectory:
        return result, trajectory
    return result


def resample_fit(source, k: int, config: FitConfig, init: np.ndarray | None = None) -> CentroidSet:
    """Mini-batch fit wrapped in cluster-balanced resampling rounds.

    After the initial fit, each round assigns the full stream to the current
    centroids, draws an equal per-cluster quota ``ceil(M/k)`` of points
    (without replacement inside clusters that are large enough, with
    replacement otherwise), and refits from scratch on that rebalanced
    multiset.  The fresh k-means++ seeding is what lets rare modes win
    centroids: on the balanced resample they carry the weight that the raw
    long-tailed stream denies them.
    """
    cs = minibatch_fit(source, k, config, init=init)
    for round_idx in range(1, config.resample_rounds + 1):
        centroids = cs.centroids.astype(np.float64)
        parts = [nearest_centroids(_normalize_rows(chunk), centroids)[0] for chunk in _iter_chunks(source)]
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

        def resampled(mult=multiplicity):
            pos = 0
            for chunk in _iter_chunks(source):
                m = mult[pos : pos + len(chunk)]
                pos += len(chunk)
                if m.any():
                    yield np.repeat(np.asarray(chunk), m, axis=0)

        round_seed = int(np.random.SeedSequence((config.seed, round_idx)).generate_state(1)[0])
        cs = minibatch_fit(resampled, k, replace(config, seed=round_seed))
        logger.debug("resample_fit round %d/%d done", round_idx, config.resample_rounds)
    return cs


def _lloyd(points: np.ndarray, k: int, init: np.ndarray, max_iter: int = 200):
    """Batch k-means to an assignment fixpoint; used for the small upper levels."""
    points = np.asarray(points, dtype=np.float64)
    centroids = np.array(init, dtype=np.float64)
    assign = None
    for _ in range(max_iter):
        idx, _ = nearest_centroids(points, centroids)
        if assign is not None and np.array_equal(idx, assign):
            break
        assign = idx
        for c in range(k):
            sel = points[idx == c]
            if len(sel):
                centroids[c] = sel.sum(axis=0) / len(sel)
    counts = np.bincount(assign, minlength=k)
    return centroids, counts


def build_hierarchy(source, config: FitConfig) -> ClusterHierarchy:
    """Fit all levels: streaming resample fit at the bottom, batch k-means above."""
    ks = config.level_ks
    if not ks:
        raise ValidationError("config.level_ks must name at least one level")
    try:
        sets = [resample_fit(source, ks[0], config)]
    except (ValidationError, DegenerateFitError) as exc:
        raise type(exc)(f"level 1: {exc}") from None
    for level_idx, k in enumerate(ks[1:], start=2):
        points = sets[-1].centroids.astype(np.float64)
        rng = np.random.default_rng((config.seed, 77, level_idx))
        try:
            init = _kmeans_pp_init(points, k, rng)
            centroids, counts = _lloyd(points, k, init)
        except (ValidationError, DegenerateFitError) as exc:
            raise type(exc)(f"level {level_idx}: {exc}") from None
        sets.append(CentroidSet(level=level_idx, centroids=centroids.astype(np.float32), counts=counts.astype(np.uint64)))
    parents = []
    for lower, upper in zip(sets, sets[1:]):
        idx, _ = nearest_centroids(lower.centroids.astype(np.float64), upper.centroids.astype(np.float64))
        parents.append(idx.astype(np.uint32))
    return ClusterHierarchy(levels=tuple(sets), parents=tuple(parents))


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


def assign_path(vector, hierarchy: ClusterHierarchy) -> tuple[tuple[int, ...], float]:
    """Root-to-leaf cluster path of one vector, plus its leaf distance."""
    idx, dist = assign_batch(np.asarray(vector, dtype=np.float64)[None, :], hierarchy)
    return hierarchy.path_of(int(idx[0])), float(dist[0])


# ---------------------------------------------------------------------------
# Model file
# ---------------------------------------------------------------------------


def save_model(hierarchy: ClusterHierarchy, path: str | Path) -> None:
    """Binary layout: magic, u32 level count, u32 dim, per level
    ``u32 k + k*u64 counts + k*dim*f32 centroids``, then the parent arrays
    (``k_l * u32`` each), all little-endian."""
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<II", len(hierarchy.levels), hierarchy.dim))
        for cs in hierarchy.levels:
            fh.write(struct.pack("<I", cs.k))
            fh.write(cs.counts.astype("<u8").tobytes())
            fh.write(cs.centroids.astype("<f4").tobytes())
        for pmap in hierarchy.parents:
            fh.write(pmap.astype("<u4").tobytes())


def load_model(path: str | Path) -> ClusterHierarchy:
    data = Path(path).read_bytes()
    spath = str(path)
    if len(data) < 8 or data[:8] != MODEL_MAGIC:
        raise ParseError(f"bad model magic {data[:8]!r}", path=spath, offset=0)
    if len(data) < 16:
        raise ParseError("model header truncated", path=spath, offset=8)
    level_count, dim = struct.unpack_from("<II", data, 8)
    if level_count < 1 or dim < 1:
        raise ParseError(f"bad model header: levels={level_count} dim={dim}", path=spath, offset=8)
    offset = 16
    levels = []
    for level_idx in range(1, level_count + 1):
        if len(data) < offset + 4:
            raise ParseError(f"level {level_idx} header truncated", path=spath, offset=offset)
        (k,) = struct.unpack_from("<I", data, offset)
        offset += 4
        if k < 1:
            raise ParseError(f"level {level_idx} has k=0", path=spath, offset=offset - 4)
        need = 8 * k + 4 * k * dim
        if len(data) < offset + need:
            raise ParseError(f"level {level_idx} data truncated", path=spath, offset=offset)
        counts = np.frombuffer(data, dtype="<u8", count=k, offset=offset).copy()
        offset += 8 * k
        centroids = np.frombuffer(data, dtype="<f4", count=k * dim, offset=offset).reshape(k, dim).copy()
        offset += 4 * k * dim
        levels.append(CentroidSet(level=level_idx, centroids=centroids, counts=counts))
    parents = []
    for i in range(level_count - 1):
        k = levels[i].k
        if len(data) < offset + 4 * k:
            raise ParseError(f"parent map {i} truncated", path=spath, offset=offset)
        parents.append(np.frombuffer(data, dtype="<u4", count=k, offset=offset).copy())
        offset += 4 * k
    if len(data) != offset:
        raise ParseError(f"{len(data) - offset} trailing bytes", path=spath, offset=offset)
    try:
        return ClusterHierarchy(levels=tuple(levels), parents=tuple(parents))
    except ValidationError as exc:
        raise ParseError(f"invalid model: {exc}", path=spath) from None
