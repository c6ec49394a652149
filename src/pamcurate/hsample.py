"""Bounded-memory selection of a target-size sample from the hierarchy.

The sample budget is split top-down through the hierarchy by water-filling
(equal shares per child, spilling capacity that small children cannot use
back to their siblings), which pushes the selected set toward a uniform
spread over the populated parts of the embedding space.  Within each leaf,
the quota is filled with the windows closest to the leaf centroid; while
streaming, the current worst entry is evicted whenever a closer one
arrives.  Worker states over disjoint shard sets combine with
:func:`merge`, which is associative and commutative.
"""

from __future__ import annotations

import heapq
import logging
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .core_model import AudioWindow, EmbeddingShard, ManifestEntry
from .errors import ParseError, ValidationError
from .hkmeans import ClusterHierarchy, assign_batch

logger = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"PAMSEL01"
CHECKPOINT_VERSION = 1

# Sample budget of the full-corpus deployment.
PRODUCTION_TARGET_N = 323_532


# ---------------------------------------------------------------------------
# Quota allocation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotaTree:
    """Per-node target counts, leaf level first; every node's quota equals
    the sum of its children's and never exceeds its population."""

    level_quotas: tuple[np.ndarray, ...]
    total: int

    @property
    def leaf_quotas(self) -> np.ndarray:
        return self.level_quotas[0]


def _waterfill(total: int, populations: list[int]) -> list[int]:
    """Split ``total`` equally over children, capping at population and
    re-spreading the excess among uncapped siblings until stable.  Integer
    remainders go to the lowest-index uncapped children."""
    quotas = [0] * len(populations)
    active = list(range(len(populations)))
    remaining = int(total)
    if remaining > sum(populations):
        raise ValidationError(f"quota {remaining} exceeds population {sum(populations)}")
    while active:
        share = remaining / len(active)
        capped = [i for i in active if populations[i] < share]
        if capped:
            for i in capped:
                quotas[i] = populations[i]
                remaining -= populations[i]
            active = [i for i in active if populations[i] >= share]
            continue
        base, extra = divmod(remaining, len(active))
        for j, i in enumerate(active):
            quotas[i] = base + (1 if j < extra else 0)
        return quotas
    return quotas


def allocate_quotas(hierarchy: ClusterHierarchy, populations, n_target: int) -> QuotaTree:
    """Water-fill ``n_target`` down the hierarchy given per-leaf populations."""
    if n_target <= 0:
        raise ValidationError(f"target size must be positive, got {n_target}")
    leaf_pops = np.asarray(populations, dtype=np.int64)
    if leaf_pops.shape != (hierarchy.leaf_count,):
        raise ValidationError(f"populations shape {leaf_pops.shape} != ({hierarchy.leaf_count},)")
    if np.any(leaf_pops < 0):
        raise ValidationError("populations must be non-negative")

    level_pops = [leaf_pops]
    for pmap in hierarchy.parents:
        upper = np.zeros(hierarchy.levels[len(level_pops)].k, dtype=np.int64)
        np.add.at(upper, pmap.astype(np.int64), level_pops[-1])
        level_pops.append(upper)

    total = int(min(n_target, leaf_pops.sum()))
    level_quotas: list[np.ndarray] = [None] * len(level_pops)
    top = len(level_pops) - 1
    level_quotas[top] = np.asarray(_waterfill(total, level_pops[top].tolist()), dtype=np.int64)
    for level in range(top - 1, -1, -1):
        pmap = hierarchy.parents[level].astype(np.int64)
        quotas = np.zeros(hierarchy.levels[level].k, dtype=np.int64)
        for parent in range(hierarchy.levels[level + 1].k):
            children = np.flatnonzero(pmap == parent)
            if len(children) == 0:
                continue
            child_quotas = _waterfill(int(level_quotas[level + 1][parent]), level_pops[level][children].tolist())
            quotas[children] = child_quotas
        level_quotas[level] = quotas
    return QuotaTree(level_quotas=tuple(level_quotas), total=total)


# ---------------------------------------------------------------------------
# Streaming selection
# ---------------------------------------------------------------------------


@dataclass
class SelectionState:
    """Per-leaf bounded collections of the closest windows seen so far.

    Heaps hold ``(-distance, -window_id)`` so the root is always the current
    eviction candidate (greatest distance, then greatest id).  A window id
    is held at most once per leaf, at its smallest distance, as in
    :func:`merge`.  Equality ignores ``evictions``, which depends on
    arrival order.
    """

    quotas: np.ndarray
    heaps: list[list[tuple[float, int]]]
    processed: int = 0
    rejected_shards: int = 0
    evictions: int = 0
    # Per leaf: window id -> distance of its heap entry.
    _held: list[dict[int, float]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._held = [{-negid: -neg_d for neg_d, negid in heap} for heap in self.heaps]

    @classmethod
    def empty(cls, quotas) -> "SelectionState":
        q = np.ascontiguousarray(np.asarray(quotas, dtype=np.int64))
        if q.ndim != 1 or np.any(q < 0):
            raise ValidationError("quotas must be a 1-d array of non-negative counts")
        return cls(quotas=q, heaps=[[] for _ in range(len(q))])

    def push(self, leaf: int, window_id: int, distance: float) -> None:
        cap = int(self.quotas[leaf])
        if cap == 0:
            return
        heap = self.heaps[leaf]
        held = self._held[leaf]
        if window_id in held:
            old = held[window_id]
            if distance < old:
                heap[heap.index((-old, -window_id))] = (-distance, -window_id)
                heapq.heapify(heap)
                held[window_id] = distance
            return
        if len(heap) < cap:
            heapq.heappush(heap, (-distance, -window_id))
            held[window_id] = distance
            return
        worst_d, worst_negid = heap[0]
        if (distance, window_id) < (-worst_d, -worst_negid):
            heapq.heapreplace(heap, (-distance, -window_id))
            del held[-worst_negid]
            held[window_id] = distance
            self.evictions += 1

    def entries(self, leaf: int) -> list[tuple[float, int]]:
        """Selected ``(distance, window_id)`` pairs, best first."""
        return sorted((-d, -negid) for d, negid in self.heaps[leaf])

    def selected_ids(self) -> set[int]:
        return {-negid for heap in self.heaps for _, negid in heap}

    def size(self) -> int:
        return sum(len(h) for h in self.heaps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SelectionState):
            return NotImplemented
        return (
            np.array_equal(self.quotas, other.quotas)
            and self.processed == other.processed
            and self.rejected_shards == other.rejected_shards
            and all(sorted(a) == sorted(b) for a, b in zip(self.heaps, other.heaps))
        )


def _leaf_quotas(quotas) -> np.ndarray:
    if isinstance(quotas, QuotaTree):
        return quotas.leaf_quotas
    return np.asarray(quotas, dtype=np.int64)


def stream_select(
    shards: Iterable[EmbeddingShard],
    hierarchy: ClusterHierarchy,
    quotas,
    state: SelectionState | None = None,
) -> SelectionState:
    """Fill leaf quotas with the closest windows across a shard stream.

    Shards may arrive in any order and any partitioning: the final state
    depends only on the set of records seen.  A shard whose dim does not
    match the model is rejected and tallied, never fatal.  Passing an
    existing ``state`` continues a previous (e.g. checkpointed) run.
    """
    if state is None:
        state = SelectionState.empty(_leaf_quotas(quotas))
    elif not np.array_equal(state.quotas, _leaf_quotas(quotas)):
        raise ValidationError("resumed state quotas do not match the requested quotas")
    for shard in shards:
        if shard.dim != hierarchy.dim:
            state.rejected_shards += 1
            logger.warning("rejecting shard with dim %d (model dim %d)", shard.dim, hierarchy.dim)
            continue
        leaf_idx, distances = assign_batch(shard.vectors, hierarchy)
        ids = shard.window_ids
        for i in range(len(ids)):
            state.push(int(leaf_idx[i]), int(ids[i]), float(distances[i]))
        state.processed += len(ids)
    return state


def merge(a: SelectionState, b: SelectionState) -> SelectionState:
    """Combine worker states: per-leaf union, truncated back to the quota.

    Keeps the smallest ``(distance, window_id)`` pairs; duplicate window ids
    collapse to their smaller distance.  Associative and commutative, so
    worker states may be combined in any order.
    """
    if not np.array_equal(a.quotas, b.quotas):
        raise ValidationError("cannot merge selection states with different quotas")
    heaps = []
    evictions = a.evictions + b.evictions
    for leaf in range(len(a.quotas)):
        best: dict[int, float] = {}
        for neg_d, neg_id in a.heaps[leaf] + b.heaps[leaf]:
            wid, dist = -neg_id, -neg_d
            if wid not in best or dist < best[wid]:
                best[wid] = dist
        cap = int(a.quotas[leaf])
        kept = heapq.nsmallest(cap, ((d, wid) for wid, d in best.items()))
        evictions += len(best) - len(kept)
        heap = [(-d, -wid) for d, wid in kept]
        heapq.heapify(heap)
        heaps.append(heap)
    return SelectionState(
        quotas=a.quotas,
        heaps=heaps,
        processed=a.processed + b.processed,
        rejected_shards=a.rejected_shards + b.rejected_shards,
        evictions=evictions,
    )


def count_populations(shards: Iterable[EmbeddingShard], hierarchy: ClusterHierarchy):
    """One counting pass: per-leaf populations (plus rejected-shard tally)."""
    pops = np.zeros(hierarchy.leaf_count, dtype=np.int64)
    rejected = 0
    for shard in shards:
        if shard.dim != hierarchy.dim:
            rejected += 1
            continue
        leaf_idx, _ = assign_batch(shard.vectors, hierarchy)
        pops += np.bincount(leaf_idx, minlength=hierarchy.leaf_count)
    return pops, rejected


def emit(
    state: SelectionState,
    hierarchy: ClusterHierarchy,
    window_index: dict[int, AudioWindow],
) -> list[ManifestEntry]:
    """Manifest entries for the selected windows, sorted by window_id."""
    entries = []
    for leaf in range(len(state.quotas)):
        path = hierarchy.path_of(leaf)
        for _, wid in state.entries(leaf):
            window = window_index.get(wid)
            if window is None:
                raise ValidationError(f"selected window_id {wid} not present in the deployment config")
            entries.append(
                ManifestEntry(
                    window_id=wid,
                    hydrophone_id=window.hydrophone_id,
                    recording_id=window.recording_id,
                    offset_s=window.offset_s,
                    source="hkmeans",
                    cluster_path=path,
                )
            )
    entries.sort(key=lambda e: e.window_id)
    return entries


# ---------------------------------------------------------------------------
# Checkpoint file
# ---------------------------------------------------------------------------


def save_checkpoint(state: SelectionState, path: str | Path) -> None:
    """Versioned binary snapshot of a selection state; entries are stored
    canonically sorted so identical states produce identical bytes."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(
            struct.pack(
                "<IQQQQ",
                CHECKPOINT_VERSION,
                len(state.quotas),
                state.processed,
                state.rejected_shards,
                state.evictions,
            )
        )
        for leaf in range(len(state.quotas)):
            entries = state.entries(leaf)
            fh.write(struct.pack("<QQ", int(state.quotas[leaf]), len(entries)))
            for dist, wid in entries:
                fh.write(struct.pack("<Qd", wid, dist))


def load_checkpoint(path: str | Path) -> SelectionState:
    data = Path(path).read_bytes()
    spath = str(path)
    if len(data) < 8 or data[:8] != CHECKPOINT_MAGIC:
        raise ParseError(f"bad checkpoint magic {data[:8]!r}", path=spath, offset=0)
    if len(data) < 44:
        raise ParseError("checkpoint header truncated", path=spath, offset=8)
    version, leaf_count, processed, rejected, evictions = struct.unpack_from("<IQQQQ", data, 8)
    if version != CHECKPOINT_VERSION:
        raise ParseError(f"unsupported checkpoint version {version}", path=spath, offset=8)
    offset = 44
    quotas = np.zeros(leaf_count, dtype=np.int64)
    heaps: list[list[tuple[float, int]]] = []
    for leaf in range(leaf_count):
        if len(data) < offset + 16:
            raise ParseError(f"leaf {leaf} header truncated", path=spath, offset=offset)
        quota, size = struct.unpack_from("<QQ", data, offset)
        offset += 16
        if size > quota:
            raise ParseError(f"leaf {leaf} holds {size} entries over quota {quota}", path=spath, offset=offset - 16)
        if len(data) < offset + 16 * size:
            raise ParseError(f"leaf {leaf} entries truncated", path=spath, offset=offset)
        quotas[leaf] = quota
        heap = []
        for _ in range(size):
            wid, dist = struct.unpack_from("<Qd", data, offset)
            offset += 16
            heap.append((-dist, -wid))
        if len({negid for _, negid in heap}) != size:
            raise ParseError(f"leaf {leaf} holds a window id twice", path=spath, offset=offset - 16 * size)
        heapq.heapify(heap)
        heaps.append(heap)
    if len(data) != offset:
        raise ParseError(f"{len(data) - offset} trailing bytes", path=spath, offset=offset)
    return SelectionState(
        quotas=quotas,
        heaps=heaps,
        processed=processed,
        rejected_shards=rejected,
        evictions=evictions,
    )
