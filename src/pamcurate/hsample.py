"""Bounded-memory selection of a target-size sample from the hierarchy.

The sample budget is split top-down through the hierarchy by water-filling
(equal shares per child, spilling capacity that small children cannot use
back to their siblings), which pushes the selected set toward a uniform
spread over the populated parts of the embedding space.  Within each leaf,
the quota is filled with the windows closest to the leaf centroid; while
streaming, the current worst entry is evicted whenever a closer one
arrives.  :meth:`SelectionState.push` is the only place that rule lives:
:func:`merge` pushes one state's entries into a copy of the other, so the
selection depends only on the set of records seen, never on how the
shards were partitioned or in which order they arrived.
"""

from __future__ import annotations

import heapq
import logging
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .core_model import AudioWindow, BinaryReader, EmbeddingShard, ManifestEntry, write_atomic
from .errors import ValidationError
from .hkmeans import ClusterHierarchy, assign_batch

logger = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"PAMSEL02"
CHECKPOINT_VERSION = 2
_ENTRY = np.dtype([("window_id", "<u8"), ("distance", "<f8")])

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
    is held at most once per leaf, at its smallest distance.
    ``shard_digests`` lists the SHA-256 of each shard file folded in by a
    checkpointed run; equality ignores it, as it depends on arrival order.
    """

    quotas: np.ndarray
    heaps: list[list[tuple[float, int]]]
    processed: int = 0
    rejected_shards: int = 0
    shard_digests: list[bytes] = field(default_factory=list)
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
    """Combine partition states: ``b``'s entries pushed into a copy of ``a``.

    The result is the state one stream over both partitions' records would
    reach, so merging is associative and commutative.
    """
    if not np.array_equal(a.quotas, b.quotas):
        raise ValidationError("cannot merge selection states with different quotas")
    merged = SelectionState(
        quotas=a.quotas,
        heaps=[list(heap) for heap in a.heaps],
        processed=a.processed + b.processed,
        rejected_shards=a.rejected_shards + b.rejected_shards,
    )
    for leaf, heap in enumerate(b.heaps):
        for neg_d, neg_id in heap:
            merged.push(leaf, -neg_id, -neg_d)
    return merged


def count_populations(shards: Iterable[EmbeddingShard], hierarchy: ClusterHierarchy):
    """One counting pass: per-leaf populations, skipping shards of another dim."""
    pops = np.zeros(hierarchy.leaf_count, dtype=np.int64)
    for shard in shards:
        if shard.dim == hierarchy.dim:
            leaf_idx, _ = assign_batch(shard.vectors, hierarchy)
            pops += np.bincount(leaf_idx, minlength=hierarchy.leaf_count)
    return pops


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
    """Atomically replace ``path`` with a snapshot of ``state``: magic
    ``PAMSEL02``, ``u32 version``, ``u64`` leaf count / processed / rejected
    / reserved (written as 0, ignored on load; older builds stored an
    eviction count there); per leaf ``u64 quota``, ``u64 size`` and the
    entries as ``u64 window_id`` + ``f64 distance``, best first; then ``u64 n`` and the
    ``n`` 32-byte ``state.shard_digests``.  Identical states give identical
    bytes, and a crash leaves the previous file whole, so it alone is the
    resume state of a checkpointed run."""
    counts = (CHECKPOINT_VERSION, len(state.quotas), state.processed, state.rejected_shards, 0)
    parts = [CHECKPOINT_MAGIC, struct.pack("<IQQQQ", *counts)]
    for leaf in range(len(state.quotas)):
        entries = np.array([(wid, dist) for dist, wid in state.entries(leaf)], dtype=_ENTRY)
        parts += [struct.pack("<QQ", int(state.quotas[leaf]), len(entries)), entries.tobytes()]
    parts += [struct.pack("<Q", len(state.shard_digests)), *state.shard_digests]
    write_atomic(path, b"".join(parts))


def load_checkpoint(path: str | Path) -> SelectionState:
    """Read a checkpoint; every fault is a :class:`ParseError` located as README's formats table says."""
    reader = BinaryReader(path, CHECKPOINT_MAGIC)
    version, leaf_count, processed, rejected, _reserved = reader.unpack("IQQQQ", "header")
    if version != CHECKPOINT_VERSION:
        raise reader.error(f"unsupported checkpoint version {version}")
    # Every leaf takes 16 bytes at least; checked before ``quotas`` is allocated.
    if leaf_count > (len(reader.data) - reader.pos) // 16:
        raise reader.error(f"leaf count {leaf_count} exceeds the file size", 12)
    quotas = np.zeros(leaf_count, dtype=np.int64)
    heaps: list[list[tuple[float, int]]] = []
    for leaf in range(leaf_count):
        quota, size = reader.unpack("QQ", f"leaf {leaf} header")
        if not size <= quota <= np.iinfo(np.int64).max:
            raise reader.error(f"leaf {leaf} holds {size} entries under quota {quota}, not size <= quota < 2**63")
        entries = reader.array(_ENTRY, size, f"leaf {leaf} entry")
        if len(np.unique(entries["window_id"])) != size:
            raise reader.error(f"leaf {leaf} holds a window id twice")
        dists = entries["distance"]
        bad = np.flatnonzero(~np.isfinite(dists) | (dists < 0))
        if len(bad):
            at = reader.start + 16 * int(bad[0])
            raise reader.error(f"leaf {leaf} holds distance {dists[bad[0]]}, not finite and >= 0", at)
        quotas[leaf] = quota
        heap = [(-d, -w) for w, d in zip(entries["window_id"].tolist(), dists.tolist())]
        heapq.heapify(heap)
        heaps.append(heap)
    (n,) = reader.unpack("Q", "shard digest count")
    digests = reader.array("V32", n, "shard digest").tolist()
    reader.end()
    return SelectionState(quotas, heaps, processed, rejected, digests)
