"""Bounded-memory selection of a target-size sample from the hierarchy.

The sample budget is split top-down through the hierarchy by water-filling
(equal shares per child, spilling capacity that small children cannot use
back to their siblings), which moves the selected set toward a uniform
spread over the populated parts of the embedding space.  Within each leaf,
the quota is filled with the windows closest to the leaf centroid.
:meth:`SelectionState.fold` is the only home of that rule: it takes a whole
shard at once, and :func:`merge` folds one state into a copy of the other,
so the selection depends only on the set of records seen, never on how the
shards were partitioned or ordered.

A fold sorts only the shard's survivors, the records that beat their full
leaf's worst held row, and merges them into the already sorted held rows:
its cost per shard is a sort of the survivors plus a few linear passes
over the held rows.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .core_model import BinaryReader, CurationManifest, EmbeddingShard, WindowIndex, write_atomic
from .errors import ValidationError
from .hkmeans import ClusterHierarchy, assign_batch

logger = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"PAMSEL02"
CHECKPOINT_VERSION = 2
_ENTRY = np.dtype([("window_id", "<u8"), ("distance", "<f8")])
_HELD = np.dtype([("leaf", "<i8"), ("window_id", "<u8"), ("distance", "<f8")])
# The same bytes with the fields in held order: numpy compares structured
# values field by field in name order, so this view sorts as (leaf, distance, window_id).
_ORDER = np.dtype({"names": ["leaf", "distance", "window_id"], "formats": ["<i8", "<f8", "<u8"], "offsets": [0, 16, 8]})
# And as raw bytes: numpy copies structured values field by field, so whole
# ``held`` arrays move through this view, about ten times faster.
_RAW = np.dtype((np.void, _HELD.itemsize))

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


@dataclass(eq=False)
class SelectionState:
    """The closest windows seen so far, at most ``quotas[leaf]`` per leaf.

    ``held`` is one structured array of ``(leaf, window_id, distance)`` rows,
    sorted by ``(leaf, distance, window_id)`` (the ``PAMSEL02`` leaf order),
    holding each window id at most once per leaf, at its smallest distance.
    :meth:`fold` alone changes it, by replacing the array, so states may
    share one.  Equality ignores ``shard_digests``, the SHA-256 of each shard
    folded in by a checkpointed run, as it depends on arrival order.
    """

    quotas: np.ndarray
    held: np.ndarray
    processed: int = 0
    rejected_shards: int = 0
    shard_digests: list[bytes] = field(default_factory=list)

    @classmethod
    def empty(cls, quotas) -> "SelectionState":
        q = np.ascontiguousarray(np.asarray(quotas, dtype=np.int64))
        if q.ndim != 1 or np.any(q < 0):
            raise ValidationError("quotas must be a 1-d array of non-negative counts")
        return cls(quotas=q, held=np.empty(0, _HELD))

    def fold(self, leaf_idx, window_ids, distances) -> None:
        """Fold records in: each leaf then holds the ``quota`` smallest
        ``(distance, window_id)`` among the per-id minimum distances of every
        record folded so far, however they were batched or ordered.

        Only the records that beat their full leaf's worst entry (the
        survivors) are sorted; they are merged into ``held``, which is
        already in order.  The work is a sort of the survivors plus a few
        linear passes over ``held``.
        """
        rows = _rows(leaf_idx, window_ids, distances)
        held = self.held
        # 1. Drop records that cannot beat a full leaf's worst entry (step 5 cuts quota-0 leaves).
        counts = self.counts()
        full = np.flatnonzero((counts >= self.quotas) & (counts > 0))
        worst = np.full(len(self.quotas), np.array((0, 0, np.inf), _HELD))
        worst[full] = held[np.cumsum(counts)[full] - 1]
        bar = worst[rows["leaf"]]
        d = rows["distance"]
        rows = rows[(d < bar["distance"]) | ((d == bar["distance"]) & (rows["window_id"] < bar["window_id"]))]
        # 2. Keep each (leaf, window_id) of the survivors once, at its smallest distance.
        rows = rows[np.lexsort((rows["distance"], rows["window_id"], rows["leaf"]))]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (rows["leaf"][1:] != rows["leaf"][:-1]) | (rows["window_id"][1:] != rows["window_id"][:-1])
        rows = rows[first]
        # 3. Where a survivor and a held row share (leaf, window_id), keep the
        # smaller distance, the held row on a tie.  Only shared ids do any work.
        held_ids = np.sort(held["window_id"])
        lo = np.searchsorted(held_ids, rows["window_id"], "left")
        hits = np.searchsorted(held_ids, rows["window_id"], "right") - lo
        if hits.any():
            # One (survivor, held row) pair per held row with the survivor's id.
            r = np.repeat(np.arange(len(rows)), hits)
            in_sorted = np.arange(len(r)) + np.repeat(lo - (np.cumsum(hits) - hits), hits)
            h = np.argsort(held["window_id"])[in_sorted]
            same = held["leaf"][h] == rows["leaf"][r]
            r, h = r[same], h[same]
            closer = rows["distance"][r] < held["distance"][h]
            held = np.delete(held.view(_RAW), h[closer]).view(_HELD)
            rows = np.delete(rows, r[~closer])
        # 4. Find each survivor's place in the (leaf, distance, window_id) order of held.
        rows = rows[np.lexsort((rows["window_id"], rows["distance"], rows["leaf"]))]
        at = np.searchsorted(held.view(_ORDER), rows.view(_ORDER))
        # 5. Insert them and cut each leaf at its quota.
        held = np.insert(held.view(_RAW), at, rows.view(_RAW)).view(_HELD)
        counts = np.bincount(held["leaf"], minlength=len(self.quotas))
        rank = np.arange(len(held)) - np.repeat(np.cumsum(counts) - counts, counts)
        self.held = held.view(_RAW)[rank < np.repeat(self.quotas, counts)].view(_HELD)

    def counts(self) -> np.ndarray:
        """Entries held per leaf."""
        return np.bincount(self.held["leaf"], minlength=len(self.quotas))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SelectionState):
            return NotImplemented
        return (
            np.array_equal(self.quotas, other.quotas)
            and self.processed == other.processed
            and self.rejected_shards == other.rejected_shards
            and np.array_equal(self.held, other.held)
        )


def _rows(leaf_idx, window_ids, distances) -> np.ndarray:
    rows = np.empty(len(window_ids), _HELD)
    rows["leaf"], rows["window_id"], rows["distance"] = leaf_idx, window_ids, distances
    return rows


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
    leaf_quotas = quotas.leaf_quotas if isinstance(quotas, QuotaTree) else np.asarray(quotas, dtype=np.int64)
    if state is None:
        state = SelectionState.empty(leaf_quotas)
    elif not np.array_equal(state.quotas, leaf_quotas):
        raise ValidationError("resumed state quotas do not match the requested quotas")
    for shard in shards:
        if shard.dim != hierarchy.dim:
            state.rejected_shards += 1
            logger.warning("rejecting shard with dim %d (model dim %d)", shard.dim, hierarchy.dim)
            continue
        leaf_idx, distances = assign_batch(shard.vectors, hierarchy)
        state.fold(leaf_idx, shard.window_ids, distances)
        state.processed += len(shard)
    return state


def merge(a: SelectionState, b: SelectionState) -> SelectionState:
    """Combine partition states: ``b``'s entries folded into a copy of ``a``.

    The result is the state one stream over both partitions' records would
    reach, so merging is associative and commutative.
    """
    if not np.array_equal(a.quotas, b.quotas):
        raise ValidationError("cannot merge selection states with different quotas")
    merged = SelectionState(a.quotas, a.held, a.processed + b.processed, a.rejected_shards + b.rejected_shards)
    merged.fold(b.held["leaf"], b.held["window_id"], b.held["distance"])
    return merged


def count_populations(shards: Iterable[EmbeddingShard], hierarchy: ClusterHierarchy):
    """One counting pass: per-leaf populations, skipping shards of another dim."""
    pops = np.zeros(hierarchy.leaf_count, dtype=np.int64)
    for shard in shards:
        if shard.dim == hierarchy.dim:
            leaf_idx, _ = assign_batch(shard.vectors, hierarchy)
            pops += np.bincount(leaf_idx, minlength=hierarchy.leaf_count)
    return pops


def emit(state: SelectionState, hierarchy: ClusterHierarchy, window_index: WindowIndex) -> CurationManifest:
    """The manifest of the selected windows: each row's coordinates from
    ``window_index`` and the cluster path of its leaf.  A window id held in
    two leaves, which two vectors for it in the shards can give, is a
    ValidationError."""
    paths = np.array(["/".join(map(str, hierarchy.path_of(leaf))) for leaf in range(len(state.quotas))], dtype=object)
    held = state.held[np.argsort(state.held["window_id"], kind="stable")]
    twice = np.flatnonzero(held["window_id"][1:] == held["window_id"][:-1])
    if len(twice):
        (a, wid, _), (b, _, _) = held[twice[0] : twice[0] + 2].tolist()
        raise ValidationError(f"window id {wid} is selected in leaves {a} and {b}: the shards hold two vectors for it")
    coordinates = window_index.coordinates(held["window_id"], "selected")
    return CurationManifest.of(held["window_id"], *coordinates, "hkmeans", cluster_path=paths[held["leaf"]])


# ---------------------------------------------------------------------------
# Checkpoint file
# ---------------------------------------------------------------------------


def save_checkpoint(state: SelectionState, path: str | Path) -> None:
    """Atomically replace ``path`` with ``state`` in the ``PAMSEL02`` layout of
    README's formats table, each leaf's slice of ``held`` written as it is.
    Identical states give identical bytes, and a crash leaves the previous
    file whole, so it alone is the resume state of a checkpointed run."""
    counts = (CHECKPOINT_VERSION, len(state.quotas), state.processed, state.rejected_shards, 0)
    parts = [CHECKPOINT_MAGIC, struct.pack("<IQQQQ", *counts)]
    entries = np.empty(len(state.held), _ENTRY)
    entries["window_id"], entries["distance"] = state.held["window_id"], state.held["distance"]
    sizes = state.counts().tolist()
    for quota, size, leaf in zip(state.quotas.tolist(), sizes, np.split(entries, np.cumsum(sizes[:-1]))):
        parts += [struct.pack("<QQ", quota, size), leaf.tobytes()]
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
    leaves = [np.empty(0, _HELD)]
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
        leaves.append(_rows(np.full(size, leaf), entries["window_id"], dists))
    (n,) = reader.unpack("Q", "shard digest count")
    digests = reader.array("V32", n, "shard digest").tolist()
    reader.end()
    state = SelectionState(quotas, np.empty(0, _HELD), processed, rejected, digests)
    held = np.concatenate(leaves)
    state.fold(held["leaf"], held["window_id"], held["distance"])
    return state
