"""Bounded-memory selection of a target-size sample from the hierarchy.

The sample budget is split top-down through the hierarchy by water-filling
(equal shares per child, spilling capacity that small children cannot use
back to their siblings), which moves the selected set toward a uniform
spread over the populated parts of the embedding space;
:func:`allocate_quotas` returns the per-leaf quotas as one ``int64`` array.
Within each leaf, the quota is filled with the windows closest to the leaf
centroid.  :meth:`SelectionState.fold` is the only home of that rule: it
takes a whole shard at once, and :func:`merge` folds one state into a copy
of the other, so the selection depends only on the set of records seen,
never on how the shards were partitioned or ordered.

A fold sorts only the shard's survivors, the records that beat their full
leaf's worst held row, and merges them into the already sorted held rows:
its cost per shard is a sort of the survivors, one sort of the held
``(leaf, window_id)`` pair keys, and linear passes over the held rows.
Both the sort and the search for their places use the native order of a
``complex128`` key ``leaf + 1j*distance``; only rows that tie on both fall
back to the window id, the last key of held order.

A checkpointed run keeps its state as a journal (:func:`save_checkpoint`):
after each shard it appends that shard's record, its digest and the rows
its fold kept, so it writes per shard what survived, not the whole state.
The digests live only in the journal, never in a :class:`SelectionState`.
Replaying the records in one fold (:func:`load_checkpoint`, which returns
the digests and the journal's end beside the state) gives the state back
exactly: a row in a leaf's final top-n is in the top-n of every prefix of
the stream that holds it, since the rows ahead of it in a prefix are ahead
of it in the whole.  So it was kept when it arrived, and is in the journal.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .core_model import BinaryReader, CurationManifest, EmbeddingShard, WindowIndex, fields_equal
from .core_model import append_durable, write_atomic
from .errors import ValidationError
from .hkmeans import ClusterHierarchy, assign_batch

CHECKPOINT_MAGIC = b"PAMSEL04"
CHECKPOINT_VERSION = 4
# A journal record starts with its length and its digest, processed and
# row counts, 32 bytes, and ends with a 32-byte SHA-256.
_RECORD_HEAD = "QQQQ"
_HELD = np.dtype([("leaf", "<i8"), ("window_id", "<u8"), ("distance", "<f8")])
# The same bytes with the fields in held order: numpy compares structured
# values field by field in name order, so this view sorts as (leaf, distance, window_id).
_ORDER = np.dtype({"names": ["leaf", "distance", "window_id"], "formats": ["<i8", "<f8", "<u8"], "offsets": [0, 16, 8]})
# And as raw bytes: numpy copies structured values field by field, so whole
# ``held`` arrays move through this view, about ten times faster.
_RAW = np.dtype((np.void, _HELD.itemsize))


# ---------------------------------------------------------------------------
# Quota allocation
# ---------------------------------------------------------------------------


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


def allocate_quotas(hierarchy: ClusterHierarchy, populations, n_target: int) -> np.ndarray:
    """Water-fill ``n_target`` down the hierarchy given per-leaf populations:
    the per-leaf quotas, an ``int64`` array summing to ``min(n_target,
    populations.sum())`` and never above a leaf's population.  An upper
    node's quota is the sum of its children's through ``hierarchy.parents``."""
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

    top = len(level_pops) - 1
    quotas = np.asarray(_waterfill(min(n_target, int(leaf_pops.sum())), level_pops[top].tolist()), dtype=np.int64)
    for level in range(top - 1, -1, -1):
        pmap = hierarchy.parents[level].astype(np.int64)
        upper, quotas = quotas, np.zeros(hierarchy.levels[level].k, dtype=np.int64)
        for parent in range(hierarchy.levels[level + 1].k):
            children = np.flatnonzero(pmap == parent)
            if len(children):
                quotas[children] = _waterfill(int(upper[parent]), level_pops[level][children].tolist())
    return quotas


# ---------------------------------------------------------------------------
# Streaming selection
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class SelectionState:
    """The closest windows seen so far, at most ``quotas[leaf]`` per leaf.

    ``held`` is one structured array of ``(leaf, window_id, distance)`` rows,
    sorted by ``(leaf, distance, window_id)``, holding each window id at
    most once per leaf, at its smallest distance.  :meth:`fold` alone
    changes it, by replacing the array, so states may share one.
    ``processed`` counts the records streamed in.  A checkpoint's shard
    digests are not part of it: :func:`load_checkpoint` returns them beside
    the state.  States are equal when every field is.
    """

    quotas: np.ndarray
    held: np.ndarray
    processed: int = 0
    __eq__ = fields_equal

    @classmethod
    def empty(cls, quotas) -> "SelectionState":
        q = np.ascontiguousarray(np.asarray(quotas, dtype=np.int64))
        if q.ndim != 1 or np.any(q < 0):
            raise ValidationError("quotas must be a 1-d array of non-negative counts")
        return cls(quotas=q, held=np.empty(0, _HELD))

    def fold(self, leaf_idx, window_ids, distances) -> np.ndarray:
        """Fold records in: each leaf then holds the ``quota`` smallest
        ``(distance, window_id)`` among the per-id minimum distances of every
        record folded so far, however they were batched or ordered.  Returns
        the rows this fold inserted that are still held after the cut.

        Only the records that beat their full leaf's worst entry (the
        survivors) are sorted; they are merged into ``held``, which is
        already in order.  The work is a sort of the survivors, one sort of
        the held ``(leaf, window_id)`` pair keys, and linear passes over
        ``held``.
        """
        rows = _rows(leaf_idx, window_ids, distances)
        held = self.held
        # 1. Drop records that cannot beat a full leaf's worst entry (step 4 cuts quota-0 leaves).
        counts = self.counts()
        full = np.flatnonzero((counts >= self.quotas) & (counts > 0))
        worst = np.full(len(self.quotas), np.array((0, 0, np.inf), _HELD))
        worst[full] = held[np.cumsum(counts)[full] - 1]
        bar = worst[rows["leaf"]]
        d = rows["distance"]
        rows = rows[(d < bar["distance"]) | ((d == bar["distance"]) & (rows["window_id"] < bar["window_id"]))]
        # 2. Sort the survivors into held order and insert them: find each
        # one's place by (leaf, distance) alone, and by the window id too only
        # where a held row has the survivor's (leaf, distance).  Row i lands at
        # at[i] + i, after any held row equal to it.
        rows = rows[_order(rows)]
        keys, row_keys = _keys(held), _keys(rows)
        at = np.searchsorted(keys, row_keys)
        if len(held) and len(tied := np.flatnonzero(keys[np.minimum(at, len(held) - 1)] == row_keys)):
            at[tied] = _structured_search(held, rows[tied])
        held = np.insert(held.view(_RAW), at, rows.view(_RAW)).view(_HELD)
        new = np.zeros(len(held), dtype=bool)
        new[at + np.arange(len(rows))] = True
        # 3. Keep each (leaf, window_id) once: its first row in held order,
        # which has its smallest distance, and is the held row on a tie.
        if (dup := _repeats(held)).any():
            held, new = held.view(_RAW)[~dup].view(_HELD), new[~dup]
        # 4. Cut each leaf at its quota.
        counts = np.bincount(held["leaf"], minlength=len(self.quotas))
        rank = np.arange(len(held)) - np.repeat(np.cumsum(counts) - counts, counts)
        keep = rank < np.repeat(self.quotas, counts)
        self.held = held.view(_RAW)[keep].view(_HELD)
        return held[keep & new]

    def counts(self) -> np.ndarray:
        """Entries held per leaf."""
        return np.bincount(self.held["leaf"], minlength=len(self.quotas))


def _rows(leaf_idx, window_ids, distances) -> np.ndarray:
    rows = np.empty(len(window_ids), _HELD)
    rows["leaf"], rows["window_id"], rows["distance"] = leaf_idx, window_ids, distances
    return rows


def _keys(rows: np.ndarray) -> np.ndarray:
    """``leaf + 1j*distance``: numpy orders complex numbers by real part,
    then imaginary part, with native compares, so this sorts as ``(leaf,
    distance)`` (exact for any leaf below 2**53)."""
    keys = np.empty(len(rows), np.complex128)
    keys.real, keys.imag = rows["leaf"], rows["distance"]
    return keys


def _order(rows: np.ndarray) -> np.ndarray:
    """The permutation that sorts ``rows`` by ``(leaf, distance, window_id)``:
    a stable sort by :func:`_keys`, then each run of equal keys by window id."""
    keys = _keys(rows)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    tied = np.flatnonzero(keys[1:] == keys[:-1])
    if len(tied):
        at = np.union1d(tied, tied + 1)
        run = np.cumsum(np.r_[True, (np.diff(at) != 1) | (keys[at[1:]] != keys[at[:-1]])])
        order[at] = order[at][np.lexsort((rows["window_id"][order[at]], run))]
    return order


def _repeats(rows: np.ndarray, *columns: np.ndarray) -> np.ndarray:
    """True at each row whose ``(leaf, window_id)``, and value in each of
    ``columns``, an earlier row has.  Rows are probed by one 64-bit key per
    ``(leaf, window_id)`` pair, ``window_id ^ leaf * 0x9E3779B97F4A7C15`` in
    wrapping ``uint64``, and only rows whose key repeats are sorted by all
    of them: distinct pairs cost one key sort, and two pairs that share a
    key cost time, never a wrong answer."""
    probe = rows["window_id"] ^ rows["leaf"].astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    ranked = np.sort(probe)
    repeats = np.zeros(len(rows), dtype=bool)
    if (twice := ranked[1:][ranked[1:] == ranked[:-1]]).size:
        sub = np.flatnonzero(np.isin(probe, twice))
        keys = [rows["leaf"], rows["window_id"], *columns]
        sub = sub[np.lexsort([sub, *(key[sub] for key in reversed(keys))])]
        repeats[sub[1:][np.logical_and.reduce([key[sub[1:]] == key[sub[:-1]] for key in keys])]] = True
    return repeats


def _structured_search(held: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Where ``rows`` go in the ``(leaf, distance, window_id)`` order of
    ``held``: after any held row equal to them."""
    return np.searchsorted(held.view(_ORDER), rows.view(_ORDER), "right")


def stream_select(
    shards: Iterable[EmbeddingShard],
    hierarchy: ClusterHierarchy,
    quotas,
    state: SelectionState | None = None,
    records: list | None = None,
) -> SelectionState:
    """Fill the per-leaf ``quotas`` with the closest windows across a shard stream.

    Shards may arrive in any order and any partitioning: the final state
    depends only on the set of records seen.  A shard whose dim is not the
    model's is a ValidationError; ``sample`` refuses one with a located
    ShardDimError before any shard is folded.  Passing an existing
    ``state`` continues a previous (e.g. checkpointed) run.  Each shard's
    record is appended to ``records``, if given: a state of that shard's
    processed count and the rows its fold kept, which
    :func:`save_checkpoint` appends to a journal.
    """
    quotas = np.asarray(quotas, dtype=np.int64)
    if state is None:
        state = SelectionState.empty(quotas)
    elif not np.array_equal(state.quotas, quotas):
        raise ValidationError("resumed state quotas do not match the requested quotas")
    for shard in shards:
        leaf_idx, distances = assign_batch(shard.vectors, hierarchy)
        record = SelectionState(quotas, state.fold(leaf_idx, shard.window_ids, distances), len(shard))
        state.processed += record.processed
        if records is not None:
            records.append(record)
    return state


def merge(a: SelectionState, b: SelectionState) -> SelectionState:
    """Combine partition states: ``b``'s entries folded into a copy of ``a``.

    The result is the state one stream over both partitions' records would
    reach, so merging is associative and commutative.
    """
    if not np.array_equal(a.quotas, b.quotas):
        raise ValidationError("cannot merge selection states with different quotas")
    merged = SelectionState(a.quotas, a.held, a.processed + b.processed)
    merged.fold(b.held["leaf"], b.held["window_id"], b.held["distance"])
    return merged


def count_populations(shards: Iterable[EmbeddingShard], hierarchy: ClusterHierarchy):
    """One counting pass: per-leaf populations.  A shard whose dim is not
    the model's is a ValidationError."""
    pops = np.zeros(hierarchy.leaf_count, dtype=np.int64)
    for shard in shards:
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


def save_checkpoint(state: SelectionState, path: str | Path, end: int = 0, digests=()) -> int:
    """Append ``state`` as one record to the checkpoint journal ``path``,
    whose first ``end`` bytes are whole records, and return the journal's
    new size.  With ``end`` 0 the journal is begun: a header with the
    state's quotas replaces ``path`` atomically first.  The layout is
    README's formats table.

    A record holds ``digests``, 32-byte SHA-256s of the shards it covers,
    and the state's processed count and held rows.  A checkpointed run
    appends one per shard, from :func:`stream_select`'s ``records``: the
    shard's digest, its record count and the rows its fold kept.  Saving a
    whole state to a new journal writes one record of it, so identical
    states give identical bytes.  Bytes past ``end``, a record a crash cut
    short, are cut off before the append.
    """
    if not end:
        header = CHECKPOINT_MAGIC + struct.pack("<IQ", CHECKPOINT_VERSION, len(state.quotas))
        header += state.quotas.astype("<u8").tobytes()
        write_atomic(path, header)
        end = len(header)
    held = state.held
    length = 24 + 32 * len(digests) + _HELD.itemsize * len(held)
    body = struct.pack("<" + _RECORD_HEAD, length, len(digests), state.processed, len(held))
    body += b"".join(digests) + held.tobytes()
    return append_durable(path, body + hashlib.sha256(body).digest(), end)


def load_checkpoint(path: str | Path) -> tuple[SelectionState, list[bytes], int]:
    """Replay a checkpoint journal: every whole record's rows in one fold.
    Returns ``(state, digests, end)``: the replayed state, the shard
    digests of its records in journal order, and the size of its whole
    records, where the next append goes.

    The replay gives the state the records were cut from, whatever their
    order and split: each row of that state is in the record of the shard
    that brought it (see the module docstring), and every journaled row
    is a record that stream saw.  A last record the file ends inside, or
    whose checksum fails at the end of the file, is the torn tail of an
    append: it is dropped, and ``end`` is where it starts, so the next
    append cuts it off and its shard is folded again.  Every other fault
    is a :class:`ParseError` located as README's formats table says.
    """
    reader = BinaryReader(path, CHECKPOINT_MAGIC)
    version, leaf_count = reader.unpack("IQ", "header")
    if version != CHECKPOINT_VERSION:
        raise reader.error(f"unsupported checkpoint version {version}")
    if leaf_count > (len(reader.data) - reader.pos) // 8:
        raise reader.error(f"leaf count {leaf_count} exceeds the file size", 12)
    quotas = reader.array("<u8", leaf_count, "leaf quota")
    big = np.flatnonzero(quotas > np.iinfo(np.int64).max)
    if len(big):
        raise reader.error(f"leaf {big[0]} quota {quotas[big[0]]} is 2**63 or more", reader.start + 8 * int(big[0]))
    state = SelectionState(quotas.astype(np.int64), np.empty(0, _HELD))
    digests, parts, starts = [], [np.empty(0, _HELD)], [np.zeros(0, np.int64)]
    data = reader.data
    while (start := reader.pos) + 32 <= len(data):
        length, n, processed, m = reader.unpack(_RECORD_HEAD, "record head")
        stop = start + 8 + length
        if stop + 32 > len(data) or hashlib.sha256(memoryview(data)[start:stop]).digest() != data[stop : stop + 32]:
            if stop + 32 >= len(data):
                break  # the torn tail: the file ends inside this record or right after its bad checksum
            raise reader.error("record checksum mismatch", start)
        if length != 24 + 32 * n + _HELD.itemsize * m:
            raise reader.error(f"record length {length} is not that of {n} digests and {m} rows", start)
        digests += reader.array("V32", n, "shard digest").tolist()
        starts.append(reader.pos + _HELD.itemsize * np.arange(m, dtype=np.int64))
        parts.append(reader.array(_HELD, m, "entry"))
        reader.unpack("32x", "record checksum")
        state.processed += processed
    rows, at = np.concatenate(parts), np.concatenate(starts)
    leaf, d = rows["leaf"], rows["distance"]
    record = np.repeat(np.arange(len(parts)), [len(part) for part in parts])
    faults = (leaf < 0) | (leaf >= leaf_count) | ~np.isfinite(d) | (d < 0) | _repeats(rows, record)
    if faults.any():
        i = int(np.argmax(faults))
        if not 0 <= leaf[i] < leaf_count:
            fault = f"leaf {int(leaf[i]) % 2**64} outside 0..{leaf_count - 1}"
        elif np.isfinite(d[i]) and d[i] >= 0:
            fault = f"window id {rows['window_id'][i]} twice in leaf {leaf[i]}"
        else:
            fault = f"distance {d[i]}, not finite and >= 0"
        raise reader.error(f"record entry holds {fault}", int(at[i]))
    state.fold(leaf, rows["window_id"], d)
    return state, digests, start
