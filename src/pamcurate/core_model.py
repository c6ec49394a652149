"""Domain types, identifiers, and file formats shared by every pipeline stage.

The atomic unit of curation is a 10-second, non-overlapping window of one
hydrophone recording.  Windows are addressed by a content-derived 64-bit id
(see :func:`window_id_of`) so that shards and manifests produced by
independent workers agree without coordination.

File formats owned by this module:

* Embedding shard (binary, little-endian): magic ``PAMEMB01``, ``u32 dim``,
  ``u64 count``, then ``count`` records of ``[u64 window_id][dim * f32]``.
* Curation manifest (UTF-8 text): one ``key=value`` record per line in
  canonical key order, lines sorted by ``window_id``; in memory a
  :class:`CurationManifest`, one :data:`MANIFEST` array.
* Deployment config (JSON): hydrophones with locations and recordings.

Every file the package writes goes through :func:`write_atomic`, so a
crashed writer leaves either the old file or the complete new one, apart
from the selection checkpoint's journal records, which go through
:func:`append_durable`.  Every binary file it reads is decoded by
:class:`BinaryReader`.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import struct
from sys import intern
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import islice, repeat
from pathlib import Path

import numpy as np

from .errors import (
    ParseError,
    ShardDimError,
    ShardMagicError,
    ShardTruncatedError,
    ValidationError,
)

WINDOW_S = 10
SHARD_MAGIC = b"PAMEMB01"
# numpy caps a dtype at 2**31 - 1 bytes; a shard record takes 8 + 4*dim.
MAX_SHARD_DIM = (2**31 - 1 - 8) // 4
MANIFEST_SOURCES = ("ais", "hkmeans")
MANIFEST_KEYS = ("window_id", "hydrophone_id", "recording_id", "offset_s", "source", "mmsi", "cluster_path")
# One manifest row per field of MANIFEST_KEYS; ``mmsi`` 0 and ``cluster_path`` "" mean absent.
MANIFEST = np.dtype({"names": list(MANIFEST_KEYS), "formats": ["<u8", "O", "O", "<i8", "O", "<i8", "O"]})
U64_MAX = 2**64 - 1
MAX_MMSI = 999_999_999
# Integers in plain ASCII digits without leading zeros, so a file that reads
# back writes the same bytes.  A U64_DIGITS match can still exceed U64_MAX;
# MAX_MMSI is all nines, so its digit count bounds an MMSI_DIGITS match.
U64_DIGITS = r"0|[1-9][0-9]{0,19}"
MMSI_DIGITS = rf"[1-9][0-9]{{0,{len(str(MAX_MMSI)) - 1}}}"
_MANIFEST_LINE = re.compile(
    rf"window_id=({U64_DIGITS}) hydrophone_id=(\S*) recording_id=(\S*) offset_s=(0|[1-9][0-9]{{0,17}})"
    rf" source=(\S*)(?: mmsi=({MMSI_DIGITS}))?(?: cluster_path=(\S+))?"
)

_TOKEN_RE = re.compile(r"[A-Za-z0-9_.\-]+\Z")
_SOURCE_RE = re.compile(rf"(?:{'|'.join(MANIFEST_SOURCES)})\Z")
_CLUSTER_PATH_RE = re.compile(r"(?:[0-9]+(?:/[0-9]+)*)?\Z")  # "" is an absent path
# Characters of a text file decoded at a time, so a reader's transient
# memory does not grow with the file.  Blocks twice this size decoded no
# faster and left more heap behind, raising a pipeline run's peak RSS.
TEXT_BLOCK = 1 << 15
_EPOCH = datetime(1970, 1, 1)
_EPOCH_UTC = _EPOCH.replace(tzinfo=timezone.utc)
_UTC_FIRST, _UTC_LAST = -62135596800, 253402300799  # years 1 to 9999, the span format_utc writes
_UMASK = os.umask(0o022)  # mkstemp creates 0600 files; outputs get 0666 & ~umask
os.umask(_UMASK)


def write_atomic(path: str | Path, data: bytes | str) -> None:
    """Replace ``path`` with ``data`` (a ``str`` is written as UTF-8) through
    a fsynced temporary file in the same directory and :func:`os.replace`,
    so ``path`` only ever holds the old or the complete new bytes.  On any
    exception before the rename the temporary file is removed.  The
    directory is fsynced after the rename, so a later write cannot reach the
    disk before this one."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
            fh.flush()
            os.fchmod(fh.fileno(), 0o666 & ~_UMASK)
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    # The rename is durable only once the directory entry is on disk.
    _fsync_dir(path.parent)


def append_durable(path: str | Path, data: bytes, end: int) -> int:
    """Append ``data`` to ``path`` after its first ``end`` bytes, fsync it,
    and return the new size.  Bytes past ``end`` are the torn tail of an
    append a crash cut short, and are cut off first; a file shorter than
    ``end`` is a ValidationError.  A missing file is created, and then its
    directory is fsynced as :func:`write_atomic` does.  A crash leaves the
    first ``end`` bytes whole and a torn tail after them."""
    path = Path(path)
    created = not path.exists()
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        size = os.fstat(fd).st_size
        if size < end:
            raise ValidationError(f"{path} holds {size} bytes, fewer than the {end} already appended")
        if size > end:
            os.ftruncate(fd, end)
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
        os.fsync(fd)
    finally:
        os.close(fd)
    if created:
        _fsync_dir(path.parent)
    return end + len(data)


def _fsync_dir(directory: Path) -> None:
    """Fsync ``directory``, so the entries made in it are on disk."""
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def decode_text(path: str | Path, decode, dtype, what: str) -> np.ndarray:
    """The ``dtype`` arrays that ``decode`` makes of the text file ``path``,
    concatenated.  ``decode`` gets whole lines, about :data:`TEXT_BLOCK`
    characters at a time, read as UTF-8 with ``surrogateescape`` and
    universal newlines: a line ends in ``\\n`` (``\\r\\n`` and ``\\r`` are
    translated), apart perhaps from the last.  It returns None to reject a
    block, and must reject a block exactly when it rejects one of its lines
    on its own: the first line it rejects is then a :class:`ParseError`
    ``bad {what} line`` at its line number."""
    parts = [np.zeros(0, dtype)]
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        while block := fh.read(TEXT_BLOCK) + fh.readline():
            if (part := decode(block)) is None:
                raise _bad_line(fh, len(parts) - 1, block, decode, what)
            parts.append(part)
    return np.concatenate(parts)


def _bad_line(fh, before: int, block: str, decode, what: str) -> ParseError:
    """The error at the first line of ``block`` that ``decode`` rejects,
    where ``block`` follows ``before`` blocks of the text file ``fh``.  Lines
    are counted only here, by reading those blocks again with the same cut."""
    fh.seek(0)
    lineno = 1 + sum((fh.read(TEXT_BLOCK) + fh.readline()).count("\n") for _ in range(before))
    for lineno, line in enumerate(block.split("\n"), start=lineno):
        if decode(line + "\n") is None:
            return ParseError(f"bad {what} line {line!r}", path=fh.name, offset=lineno)


def _require_token(value: str, what: str) -> str:
    if not isinstance(value, str) or not _TOKEN_RE.match(value):
        raise ValidationError(f"{what} must be a non-empty token of [A-Za-z0-9_.-], got {value!r}")
    return value


def parse_utc(text: str) -> int:
    """Unix epoch seconds of an ISO-8601 timestamp, as ``datetime.fromisoformat``
    reads it: ``YYYY-MM-DDTHH:MM:SS`` and, on Python 3.11+, also a space
    separator, the compact ``20230601T000005`` form, ``Z`` or a UTC offset
    (converted to UTC), and fractional seconds (rounded down, before 1970
    too).  A timestamp without an offset is UTC.  Hour 24, second 60,
    impossible dates and non-ASCII digits raise :class:`ValidationError`."""
    try:
        dt = datetime.fromisoformat(text)
    except ValueError as exc:
        raise ValidationError(f"bad UTC timestamp {text!r}: {exc}") from None
    # Exact integer arithmetic; ``replace`` and ``timestamp`` cost five times more.
    elapsed = dt - (_EPOCH if dt.tzinfo is None else _EPOCH_UTC)
    return elapsed.days * 86400 + elapsed.seconds


def format_utc(epoch_s: int) -> str:
    return datetime.fromtimestamp(epoch_s, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A WGS84 coordinate; ``lon`` is normalized to the half-open [-180, 180)."""

    lat: float
    lon: float

    def __post_init__(self):
        if not (np.isfinite(self.lat) and np.isfinite(self.lon)):
            raise ValidationError(f"coordinates must be finite, got ({self.lat}, {self.lon})")
        if not -90.0 <= self.lat <= 90.0:
            raise ValidationError(f"latitude {self.lat} outside [-90, 90]")
        lon = ((self.lon + 180.0) % 360.0) - 180.0
        object.__setattr__(self, "lon", lon)


@dataclass(frozen=True, slots=True)
class Recording:
    """One continuous recording; ``start`` and ``end`` are Unix epoch seconds (UTC) in years 1 to 9999."""

    id: str
    start: int
    duration_s: int
    native_sample_rate_hz: int

    def __post_init__(self):
        _require_token(self.id, "recording id")
        if self.duration_s < 0:
            raise ValidationError(f"recording {self.id}: duration_s {self.duration_s} < 0")
        if not (_UTC_FIRST <= self.start and self.end <= _UTC_LAST):
            raise ValidationError(f"recording {self.id}: span {self.start}..{self.end} s leaves years 1-9999 UTC")
        if self.native_sample_rate_hz <= 0:
            raise ValidationError(f"recording {self.id}: sample rate must be positive")

    @property
    def end(self) -> int:
        return self.start + self.duration_s

    @property
    def window_count(self) -> int:
        return window_count(self.duration_s)

    @property
    def window_offsets(self) -> range:
        return range(0, self.window_count * WINDOW_S, WINDOW_S)


@dataclass(frozen=True, slots=True)
class Hydrophone:
    id: str
    location: GeoPoint
    recordings: tuple[Recording, ...] = ()

    def __post_init__(self):
        _require_token(self.id, "hydrophone id")
        object.__setattr__(self, "recordings", tuple(self.recordings))
        seen = set()
        for rec in self.recordings:
            if rec.id in seen:
                raise ValidationError(f"hydrophone {self.id}: duplicate recording id {rec.id}")
            seen.add(rec.id)
        by_start = sorted(self.recordings, key=lambda r: r.start)
        for prev, cur in zip(by_start, by_start[1:]):
            if cur.start < prev.end:
                raise ValidationError(
                    f"hydrophone {self.id}: recordings {prev.id} and {cur.id} overlap in time"
                )


# ---------------------------------------------------------------------------
# Window arithmetic and identifiers
# ---------------------------------------------------------------------------


def window_count(duration_s: int) -> int:
    """Number of complete 10-second windows in a recording of ``duration_s``."""
    if duration_s < 0:
        raise ValidationError(f"duration_s {duration_s} < 0")
    return int(duration_s) // WINDOW_S


def window_id_of(hydrophone_id: str, recording_id: str, offset_s: int) -> int:
    """Stable 64-bit id of a window.

    Defined as the big-endian integer value of the 8-byte BLAKE2b digest of
    the UTF-8 string ``"{hydrophone_id}/{recording_id}/{offset_s}"``.  The
    id scheme is part of the on-disk contract: independently produced shards
    and manifests must agree on it.
    """
    _require_token(hydrophone_id, "hydrophone id")
    _require_token(recording_id, "recording id")
    if offset_s < 0 or offset_s % WINDOW_S != 0:
        raise ValidationError(f"window offset {offset_s} must be a non-negative multiple of {WINDOW_S}")
    return int.from_bytes(_window_digests(hydrophone_id, recording_id, [offset_s])[0], "big")


def _window_digests(hydrophone_id: str, recording_id: str, offsets) -> list[bytes]:
    """The 8-byte window id digest of each of the int ``offsets`` of one
    recording, without the checks of :func:`window_id_of`.  The
    ``"{hydrophone_id}/{recording_id}/"`` prefix is hashed once; each digest
    copies that BLAKE2b state and adds its offset's digits."""
    prefix = hashlib.blake2b(f"{hydrophone_id}/{recording_id}/".encode(), digest_size=8)
    digests = []
    for offset in offsets:
        state = prefix.copy()
        state.update(b"%d" % offset)
        digests.append(state.digest())
    return digests


def _recording_window_ids(hydrophone_id: str, recording_id: str, offsets) -> np.ndarray:
    """The :func:`window_id_of` of each of the int ``offsets`` of one
    recording, without its checks, as a ``uint64`` array."""
    digests = _window_digests(hydrophone_id, recording_id, offsets)
    return np.fromiter(map(int.from_bytes, digests, repeat("big")), np.uint64, count=len(digests))


class WindowIndex:
    """Every window of a deployment by id: a sorted ``uint64`` id array with
    the hydrophone, recording and offset of each id."""

    def __init__(self, config: "DeploymentConfig"):
        recordings = [(h.id, rec) for h in config.hydrophones for rec in h.recordings]
        self._hydrophone_ids = np.array([hid for hid, _ in recordings], dtype=object)
        self._recording_ids = np.array([rec.id for _, rec in recordings], dtype=object)
        counts = np.array([rec.window_count for _, rec in recordings], dtype=np.int64)
        ids = np.concatenate(
            [np.empty(0, np.uint64), *(_recording_window_ids(hid, rec.id, rec.window_offsets) for hid, rec in recordings)]
        )
        recording = np.repeat(np.arange(len(recordings)), counts)
        first = np.repeat(np.cumsum(counts) - counts, counts)  # index of the first window of each id's recording
        offset = (np.arange(len(ids)) - first) * WINDOW_S
        order = np.argsort(ids)  # any order of equal ids is a collision below
        self.ids, self._recording, self._offset = ids[order], recording[order], offset[order]
        collided = np.flatnonzero(self.ids[1:] == self.ids[:-1])
        if len(collided):
            raise ValidationError(f"window id collision on {self.ids[collided[0]]}")

    def _find(self, keys: np.ndarray) -> np.ndarray:
        """The position in :attr:`ids` of each of the ``uint64`` ``keys``; -1 for an id not there."""
        if not len(self.ids):
            return np.full(len(keys), -1)
        pos = np.minimum(np.searchsorted(self.ids, keys), len(self.ids) - 1)
        return np.where(self.ids[pos] == keys, pos, -1)

    def coordinates(self, ids: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The hydrophone ids, recording ids and offsets of the windows of
        the ``uint64`` array ``ids``; a :class:`ValidationError` names the
        first id the deployment does not have, as a ``what`` window id."""
        ids = np.asarray(ids, dtype=np.uint64)
        pos = self._find(ids)
        if (pos < 0).any():
            raise ValidationError(f"{what} window_id {ids[pos.argmin()]} not present in the deployment config")
        recording = self._recording[pos]
        return self._hydrophone_ids[recording], self._recording_ids[recording], self._offset[pos]

    def __len__(self) -> int:
        return len(self.ids)


# ---------------------------------------------------------------------------
# Embedding shards
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddingShard:
    """A batch of (window_id, embedding vector) records.

    ``window_ids`` is a ``(n,)`` uint64 array, ``vectors`` a ``(n, dim)``
    float32 array.  Ids are unique within a shard and vectors finite and
    non-zero (the fit normalizes them), and ``dim`` is at most
    :data:`MAX_SHARD_DIM`, as in a shard file.
    """

    dim: int
    window_ids: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        if not 1 <= self.dim <= MAX_SHARD_DIM:
            raise ValidationError(f"shard dim must be in 1..{MAX_SHARD_DIM}, got {self.dim}")
        ids = np.ascontiguousarray(np.asarray(self.window_ids, dtype=np.uint64))
        vecs = np.ascontiguousarray(np.asarray(self.vectors, dtype=np.float32))
        if vecs.ndim != 2 or vecs.shape[1] != self.dim:
            raise ValidationError(f"vectors must have shape (n, {self.dim}), got {vecs.shape}")
        if ids.shape != (vecs.shape[0],):
            raise ValidationError(f"window_ids shape {ids.shape} does not match {vecs.shape[0]} vectors")
        if not np.all(np.isfinite(vecs)):
            raise ValidationError("shard vectors must be finite")
        if not vecs.any(axis=1).all():
            raise ValidationError("shard vectors must be non-zero")
        ordered = np.sort(ids)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValidationError("window_ids must be unique within a shard")
        object.__setattr__(self, "window_ids", ids)
        object.__setattr__(self, "vectors", vecs)

    def __len__(self) -> int:
        return len(self.window_ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddingShard):
            return NotImplemented
        return (
            self.dim == other.dim
            and np.array_equal(self.window_ids, other.window_ids)
            and np.array_equal(self.vectors, other.vectors)
        )


def write_shard(shard: EmbeddingShard, path: str | Path) -> None:
    record = np.empty(len(shard), dtype=_record_dtype(shard.dim))
    record["window_id"] = shard.window_ids
    record["vector"] = shard.vectors
    write_atomic(path, b"".join((SHARD_MAGIC, struct.pack("<IQ", shard.dim, len(shard)), record)))


def _record_dtype(dim: int) -> np.dtype:
    return np.dtype([("window_id", "<u8"), ("vector", "<f4", (dim,))])


class BinaryReader:
    """A little-endian cursor over a whole binary file that starts with
    ``magic``.  A read past the end raises ``truncated`` at the offset where
    the unfinished structure begins: a header at its first byte, an array at
    its first incomplete item.  Every error names the file.  ``data``, if
    given, is the file's bytes as the caller already read them."""

    def __init__(self, path: str | Path, magic: bytes, truncated=ParseError, bad_magic=ParseError, data=None):
        self.path = str(path)
        self.data = Path(path).read_bytes() if data is None else data
        self.pos = self.start = 0
        self.truncated = truncated
        (head,) = self.unpack(f"{len(magic)}s", "magic")
        if head != magic:
            raise self.error(f"bad magic {head!r}", kind=bad_magic)

    def error(self, message: str, at: int | None = None, kind=ParseError) -> ParseError:
        """A located error; ``at`` defaults to the start of the last read."""
        return kind(message, path=self.path, offset=self.start if at is None else at)

    def unpack(self, fmt: str, what: str) -> tuple:
        """The values of one struct ``fmt``, given without byte order."""
        self.start = self.pos
        self.pos += struct.calcsize("<" + fmt)
        if self.pos > len(self.data):
            raise self.error(f"file ends inside {what}", kind=self.truncated)
        return struct.unpack_from("<" + fmt, self.data, self.start)

    def array(self, dtype, count: int, what: str) -> np.ndarray:
        """``count`` items of ``dtype``, as a read-only view of the file."""
        self.start = self.pos
        itemsize = np.dtype(dtype).itemsize
        complete = min(count, (len(self.data) - self.start) // itemsize)
        if complete < count:
            raise self.error(f"{what} {complete} of {count} incomplete", self.start + complete * itemsize, self.truncated)
        self.pos += count * itemsize
        return np.frombuffer(self.data, dtype=dtype, count=count, offset=self.start)

    def end(self) -> None:
        if self.pos != len(self.data):
            raise self.error(f"{len(self.data) - self.pos} trailing bytes", self.pos)


def read_shard(path: str | Path, data: bytes | None = None) -> EmbeddingShard:
    """Read a shard file, or its bytes ``data`` already read from ``path``,
    raising a distinct error per malformation at the byte where it begins:
    magic at 0, dim at 8, count at 12, and record ``i`` at
    ``20 + i*(8+4*dim)`` for the first incomplete record, non-finite or
    zero vector, or window id that repeats an earlier record's."""
    reader = BinaryReader(path, SHARD_MAGIC, ShardTruncatedError, ShardMagicError, data)
    (dim,) = reader.unpack("I", "dim")
    if not 1 <= dim <= MAX_SHARD_DIM:
        raise reader.error(f"dim {dim} outside 1..{MAX_SHARD_DIM}", kind=ShardDimError)
    (count,) = reader.unpack("Q", "count")
    records = reader.array(_record_dtype(dim), count, "record")
    reader.end()
    ids, vectors = records["window_id"].copy(), records["vector"].copy()
    try:
        return EmbeddingShard(dim=dim, window_ids=ids, vectors=vectors)
    except ValidationError:
        # Located only on failure, so a good read does no extra work.
        repeats = np.ones(count, dtype=bool)
        repeats[np.unique(ids, return_index=True)[1]] = False
        finite = np.isfinite(vectors).all(axis=1)
        i = int(np.flatnonzero(repeats | ~finite | ~vectors.any(axis=1))[0])
        fault = "repeats an earlier window id" if repeats[i] else f"has a {'zero' if finite[i] else 'non-finite'} vector"
        raise reader.error(f"record {i} {fault}", reader.start + i * records.itemsize) from None


# ---------------------------------------------------------------------------
# Curation manifest
# ---------------------------------------------------------------------------


def _manifest_fault(rows: np.ndarray) -> tuple[int, str] | None:
    """The position of the first row of ``rows`` that breaks a manifest rule,
    and the rule; None if every row keeps them all.  Of a repeated window
    id, every row but the first is at fault."""

    def bad(key: str, pattern: re.Pattern) -> np.ndarray:
        """Rows whose ``key`` is not a ``str`` that ``pattern`` matches; each distinct value is matched once."""
        return np.isin(rows[key], [v for v in set(rows[key].tolist()) if not (isinstance(v, str) and pattern.match(v))])

    ids, offsets, mmsis = rows["window_id"], rows["offset_s"], rows["mmsi"]
    repeats = np.zeros(len(rows), dtype=bool)
    if not (ids[1:] > ids[:-1]).all():
        repeats[:] = True
        repeats[np.unique(ids, return_index=True)[1]] = False
    rules = (
        (bad("hydrophone_id", _TOKEN_RE), "hydrophone_id", "hydrophone id {!r} is not a token of [A-Za-z0-9_.-]"),
        (bad("recording_id", _TOKEN_RE), "recording_id", "recording id {!r} is not a token of [A-Za-z0-9_.-]"),
        ((offsets < 0) | (offsets % WINDOW_S != 0), "offset_s", "offset_s {} is not a non-negative multiple of 10"),
        (bad("source", _SOURCE_RE), "source", f"source {{!r}} not in {MANIFEST_SOURCES}"),
        ((mmsis < 0) | (mmsis > MAX_MMSI), "mmsi", f"mmsi {{}} outside 1..{MAX_MMSI}"),
        (bad("cluster_path", _CLUSTER_PATH_RE), "cluster_path", "cluster_path {!r} is not /-joined cluster indices"),
        (repeats, "window_id", "duplicate window_id {} in manifest"),
    )
    faults = [(int(mask.argmax()), rule) for rule, (mask, _, _) in enumerate(rules) if mask.any()]
    if not faults:
        return None
    row, rule = min(faults)
    _, key, message = rules[rule]
    return row, message.format(rows[row][key])


@dataclass(frozen=True, eq=False)
class CurationManifest:
    """The curated output dataset: ``rows`` is a :data:`MANIFEST` array sorted
    by window id, each id once.  Rows given in any order are sorted, and a
    row that breaks a rule of the manifest format is a ValidationError."""

    rows: np.ndarray = field(default_factory=lambda: np.empty(0, MANIFEST))

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=MANIFEST)
        if (fault := _manifest_fault(rows)) is not None:
            raise ValidationError(fault[1])
        object.__setattr__(self, "rows", rows[np.argsort(rows["window_id"], kind="stable")])

    @staticmethod
    def of(window_id, hydrophone_id, recording_id, offset_s, source, mmsi=0, cluster_path="") -> "CurationManifest":
        """The manifest of these columns; a scalar is repeated over every row."""
        columns = (window_id, hydrophone_id, recording_id, offset_s, source, mmsi, cluster_path)
        rows = np.zeros(len(window_id), MANIFEST)
        for key, column in zip(MANIFEST_KEYS, columns):
            rows[key] = column
        return CurationManifest(rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CurationManifest):
            return NotImplemented
        return np.array_equal(self.rows, other.rows)


def write_manifest(manifest: CurationManifest, path: str | Path) -> None:
    lines = (
        f"window_id={wid} hydrophone_id={hid} recording_id={rid} offset_s={off} source={source}"
        f"{f' mmsi={mmsi}' if mmsi else ''}{f' cluster_path={cpath}' if cpath else ''}\n"
        for wid, hid, rid, off, source, mmsi, cpath in manifest.rows.tolist()
    )
    write_atomic(path, "".join(lines))


def _manifest_block(text: str) -> np.ndarray | None:
    """The :data:`MANIFEST` rows of ``text``, whole manifest lines; None if a
    line is neither blank nor one ``_MANIFEST_LINE`` match, or a window id
    exceeds U64_MAX."""
    pieces = _MANIFEST_LINE.split(text)
    between = pieces[0::8]  # the text before, between and after the matches
    newlines = "".join(between)
    if newlines.count("\n") != len(newlines) or "" in between[1:-1]:
        return None
    rows = np.zeros(len(pieces) // 8, MANIFEST)
    try:
        rows["window_id"] = pieces[1::8]
    except OverflowError:
        return None
    # A handful of distinct ids, sources and paths repeat on every line: hold one copy of each.
    rows["hydrophone_id"] = list(map(intern, pieces[2::8]))
    rows["recording_id"] = list(map(intern, pieces[3::8]))
    rows["offset_s"] = pieces[4::8]
    rows["source"] = list(map(intern, pieces[5::8]))
    rows["mmsi"] = [mmsi or 0 for mmsi in pieces[6::8]]
    rows["cluster_path"] = [intern(cpath or "") for cpath in pieces[7::8]]
    return rows


def read_manifest(path: str | Path) -> CurationManifest:
    """Read a manifest file.  Blank lines are skipped, and any other bad line
    is a :class:`ParseError` at its line number: one that is not the keys in
    canonical order, with integers in plain ASCII decimal that fit their
    column, an mmsi in 1..MAX_MMSI and a non-empty cluster path; one with a
    value :class:`CurationManifest` rejects; and a repeated window id, at
    its second line.  The file is decoded by :func:`decode_text`; the line
    of a row that breaks a :class:`CurationManifest` rule is found by
    counting the file's non-blank lines, each of which holds one row."""
    rows = decode_text(path, _manifest_block, MANIFEST, "manifest")
    try:
        return CurationManifest(rows)
    except ValidationError:
        row, message = _manifest_fault(rows)
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        linenos = (lineno for lineno, line in enumerate(fh, start=1) if line != "\n")
        raise ParseError(message, path=str(path), offset=next(islice(linenos, row, None)))


# ---------------------------------------------------------------------------
# Deployment config
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeploymentConfig:
    hydrophones: tuple[Hydrophone, ...]

    def __post_init__(self):
        object.__setattr__(self, "hydrophones", tuple(self.hydrophones))
        seen = set()
        for h in self.hydrophones:
            if h.id in seen:
                raise ValidationError(f"duplicate hydrophone id {h.id}")
            seen.add(h.id)

    def window_index(self) -> WindowIndex:
        """Every window by id; raises :class:`ValidationError` on an id collision."""
        return WindowIndex(self)

    def total_windows(self) -> int:
        return sum(rec.window_count for h in self.hydrophones for rec in h.recordings)


def _json_field(record: dict, key: str, types: tuple[type, ...]):
    """``record[key]`` if its exact type is one of ``types``: a JSON ``true`` is a bool, not an int."""
    if type(value := record[key]) not in types:
        raise ValueError(f"{key} must be a JSON {'number' if float in types else 'integer'}, got {json.dumps(value)}")
    return value


def load_deployment(path: str | Path) -> DeploymentConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ParseError(f"bad deployment config: {exc}", path=str(path)) from None
    try:
        hydrophones = []
        for h in doc["hydrophones"]:
            recordings = tuple(
                Recording(
                    id=r["id"],
                    start=parse_utc(r["start"]) if isinstance(r["start"], str) else _json_field(r, "start", (int,)),
                    duration_s=_json_field(r, "duration_s", (int,)),
                    native_sample_rate_hz=_json_field(r, "native_sample_rate_hz", (int,)),
                )
                for r in h.get("recordings", [])
            )
            lat, lon = (float(_json_field(h, key, (int, float))) for key in ("lat", "lon"))
            hydrophones.append(Hydrophone(id=h["id"], location=GeoPoint(lat, lon), recordings=recordings))
        return DeploymentConfig(hydrophones=tuple(hydrophones))
    except (KeyError, TypeError, AttributeError, ValueError, OverflowError, ValidationError) as exc:
        raise ParseError(f"bad deployment config: missing/invalid field {exc}", path=str(path)) from None


def save_deployment(config: DeploymentConfig, path: str | Path) -> None:
    doc = {
        "hydrophones": [
            {
                "id": h.id,
                "lat": h.location.lat,
                "lon": h.location.lon,
                "recordings": [
                    {
                        "id": r.id,
                        "start": format_utc(r.start),
                        "duration_s": r.duration_s,
                        "native_sample_rate_hz": r.native_sample_rate_hz,
                    }
                    for r in h.recordings
                ],
            }
            for h in config.hydrophones
        ]
    }
    write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
