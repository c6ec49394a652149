"""Align AIS pulses with hydrophone recordings.

A pulse is considered recorded when it falls inside a hydrophone's square
fence, its timestamp lies within one of that hydrophone's recordings, and
the containing 10-second window is complete.  The fence is a square in a
local equirectangular projection; at the few-kilometre scale used here the
projection error is centimetres.
"""

from __future__ import annotations

import csv
import logging
import math
import re
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

import numpy as np

from .core_model import (
    MAX_MMSI,
    MMSI_DIGITS,
    U64_DIGITS,
    U64_MAX,
    WINDOW_S,
    DeploymentConfig,
    GeoPoint,
    WindowIndex,
    _recording_window_ids,
    decode_text,
    fields_equal,
    parse_utc,
    write_atomic,
)
from .errors import ParseError, ValidationError

logger = logging.getLogger(__name__)

# Metres per degree of latitude (mean Earth radius), pinned as a format-level
# constant: fences must be reproducible across implementations.
METERS_PER_DEG_LAT = 111_195.0

# Above this latitude the equirectangular longitude stretch degenerates.
MAX_FENCE_LAT = 89.0


@dataclass(frozen=True, slots=True)
class GeoFence:
    """Square fence reaching ``lat_span_deg`` and ``lon_span_deg`` to each side of ``center``."""

    center: GeoPoint
    lat_span_deg: float
    lon_span_deg: float


def check_side_km(side_km: float) -> None:
    """Raise :class:`ValidationError` unless ``side_km`` is a positive, finite
    fence side whose longitude span is finite up to :data:`MAX_FENCE_LAT`."""
    if not 0 < side_km < math.inf:
        raise ValidationError(f"side_km must be positive and finite, got {side_km}")
    if not math.isfinite(side_km * 500.0 / METERS_PER_DEG_LAT / math.cos(math.radians(MAX_FENCE_LAT))):
        raise ValidationError(f"side_km {side_km} too large: the fence spans overflow at +/-{MAX_FENCE_LAT} deg")


def fence_of(center: GeoPoint, side_km: float) -> GeoFence:
    """Fence of side ``side_km`` km centred on ``center``."""
    check_side_km(side_km)
    if abs(center.lat) >= MAX_FENCE_LAT:
        raise ValidationError(f"latitude {center.lat} unsupported: fence undefined above +/-{MAX_FENCE_LAT} deg")
    half_side_m = side_km * 500.0
    lat_span = half_side_m / METERS_PER_DEG_LAT
    lon_span = lat_span / math.cos(math.radians(center.lat))
    return GeoFence(center=center, lat_span_deg=lat_span, lon_span_deg=lon_span)


def contains(fence: GeoFence, lat, lon):
    """Closed-boundary membership of points given as latitude and longitude
    arrays (or scalars); points exactly on the edge are in."""
    dlon = np.abs(np.remainder(lon - fence.center.lon + 180.0, 360.0) - 180.0)
    return (np.abs(lat - fence.center.lat) <= fence.lat_span_deg) & (dlon <= fence.lon_span_deg)


# ---------------------------------------------------------------------------
# Alignment
# ---------------------------------------------------------------------------


# One (window, ship) pair: the ship was heard in the window.
PAIRS = np.dtype([("window_id", "<u8"), ("mmsi", "<i8")])


@dataclass(frozen=True, eq=False)
class AlignedWindowSet:
    """Windows with at least one aligned pulse, with the ships heard in each:
    ``pairs`` is a :data:`PAIRS` array sorted by ``(window_id, mmsi)`` with
    no repeated row.  ``len`` is the number of distinct windows."""

    pairs: np.ndarray = field(default_factory=lambda: np.empty(0, PAIRS))

    @staticmethod
    def of(window_ids, mmsis) -> "AlignedWindowSet":
        """The set of the ``(window_ids[i], mmsis[i])`` pairs, in any order and with repeats."""
        pairs = np.empty(len(window_ids), PAIRS)
        pairs["window_id"], pairs["mmsi"] = window_ids, mmsis
        pairs = pairs[np.lexsort((pairs["mmsi"], pairs["window_id"]))]
        fresh = np.ones(len(pairs), dtype=bool)
        fresh[1:] = pairs[1:] != pairs[:-1]
        return AlignedWindowSet(pairs[fresh])

    def __len__(self) -> int:
        ids = self.pairs["window_id"]  # sorted: count where the id changes
        return int(np.count_nonzero(ids[1:] != ids[:-1])) + (len(ids) > 0)

    __eq__ = fields_equal


@dataclass
class AlignmentResult:
    """``pulses`` holds the input row of each aligned (pulse, hydrophone)
    pair, hydrophone by hydrophone in config order; ``unaligned`` counts the
    input pulses that align to no hydrophone."""

    pulses: np.ndarray
    windows: AlignedWindowSet
    unaligned: int


def align(pulses: np.ndarray, config: DeploymentConfig, side_km: float = 4.0) -> AlignmentResult:
    """Match pulses (an :data:`AIS_COLUMNS` array) to complete recording
    windows inside hydrophone fences.

    A pulse landing inside the fences of several hydrophones aligns to each
    of them independently.  The windows and both counts are set-level
    functions of the pulse collection: input order does not matter.  Only
    ``pulses``, which lists input rows, follows the input order.
    """
    fences = [fence_of(h.location, side_km) for h in config.hydrophones]
    # Per hydrophone: the aligned pulse rows and their window ids.
    rows, ids = [np.empty(0, np.int64)], [np.empty(0, np.uint64)]
    for hydrophone, fence in zip(config.hydrophones, fences):
        recordings = sorted((r for r in hydrophone.recordings if r.window_count), key=attrgetter("start"))
        inside = np.flatnonzero(contains(fence, pulses["lat"], pulses["lon"]))
        if not recordings or not len(inside):
            continue
        # Complete windows only: a recording's incomplete tail is a gap.
        starts = np.array([r.start for r in recordings], dtype=np.int64)
        counts = np.array([r.window_count for r in recordings], dtype=np.int64)
        time = pulses["time"][inside]
        rec = np.searchsorted(starts, time, side="right") - 1
        slot = (time - starts[rec]) // WINDOW_S
        hit = (rec >= 0) & (slot < counts[rec])
        inside, rec, slot = inside[hit], rec[hit], slot[hit]
        # Hash each window hit once; sorted keys put each recording's hits together.
        keys, inverse = np.unique(rec * counts.max() + slot, return_inverse=True)
        hit_rec, hit_slot = np.divmod(keys, counts.max())
        hit_recordings, first = np.unique(hit_rec, return_index=True)
        offsets, bounds = (hit_slot * WINDOW_S).tolist(), [*first.tolist(), len(keys)]
        hit_ids = [
            _recording_window_ids(hydrophone.id, recordings[r].id, offsets[start:stop])
            for r, start, stop in zip(hit_recordings.tolist(), bounds, bounds[1:])
        ]
        rows.append(inside)
        ids.append(np.concatenate([np.empty(0, np.uint64), *hit_ids])[inverse])

    rows = np.concatenate(rows)
    windows = AlignedWindowSet.of(np.concatenate(ids), pulses["mmsi"][rows])
    return AlignmentResult(pulses=rows, windows=windows, unaligned=len(pulses) - len(np.unique(rows)))


# ---------------------------------------------------------------------------
# AIS CSV ingestion
# ---------------------------------------------------------------------------

_REQUIRED_COLUMNS = ("MMSI", "BaseDateTime", "LAT", "LON")
# Accepted pulses: ``lon`` is normalized to [-180, 180) as GeoPoint does.
AIS_COLUMNS = np.dtype([("mmsi", "<i8"), ("time", "<i8"), ("lat", "<f8"), ("lon", "<f8")])


def read_ais_csv(path: str | Path) -> tuple[np.ndarray, int]:
    """Read AIS pulses from a headered CSV into an :data:`AIS_COLUMNS` array,
    in file order; malformed rows are counted, not fatal.

    Recognized columns: MMSI (1..999999999), BaseDateTime (see
    :func:`parse_utc`), LAT (-90..90), LON (finite, wrapped) and the
    optional VesselType, a finite number that is checked but not kept.
    Extra columns are ignored; a repeated column name means its last
    column, and a short row's missing cells are empty.  A byte that is not
    UTF-8 is a bad character of its cell.  A row the CSV reader cannot
    split, such as one with a cell longer than ``csv.field_size_limit()``,
    is a :class:`ParseError` at the line where the reader stopped.
    """
    mmsi, time, lat, lon = [], [], [], []
    rejected = 0
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            missing = [c for c in _REQUIRED_COLUMNS if c not in header]
            if missing:
                raise ParseError(f"AIS CSV missing columns {missing}", path=str(path), offset=1)
            column = {name: i for i, name in enumerate(header)}
            at_mmsi, at_time, at_lat, at_lon = (column[c] for c in _REQUIRED_COLUMNS)
            at_vessel = column.get("VesselType")
            for row in reader:
                if not row:
                    continue
                if len(row) < len(header):
                    row += [None] * (len(header) - len(row))
                try:
                    vessel = (row[at_vessel] or "").strip() if at_vessel is not None else ""
                    if vessel:
                        int(float(vessel))
                    ship = int(row[at_mmsi])
                    if not 0 < ship <= MAX_MMSI:
                        raise ValueError(ship)
                    when = parse_utc(row[at_time])
                    row_lat, row_lon = float(row[at_lat]), float(row[at_lon])
                except (ValueError, TypeError, OverflowError, ValidationError):
                    rejected += 1
                    continue
                mmsi.append(ship)
                time.append(when)
                lat.append(row_lat)
                lon.append(row_lon)
        except csv.Error as exc:  # a row the reader cannot split, such as an oversized cell
            raise ParseError(f"bad AIS CSV: {exc}", path=str(path), offset=reader.line_num) from None
    pulses = np.empty(len(mmsi), dtype=AIS_COLUMNS)
    pulses["mmsi"], pulses["time"], pulses["lat"], pulses["lon"] = mmsi, time, lat, lon
    valid = np.isfinite(pulses["lat"]) & np.isfinite(pulses["lon"]) & (np.abs(pulses["lat"]) <= 90.0)
    rejected += len(pulses) - int(valid.sum())
    pulses = pulses[valid]
    pulses["lon"] = np.remainder(pulses["lon"] + 180.0, 360.0) - 180.0
    if rejected:
        logger.info("read_ais_csv: skipped %d malformed rows in %s", rejected, path)
    return pulses, rejected


# ---------------------------------------------------------------------------
# Aligned-window sidecar file
# ---------------------------------------------------------------------------


# Lines that are blank or ``window_id,mmsi``; possessive, so a long text
# leaves no backtracking stack behind, and without capturing groups, which
# make CPython 3.11's possessive repeat raise SystemError on some texts.
_SIDECAR_TEXT = re.compile(rf"(?:(?:{U64_DIGITS}),(?:{MMSI_DIGITS})\n|\n)*+(?:(?:{U64_DIGITS}),(?:{MMSI_DIGITS}))?")
# The 20-digit window ids of a text: those that may exceed U64_MAX.
_SIDECAR_ID20 = re.compile(r"^[0-9]{20}(?=,)", re.M)


def write_sidecar(aligned: AlignedWindowSet, path: str | Path) -> None:
    """Write ``window_id,mmsi`` lines, sorted lexicographically as strings."""
    lines = sorted(f"{wid},{mmsi}" for wid, mmsi in aligned.pairs.tolist())
    write_atomic(path, "".join(line + "\n" for line in lines))


def _sidecar_block(text: str) -> np.ndarray | None:
    """The window id and mmsi of each line of ``text``, whole sidecar lines,
    interleaved in one ``uint64`` array; None if a line is neither blank nor
    ``window_id,mmsi``, or a window id exceeds U64_MAX.  ``np.fromstring``
    reads every such id as U64_MAX, so only then are the 20-digit ids
    compared with it as text."""
    if not _SIDECAR_TEXT.fullmatch(text):
        return None
    values = np.fromstring(text.replace(",", " "), np.uint64, sep=" ", count=2 * text.count(","))
    if (values[0::2] == U64_MAX).any() and max(_SIDECAR_ID20.findall(text)) > str(U64_MAX):
        return None
    return values


def read_sidecar(path: str | Path) -> np.ndarray:
    """The :data:`PAIRS` row of every line, in file order.  Empty lines are
    skipped, and any other line that is not ``window_id,mmsi`` in plain ASCII
    decimal without leading zeros, with a window id in 0..U64_MAX and an
    mmsi in 1..MAX_MMSI, raises :class:`ParseError` at its line number.  The
    file is decoded by :func:`~pamcurate.core_model.decode_text`."""
    values = decode_text(path, _sidecar_block, np.uint64, "sidecar")
    pairs = np.empty(len(values) // 2, PAIRS)
    pairs["window_id"], pairs["mmsi"] = values[0::2], values[1::2]
    return pairs


def aligned_from_sidecar(pairs: np.ndarray, index: WindowIndex) -> AlignedWindowSet:
    """Rebuild an AlignedWindowSet from a :data:`PAIRS` array; every window id must be one of ``index``'s."""
    index.coordinates(pairs["window_id"], "sidecar")
    return AlignedWindowSet.of(pairs["window_id"], pairs["mmsi"])
