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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .core_model import (
    AisPulse,
    AudioWindow,
    DeploymentConfig,
    GeoPoint,
    Hydrophone,
    WINDOW_S,
    parse_utc,
    window_id_of,
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
    """Square fence around ``center`` with half-side ``half_side_m`` metres."""

    center: GeoPoint
    half_side_m: float
    lat_span_deg: float
    lon_span_deg: float


def fence_of(hydrophone: Hydrophone | GeoPoint, side_km: float) -> GeoFence:
    """Fence of side ``side_km`` km centred on a hydrophone (or bare point)."""
    center = hydrophone.location if isinstance(hydrophone, Hydrophone) else hydrophone
    if side_km <= 0:
        raise ValidationError(f"side_km must be positive, got {side_km}")
    if abs(center.lat) >= MAX_FENCE_LAT:
        raise ValidationError(f"latitude {center.lat} unsupported: fence undefined above +/-{MAX_FENCE_LAT} deg")
    half_side_m = side_km * 500.0
    lat_span = half_side_m / METERS_PER_DEG_LAT
    lon_span = lat_span / math.cos(math.radians(center.lat))
    if not (math.isfinite(lat_span) and math.isfinite(lon_span)):
        raise ValidationError(f"degenerate fence spans at {center}")
    return GeoFence(center=center, half_side_m=half_side_m, lat_span_deg=lat_span, lon_span_deg=lon_span)


def contains(fence: GeoFence, point: GeoPoint) -> bool:
    """Closed-boundary membership test (points exactly on the edge are in)."""
    if abs(point.lat - fence.center.lat) > fence.lat_span_deg:
        return False
    dlon = abs((point.lon - fence.center.lon + 180.0) % 360.0 - 180.0)
    return dlon <= fence.lon_span_deg


# ---------------------------------------------------------------------------
# Alignment
# ---------------------------------------------------------------------------


class AlignedPulse(NamedTuple):
    mmsi: int
    time: int
    window_id: int
    hydrophone_id: str


@dataclass
class AlignedWindowSet:
    """Windows with at least one aligned pulse, with the ships heard in each.

    ``windows`` maps window_id to the window's coordinates in the deployment;
    ``ships`` maps window_id to the (non-empty) set of mmsi observed there.
    """

    windows: dict[int, AudioWindow] = field(default_factory=dict)
    ships: dict[int, set[int]] = field(default_factory=dict)

    def add(self, window: AudioWindow, mmsi: int) -> None:
        self.windows.setdefault(window.window_id, window)
        self.ships.setdefault(window.window_id, set()).add(mmsi)

    def __len__(self) -> int:
        return len(self.windows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlignedWindowSet):
            return NotImplemented
        return self.windows == other.windows and self.ships == other.ships

    @staticmethod
    def union(a: "AlignedWindowSet", b: "AlignedWindowSet") -> "AlignedWindowSet":
        """Associative, commutative merge of partial alignments."""
        out = AlignedWindowSet(windows=dict(a.windows), ships={w: set(s) for w, s in a.ships.items()})
        for wid, window in b.windows.items():
            out.windows.setdefault(wid, window)
        for wid, mmsis in b.ships.items():
            out.ships.setdefault(wid, set()).update(mmsis)
        return out

    def to_pairs(self) -> list[tuple[int, int]]:
        return [(wid, mmsi) for wid in self.ships for mmsi in self.ships[wid]]


@dataclass
class AlignmentResult:
    pulses: list[AlignedPulse]
    windows: AlignedWindowSet
    rejects: dict[str, int]


def align(
    pulses: Iterable[AisPulse],
    config: DeploymentConfig,
    side_km: float = 4.0,
) -> AlignmentResult:
    """Match pulses to complete recording windows inside hydrophone fences.

    A pulse landing inside the fences of several hydrophones aligns to each
    of them independently.  The result is a pure set-level function of the
    pulse collection: input order does not matter.
    """
    fences = [(h, fence_of(h, side_km)) for h in config.hydrophones]
    result = AlignmentResult(pulses=[], windows=AlignedWindowSet(), rejects={})
    for pulse in pulses:
        matched = False
        for hydrophone, fence in fences:
            if not contains(fence, pulse.position):
                continue
            window = _window_at(hydrophone, pulse.time)
            if window is None:
                continue
            result.windows.add(window, pulse.mmsi)
            result.pulses.append(AlignedPulse(pulse.mmsi, pulse.time, window.window_id, hydrophone.id))
            matched = True
        if not matched:
            result.rejects["unaligned"] = result.rejects.get("unaligned", 0) + 1
    result.pulses.sort()
    return result


def _window_at(hydrophone: Hydrophone, time: int) -> AudioWindow | None:
    for rec in hydrophone.recordings:
        if rec.start <= time < rec.end:
            offset = (time - rec.start) // WINDOW_S * WINDOW_S
            if offset + WINDOW_S <= rec.duration_s:
                return AudioWindow(window_id_of(hydrophone.id, rec.id, offset), hydrophone.id, rec.id, offset)
            return None
    return None


# ---------------------------------------------------------------------------
# AIS CSV ingestion
# ---------------------------------------------------------------------------

_REQUIRED_COLUMNS = ("MMSI", "BaseDateTime", "LAT", "LON")


def read_ais_csv(path: str | Path) -> tuple[list[AisPulse], int]:
    """Read AIS pulses from a headered CSV; malformed rows are counted, not fatal.

    Recognized columns: MMSI, BaseDateTime (UTC, ISO-8601 seconds), LAT, LON
    and the optional VesselType.  Extra columns are ignored.
    """
    pulses: list[AisPulse] = []
    rejected = 0
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in _REQUIRED_COLUMNS if c not in header]
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
            except (ValueError, TypeError, ValidationError):
                rejected += 1
                continue
            pulses.append(pulse)
    if rejected:
        logger.info("read_ais_csv: skipped %d malformed rows in %s", rejected, path)
    return pulses, rejected


# ---------------------------------------------------------------------------
# Aligned-window sidecar file
# ---------------------------------------------------------------------------


def write_sidecar(aligned: AlignedWindowSet, path: str | Path) -> None:
    """Write ``window_id,mmsi`` lines, sorted lexicographically as strings."""
    lines = sorted(f"{wid},{mmsi}" for wid, mmsi in aligned.to_pairs())
    write_atomic(path, "".join(line + "\n" for line in lines))


def read_sidecar(path: str | Path) -> list[tuple[int, int]]:
    pairs: list[tuple[int, int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                wid_text, mmsi_text = line.split(",")
                pairs.append((int(wid_text), int(mmsi_text)))
            except ValueError:
                raise ParseError(f"bad sidecar line {line!r}", path=str(path), offset=lineno) from None
    return pairs


def aligned_from_sidecar(pairs: Sequence[tuple[int, int]], config: DeploymentConfig) -> AlignedWindowSet:
    """Rebuild an AlignedWindowSet from sidecar pairs, validating every id."""
    index = config.window_index()
    out = AlignedWindowSet()
    for wid, mmsi in pairs:
        window = index.get(wid)
        if window is None:
            raise ValidationError(f"window_id {wid} not present in the deployment config")
        out.add(window, mmsi)
    return out
