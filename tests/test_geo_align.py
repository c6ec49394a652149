import csv
import io
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pamcurate.core_model import GeoPoint, Hydrophone, Recording, window_id_of
from pamcurate.errors import ParseError, ValidationError
from pamcurate.geo_align import (
    PAIRS,
    AlignedWindowSet,
    align,
    aligned_from_sidecar,
    contains,
    fence_of,
    read_ais_csv,
    read_sidecar,
    write_sidecar,
)
from conftest import T0
from synth import AisPulse, ais_columns, align_reference, read_ais_csv_reference

LAT_SPAN_4KM = 2000.0 / 111195.0


def inside(fence, point: GeoPoint) -> bool:
    return bool(contains(fence, point.lat, point.lon))


class TestFence:
    def test_equator_spans(self):
        fence = fence_of(GeoPoint(0.0, 0.0), side_km=4.0)
        assert fence.lat_span_deg == pytest.approx(0.017986, abs=1e-6)
        assert fence.lon_span_deg == pytest.approx(0.017986, abs=1e-6)

    def test_tiny_fence_contains_only_center(self):
        fence = fence_of(GeoPoint(10.0, 20.0), side_km=1e-9)
        assert inside(fence, GeoPoint(10.0, 20.0))
        assert not inside(fence, GeoPoint(10.0 + 1e-7, 20.0))

    def test_longitude_span_doubles_at_60_degrees(self):
        fence = fence_of(GeoPoint(60.0, 0.0), side_km=4.0)
        assert np.isclose(fence.lon_span_deg, 2.0 * fence.lat_span_deg, rtol=1e-12)

    def test_polar_latitudes_rejected(self):
        with pytest.raises(ValidationError):
            fence_of(GeoPoint(89.5, 0.0), side_km=4.0)

    def test_nonpositive_side_rejected(self):
        with pytest.raises(ValidationError):
            fence_of(GeoPoint(0.0, 0.0), side_km=0.0)

    @pytest.mark.parametrize("side_km", [-1.0, float("nan"), float("inf"), -float("inf")])
    def test_non_finite_or_negative_side_rejected(self, side_km):
        with pytest.raises(ValidationError, match=f"side_km must be positive and finite, got {side_km}"):
            fence_of(GeoPoint(0.0, 0.0), side_km=side_km)

    def test_side_too_large_for_finite_spans_rejected(self):
        with pytest.raises(ValidationError, match="side_km 1e\\+306 too large"):
            fence_of(GeoPoint(0.0, 0.0), side_km=1e306)
        # A side that passes has finite spans at every supported latitude.
        for lat in (88.999999, -88.999999, 0.0):
            fence = fence_of(GeoPoint(lat, 0.0), side_km=1e305)
            assert np.isfinite([fence.lat_span_deg, fence.lon_span_deg]).all()


class TestContains:
    def test_center_inside(self):
        fence = fence_of(GeoPoint(0.0, 0.0), 4.0)
        assert inside(fence, fence.center)

    def test_three_km_north_outside_four_km_fence(self):
        fence = fence_of(GeoPoint(0.0, 0.0), 4.0)
        assert not inside(fence, GeoPoint(3000.0 / 111195.0, 0.0))

    def test_boundary_point_inside(self):
        fence = fence_of(GeoPoint(0.0, 0.0), 4.0)
        assert inside(fence, GeoPoint(LAT_SPAN_4KM, 0.0))

    def test_dateline_wrap(self):
        fence = fence_of(GeoPoint(0.0, 179.995), 4.0)
        assert inside(fence, GeoPoint(0.0, -179.995))
        assert not inside(fence, GeoPoint(0.0, -179.9))


def one_hydrophone_config(duration_s=100):
    return _config([Hydrophone(
        id="H1",
        location=GeoPoint(0.0, 0.0),
        recordings=(Recording(id="R1", start=T0, duration_s=duration_s, native_sample_rate_hz=64_000),),
    )])


def _config(hydrophones):
    from pamcurate.core_model import DeploymentConfig

    return DeploymentConfig(hydrophones=tuple(hydrophones))


def aligned_mmsi_time(columns, result) -> list[tuple[int, int]]:
    """The sorted ``(mmsi, time)`` of each aligned (pulse, hydrophone) pair."""
    aligned = columns[result.pulses]
    return sorted(zip(aligned["mmsi"].tolist(), aligned["time"].tolist()))


class TestAlign:
    def test_pulse_outside_every_fence(self):
        config = one_hydrophone_config()
        result = align(ais_columns([AisPulse(mmsi=1, time=T0 + 5, position=GeoPoint(1.0, 1.0))]), config)
        assert len(result.pulses) == 0 and len(result.windows) == 0
        assert result.unaligned == 1

    def test_window_offset_floor(self):
        config = one_hydrophone_config()
        result = align(ais_columns([AisPulse(mmsi=5, time=T0 + 25, position=GeoPoint(0.0, 0.0))]), config)
        assert result.pulses.tolist() == [0]
        assert result.windows.pairs.tolist() == [(window_id_of("H1", "R1", 20), 5)]

    def test_two_ships_one_window(self):
        config = one_hydrophone_config()
        pulses = [
            AisPulse(mmsi=111, time=T0 + 42, position=GeoPoint(0.001, 0.0)),
            AisPulse(mmsi=222, time=T0 + 48, position=GeoPoint(-0.001, 0.0)),
        ]
        result = align(ais_columns(pulses), config)
        wid = window_id_of("H1", "R1", 40)
        assert result.windows.pairs.tolist() == [(wid, 111), (wid, 222)]

    def test_incomplete_trailing_window_excluded(self):
        config = one_hydrophone_config(duration_s=25)
        # offset 20 exists as audio but is only 5 s long; never aligned.
        result = align(ais_columns([AisPulse(mmsi=1, time=T0 + 22, position=GeoPoint(0.0, 0.0))]), config)
        assert len(result.windows) == 0
        ok = align(ais_columns([AisPulse(mmsi=1, time=T0 + 5, position=GeoPoint(0.0, 0.0))]), config)
        assert len(ok.windows) == 1

    def test_time_outside_recordings_excluded(self):
        config = one_hydrophone_config(duration_s=100)
        for t in (T0 - 1, T0 + 100, T0 + 5000):
            result = align(ais_columns([AisPulse(mmsi=1, time=t, position=GeoPoint(0.0, 0.0))]), config)
            assert len(result.windows) == 0

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        config = one_hydrophone_config(duration_s=500)
        pulses = [
            AisPulse(
                mmsi=int(rng.integers(1, 6)),
                time=T0 + int(rng.integers(0, 600)),
                position=GeoPoint(float(rng.normal(0, 0.02)), float(rng.normal(0, 0.02))),
            )
            for _ in range(200)
        ]
        shuffled = list(pulses)
        rng.shuffle(shuffled)
        forward, backward = ais_columns(pulses), ais_columns(shuffled)
        forward_result, backward_result = align(forward, config), align(backward, config)
        assert forward_result.windows == backward_result.windows
        assert aligned_mmsi_time(forward, forward_result) == aligned_mmsi_time(backward, backward_result)
        assert forward_result.unaligned == backward_result.unaligned

    def test_shrinking_fence_never_adds_windows(self):
        rng = np.random.default_rng(1)
        config = one_hydrophone_config(duration_s=500)
        pulses = [
            AisPulse(
                mmsi=int(rng.integers(1, 9)),
                time=T0 + int(rng.integers(0, 500)),
                position=GeoPoint(float(rng.normal(0, 0.03)), float(rng.normal(0, 0.03))),
            )
            for _ in range(300)
        ]
        wide = set(align(ais_columns(pulses), config, side_km=4.0).windows.pairs["window_id"].tolist())
        narrow = set(align(ais_columns(pulses), config, side_km=2.0).windows.pairs["window_id"].tolist())
        assert narrow <= wide

    def test_pulse_and_window_sets_consistent(self):
        rng = np.random.default_rng(2)
        config = one_hydrophone_config(duration_s=300)
        pulses = [
            AisPulse(
                mmsi=int(rng.integers(1, 4)),
                time=T0 + int(rng.integers(0, 400)),
                position=GeoPoint(float(rng.normal(0, 0.02)), float(rng.normal(0, 0.02))),
            )
            for _ in range(100)
        ]
        columns = ais_columns(pulses)
        result = align(columns, config)
        window_ids = set(result.windows.pairs["window_id"].tolist())
        assert set(columns["mmsi"][result.pulses].tolist()) == set(result.windows.pairs["mmsi"].tolist())
        assert len(result.windows) == len(window_ids)

    def test_overlapping_fences_align_to_both(self):
        offset_deg = 1000.0 / 111195.0  # 1 km apart: both 4 km fences cover the midpoint
        config = _config(
            [
                Hydrophone(
                    id=f"H{i}",
                    location=GeoPoint(i * offset_deg, 0.0),
                    recordings=(Recording(id="R1", start=T0, duration_s=100, native_sample_rate_hz=1000),),
                )
                for i in (0, 1)
            ]
        )
        result = align(ais_columns([AisPulse(mmsi=9, time=T0 + 3, position=GeoPoint(offset_deg / 2, 0.0))]), config)
        assert len(result.pulses) == 2
        hydrophones, _, _ = config.window_index().coordinates(result.windows.pairs["window_id"], "aligned")
        assert set(hydrophones.tolist()) == {"H0", "H1"}
        assert len(result.windows) == 2

    def test_union_matches_single_pass(self):
        rng = np.random.default_rng(3)
        config = one_hydrophone_config(duration_s=300)
        pulses = [
            AisPulse(
                mmsi=int(rng.integers(1, 5)),
                time=T0 + int(rng.integers(0, 300)),
                position=GeoPoint(float(rng.normal(0, 0.02)), float(rng.normal(0, 0.02))),
            )
            for _ in range(120)
        ]
        whole = align(ais_columns(pulses), config).windows
        both = np.concatenate([align(ais_columns(pulses[i::2]), config).windows.pairs for i in (0, 1)])
        assert AlignedWindowSet.of(both["window_id"], both["mmsi"]) == whole

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0, 1, 9, 2**63, 2**64 - 1]) | st.integers(0, 2**64 - 1),
                              st.integers(1, 5)), max_size=20))
    def test_len_is_the_number_of_distinct_windows(self, pairs):
        window_ids = np.array([wid for wid, _ in pairs], dtype=np.uint64)
        aligned = AlignedWindowSet.of(window_ids, [mmsi for _, mmsi in pairs])
        assert len(aligned) == len(np.unique(window_ids))


class TestAisCsv:
    CSV = (
        "MMSI,BaseDateTime,LAT,LON,SOG,VesselType,Extra\n"
        "366000001,2023-06-01T00:00:05,0.001,0.0,9.9,70,x\n"
        "366000002,2023-06-01T00:00:15,-0.001,0.002,1.2,,y\n"
        "notanumber,2023-06-01T00:00:25,0.0,0.0,0.0,70,z\n"
        "366000003,garbage-time,0.0,0.0,0.0,70,w\n"
        "366000004,2023-06-01T00:00:35,95.0,0.0,0.0,70,v\n"
    )

    def test_parse_tolerant(self, tmp_path):
        path = tmp_path / "ais.csv"
        path.write_text(self.CSV)
        pulses, rejected = read_ais_csv(path)
        assert rejected == 3
        assert pulses["mmsi"].tolist() == [366000001, 366000002]
        # The columnar reader checks VesselType but keeps no column for it.
        reference, _ = read_ais_csv_reference(path)
        assert reference[0].vessel_type == 70 and reference[1].vessel_type is None
        assert np.array_equal(pulses, ais_columns(reference))
        assert pulses["time"][0] == T0 + 5

    def test_undecodable_byte_rejects_its_row(self, tmp_path):
        path = tmp_path / "ais.csv"
        path.write_bytes(
            b"MMSI,BaseDateTime,LAT,LON\n"
            b"366000001,2023-06-01T00:00:05,0.001,0.0\n"
            b"36600\xff0002,2023-06-01T00:00:15,0.0,0.0\n"
            b"366000003,2023-06-01T00:00:25,0.0\xc3,0.0\n"
            b"366000004,2023-06-01T00:00:35,0.0,0.0\n"
        )
        pulses, rejected = read_ais_csv(path)
        assert rejected == 2
        assert pulses["mmsi"].tolist() == [366000001, 366000004]
        reference, reference_rejected = read_ais_csv_reference(path)
        assert np.array_equal(pulses, ais_columns(reference)) and reference_rejected == 2

    @pytest.mark.parametrize("line", [1, 3])
    def test_cell_over_the_csv_field_limit_is_a_located_error(self, tmp_path, line):
        lines = ["MMSI,BaseDateTime,LAT,LON", "366000001,2023-06-01T00:00:05,0.0,0.0", "366000002,2023-06-01T00:00:15,0.0,0.0"]
        lines[line - 1] += "," + "x" * (csv.field_size_limit() + 1)
        path = tmp_path / "ais.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="bad AIS CSV: field larger than field limit") as err:
            read_ais_csv(path)
        assert err.value.offset == line and err.value.path == str(path)

    def test_missing_columns_fatal(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("MMSI,LAT,LON\n1,0,0\n")
        with pytest.raises(ParseError):
            read_ais_csv(path)


class TestSidecar:
    def test_round_trip_and_lexicographic_order(self, tmp_path):
        config = one_hydrophone_config(duration_s=300)
        index = config.window_index()
        wids = index.ids[:3].tolist()
        aligned = AlignedWindowSet.of([wids[0], wids[0], wids[2]], [12, 7, 7])
        path = tmp_path / "aligned.csv"
        write_sidecar(aligned, path)
        lines = path.read_text().splitlines()
        assert lines == sorted(lines)
        pairs = read_sidecar(path)
        assert pairs.dtype == PAIRS
        assert pairs.tolist() == [tuple(map(int, line.split(","))) for line in lines]
        rebuilt = aligned_from_sidecar(pairs, index)
        assert rebuilt == aligned

    def test_unknown_window_rejected(self):
        index = one_hydrophone_config().window_index()
        for wid in (12345, 0, 2**64 - 1):
            with pytest.raises(ValidationError, match="not present"):
                aligned_from_sidecar(np.array([(wid, 1)], dtype=PAIRS), index)

    def test_bad_line_error(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1,2\nnope\n")
        with pytest.raises(ParseError) as err:
            read_sidecar(path)
        assert err.value.offset == 2

    @pytest.mark.parametrize("wid", [-1, 2**64])
    def test_window_id_outside_u64_is_a_bad_line(self, tmp_path, wid):
        path = tmp_path / "s.csv"
        path.write_text(f"1,2\n{wid},2\n")
        with pytest.raises(ParseError) as err:
            read_sidecar(path)
        assert err.value.offset == 2

    @pytest.mark.parametrize(
        "line", ["1_0,5", "+7,12", "07,12", "7,012", "7, 12", "7,12 ", " 7,12", "\u0663,12", "1.5,12", "7,", "7,12,1"]
        + ["1" + "0" * 20 + ",12"]
    )
    def test_line_not_plain_ascii_digits_is_a_bad_line(self, tmp_path, line):
        path = tmp_path / "s.csv"
        path.write_text(f"1,2\n\n{line}\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_sidecar(path)
        assert err.value.offset == 3

    def test_undecodable_byte_is_a_bad_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"1,2\n3,4\xff\n")
        with pytest.raises(ParseError) as err:
            read_sidecar(path)
        assert err.value.offset == 2

    def test_empty_lines_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("\n0,2\n\n18446744073709551615,999999999\n")
        assert read_sidecar(path).tolist() == [(0, 2), (2**64 - 1, 999_999_999)]

    @pytest.mark.parametrize("mmsi", [-5, 0, 10**9, 2**70])
    def test_mmsi_outside_range_is_a_bad_line(self, tmp_path, mmsi):
        path = tmp_path / "s.csv"
        path.write_text(f"1,2\n3,{mmsi}\n")
        with pytest.raises(ParseError) as err:
            read_sidecar(path)
        assert err.value.offset == 2


class TestVesselType:
    def test_infinite_vessel_type_rejected(self, tmp_path):
        path = tmp_path / "ais.csv"
        path.write_text(
            "MMSI,BaseDateTime,LAT,LON,VesselType\n"
            "366000001,2023-06-01T00:00:05,0.0,0.0,70\n"
            "366000002,2023-06-01T00:00:05,0.0,0.0,inf\n"
            "366000003,2023-06-01T00:00:05,0.0,0.0,-inf\n"
            "366000004,2023-06-01T00:00:05,0.0,0.0,1e400\n"
        )
        pulses, rejected = read_ais_csv(path)
        assert rejected == 3
        assert pulses["mmsi"].tolist() == [366000001]


# ---------------------------------------------------------------------------
# The columnar reader and aligner against the per-row reference
# ---------------------------------------------------------------------------

TIMESTAMPS = [
    "2023-06-01T00:00:05",
    "2023-06-01T23:59:59",
    "2024-02-29T12:00:00",
    "0001-01-01T00:00:00",
    "9999-12-31T23:59:59",
    "1969-12-31T23:59:59",
    "2023-06-01T00:00:05+02:00",
    "2023-06-01T00:00:05-05:30",
    "2023-06-01T00:00:05Z",
    "2023-06-01T00:00:05.9",
    "1969-12-31T23:59:59.5",
    "2023-06-01T00:00:05.123456789",
    "2023-06-01 00:00:05",
    "20230601T000005",
    "2023-06-01",
    "2023-06-01T00:00",
    "2023-02-30T00:00:00",
    "2023-06-01T24:00:00",
    "2023-06-01T00:00:60",
    "2023-06-01T00:60:00",
    "0000-01-01T00:00:00",
    "٢٠٢٣-06-01T00:00:05",
    "2023-06-01T0٠:00:05",
    "２０２３-06-01T00:00:05",
    " 2023-06-01T00:00:05",
    "2023-06-01T00:00:05 ",
    "garbage",
    "",
]
MMSIS = ["366000001", "+5", " 5", "5 ", "1_000", "0", "-5", "999999999", "1000000000", "1234567890", "٥", "abc", ""]
LATS = ["0.0", "0.001", "nan", "1e400", "-1e400", "inf", "90", "-90", "90.0000001", "-90.0", "1_0", " 1.5", "", "x"]
LONS = ["0.0", "180", "-180", "179.99999999999997", "540", "-540.5", "360", "nan", "1e400", "-0.0", "", "1,5"]
VESSELS = ["", "70", "70.9", " 70 ", "inf", "-inf", "1e400", "nan", "abc", "-3"]
KINDS = {"MMSI": MMSIS, "BaseDateTime": TIMESTAMPS, "LAT": LATS, "LON": LONS, "VesselType": VESSELS}


def _mostly(valid, edges):
    """``valid`` seven times in ten, else a value from the list ``edges``."""
    return st.integers(0, 9).flatmap(lambda k: valid if k < 7 else st.sampled_from(edges))


CELLS = {
    "MMSI": _mostly(st.integers(1, 999_999_999).map(str), MMSIS),
    "BaseDateTime": _mostly(
        st.datetimes(min_value=datetime(1900, 1, 1), max_value=datetime(2100, 1, 1)).map(
            lambda t: t.strftime("%Y-%m-%dT%H:%M:%S")
        ),
        TIMESTAMPS,
    ),
    "LAT": _mostly(st.floats(-90, 90).map(repr), LATS),
    "LON": _mostly(st.floats(-720, 720).map(repr), LONS),
    "VesselType": _mostly(st.sampled_from(["", "70", "30"]), VESSELS),
    "Extra": st.sampled_from(["x", "a,b", '"q"', ""]),
}


@st.composite
def ais_csv_text(draw) -> str:
    names = draw(st.permutations(list(CELLS)))
    if draw(st.integers(0, 7)) == 0:  # a missing required column is a ParseError in both
        names.pop(draw(st.integers(0, len(names) - 1)))
    if draw(st.booleans()):  # a repeated name means its last column
        names.insert(draw(st.integers(0, len(names))), draw(st.sampled_from(["MMSI", "LAT", "LON", "VesselType"])))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(names)
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 9)) == 0:
            writer.writerow([])
            continue
        row = [draw(CELLS[name]) for name in names]
        if draw(st.integers(0, 4)) == 0:  # ragged: short or long
            cut = draw(st.integers(0, len(row) + 2))
            row = row[:cut] if cut < len(row) else row + ["extra"] * (cut - len(row))
        writer.writerow(row)
    return out.getvalue()


def test_every_edge_cell_matches_reference(tmp_path):
    """Each edge value above in an otherwise valid row, one row per value."""
    valid = {"MMSI": "366000001", "BaseDateTime": "2023-06-01T00:00:05", "LAT": "0.5", "LON": "-0.5", "VesselType": "70"}
    rows = [
        ",".join(f'"{value}"' if name == column else valid[name] for name in valid)
        for column, values in KINDS.items()
        for value in values
    ]
    path = tmp_path / "ais.csv"
    path.write_text(",".join(valid) + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    expected, expected_rejected = read_ais_csv_reference(path)
    pulses, rejected = read_ais_csv(path)
    assert 0 < rejected == expected_rejected < len(rows)
    assert pulses.tobytes() == ais_columns(expected).tobytes()


@settings(max_examples=300, deadline=None)
@given(text=ais_csv_text())
def test_read_ais_csv_matches_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("ais") / "ais.csv"
    path.write_text(text, encoding="utf-8")
    try:
        expected, expected_rejected = read_ais_csv_reference(path)
    except ParseError:
        with pytest.raises(ParseError):
            read_ais_csv(path)
        return
    pulses, rejected = read_ais_csv(path)
    assert rejected == expected_rejected
    assert pulses.tobytes() == ais_columns(expected).tobytes()


@st.composite
def deployment_and_pulses(draw):
    """1-3 hydrophones with overlapping fences, some across the dateline;
    recordings with gaps, incomplete last windows and a zero-duration
    recording sharing its start with the next; pulses on fence edges, in
    gaps and in incomplete windows."""
    side_km = draw(st.sampled_from([1.0, 4.0]))
    base_lon = draw(st.sampled_from([0.0, 179.99, -179.995, 45.0]))
    hydrophones = []
    for i in range(draw(st.integers(1, 3))):
        lat = draw(st.sampled_from([0.0, 0.005, 60.0]))
        lon = GeoPoint(0.0, base_lon + draw(st.sampled_from([0.0, 0.01, -0.01]))).lon
        start, recordings = T0, []
        for j in range(draw(st.integers(0, 3) | st.integers(1, 3))):
            start += draw(st.sampled_from([0, 7, 100]))
            duration = draw(st.sampled_from([0, 5, 10, 25, 37, 100, 100, 1015]))  # 1015: offsets of 4 digits
            if draw(st.integers(0, 3)) == 0:
                recordings.append(Recording(id=f"Z{j}", start=start, duration_s=0, native_sample_rate_hz=1000))
            recordings.append(Recording(id=f"R{j}", start=start, duration_s=duration, native_sample_rate_hz=1000))
            start += duration
        hydrophones.append(Hydrophone(id=f"H{i}", location=GeoPoint(lat, lon), recordings=tuple(recordings)))
    config = _config(hydrophones)

    fences = [fence_of(h.location, side_km) for h in hydrophones]
    times = [T0] + [
        t for h in hydrophones for r in h.recordings for t in (r.start, r.end, r.end - 1, *range(r.start + 3, r.end, 10))
    ]
    pulses = []
    for _ in range(draw(st.integers(0, 25))):
        fence = draw(st.sampled_from(fences))
        steps = [0.0, 0.0, 0.5, -0.5, 1.0, -1.0, 1.0000001, 3.0]  # in units of the fence's half-side
        lat_step, lon_step = draw(st.sampled_from(steps)), draw(st.sampled_from(steps))
        lat = fence.center.lat + lat_step * fence.lat_span_deg
        lon = fence.center.lon + lon_step * fence.lon_span_deg + draw(st.sampled_from([0.0, 360.0, -360.0]))
        time = draw(st.sampled_from(times) | st.integers(T0 - 20, T0 + 800))
        pulses.append(AisPulse(mmsi=draw(st.integers(1, 4)), time=time, position=GeoPoint(lat, lon)))
    return config, pulses, side_km


@settings(max_examples=300, deadline=None)
@given(case=deployment_and_pulses())
def test_align_matches_reference(case):
    config, pulses, side_km = case
    expected, windows, rejects = align_reference(pulses, config, side_km)
    columns = ais_columns(pulses)
    result = align(columns, config, side_km)
    assert aligned_mmsi_time(columns, result) == sorted((p.mmsi, p.time) for p in expected)
    assert result.windows == windows
    assert result.unaligned == rejects.get("unaligned", 0)
