import hashlib
import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pamcurate import core_model
from pamcurate.core_model import (
    CurationManifest,
    DeploymentConfig,
    EmbeddingShard,
    GeoPoint,
    Hydrophone,
    MANIFEST,
    Recording,
    load_deployment,
    parse_utc,
    read_manifest,
    read_shard,
    save_deployment,
    window_count,
    window_id_of,
    write_manifest,
    write_shard,
)
from pamcurate.errors import (
    ParseError,
    ShardMagicError,
    ShardTruncatedError,
    ValidationError,
)

from conftest import random_shard
from synth import iter_windows

# Pinned once from the documented id scheme (BLAKE2b-64 of "H1/R1/0").
GOLDEN_WINDOW_ID = 3636452270766846254

TOKENS = st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-", min_size=1, max_size=12)
# The last window offset before each digit count grows, and the first after: 90/100, 990/1000, ... 10**12.
DIGIT_BOUNDARIES = [offset for k in range(2, 13) for offset in (10**k - 10, 10**k)]


class TestWindowArithmetic:
    def test_floor_division(self):
        assert window_count(95) == 9

    def test_empty_recording(self):
        assert window_count(0) == 0

    def test_corpus_scale_total(self):
        # 25,021 + 323,532 windows worth of audio.
        assert window_count(3_485_530) == 348_553

    def test_negative_duration_rejected(self):
        with pytest.raises(ValidationError):
            window_count(-1)


class TestParseUtc:
    @settings(max_examples=300, deadline=None)
    @given(
        when=st.datetimes(min_value=datetime(1430, 1, 2), max_value=datetime(2510, 12, 30)),
        zone=st.sampled_from([None, timezone.utc, timezone(timedelta(hours=5, minutes=30)), timezone(-timedelta(hours=11))]),
        sep=st.sampled_from(["T", " "]),
    )
    def test_matches_timestamp_truncated(self, when, zone, sep):
        # Where a float holds every microsecond, floor(timestamp()) is exact.
        text = when.replace(tzinfo=zone).isoformat(sep=sep)
        expected = datetime.fromisoformat(text)
        expected = expected if zone is not None else expected.replace(tzinfo=timezone.utc)
        assert parse_utc(text) == math.floor(expected.timestamp())

    def test_edges(self):
        assert parse_utc("1970-01-01T00:00:00") == 0
        assert parse_utc("1969-12-31T23:59:59.5") == -1  # down, not toward zero
        assert parse_utc("1969-12-31T23:59:59") == -1
        assert parse_utc("2023-06-01T02:00:05+02:00") == parse_utc("20230601T000005") == 1685577605
        assert parse_utc("9999-12-31T23:59:59.999999") == 253402300799
        for bad in ("2023-02-30T00:00:00", "2023-06-01T24:00:00", "2023-06-01T00:00:60", "garbage"):
            with pytest.raises(ValidationError):
                parse_utc(bad)


class TestWindowId:
    def test_deterministic(self):
        assert window_id_of("H1", "R7", 40) == window_id_of("H1", "R7", 40)

    def test_golden_value(self):
        assert window_id_of("H1", "R1", 0) == GOLDEN_WINDOW_ID

    def test_offset_must_be_multiple_of_window(self):
        with pytest.raises(ValidationError):
            window_id_of("H1", "R1", 15)
        with pytest.raises(ValidationError):
            window_id_of("H1", "R1", -10)

    def test_ids_are_tokens(self):
        with pytest.raises(ValidationError):
            window_id_of("H 1", "R1", 0)
        with pytest.raises(ValidationError):
            window_id_of("H1", "a/b", 0)

    def test_collision_free_over_corpus(self, deployment):
        ids = [w.window_id for w in iter_windows(deployment)]
        assert len(ids) == deployment.total_windows() == 60
        assert len(set(ids)) == len(ids)

    def test_collision_free_large_synthetic(self):
        ids = {
            window_id_of(f"H{h}", f"R{r}", o * 10)
            for h in range(4)
            for r in range(25)
            for o in range(200)
        }
        assert len(ids) == 4 * 25 * 200

    @settings(max_examples=200, deadline=None)
    @given(
        hydrophone=TOKENS,
        recording=TOKENS,
        offsets=st.lists(st.sampled_from(DIGIT_BOUNDARIES) | st.integers(0, 10**11).map(lambda k: 10 * k), max_size=20),
    )
    @example(hydrophone="H1", recording="R1", offsets=[])
    @example(hydrophone="H1", recording="R1", offsets=DIGIT_BOUNDARIES)
    def test_recording_window_ids_equal_window_id_of(self, hydrophone, recording, offsets):
        # Both against the id scheme written out here: BLAKE2b-64 of the whole key, big-endian.
        expected = [
            int.from_bytes(hashlib.blake2b(f"{hydrophone}/{recording}/{offset}".encode(), digest_size=8).digest(), "big")
            for offset in offsets
        ]
        ids = core_model._recording_window_ids(hydrophone, recording, offsets)
        assert ids.dtype == np.uint64
        assert ids.tolist() == expected
        assert [window_id_of(hydrophone, recording, offset) for offset in offsets] == expected


class TestShardIO:
    def test_round_trip(self, tmp_path):
        shard = EmbeddingShard(
            dim=4,
            window_ids=np.array([3, 1, 2], dtype=np.uint64),
            vectors=np.arange(12, dtype=np.float32).reshape(3, 4),
        )
        path = tmp_path / "s.bin"
        write_shard(shard, path)
        assert read_shard(path) == shard

    def test_empty_shard_valid(self, tmp_path):
        shard = EmbeddingShard(dim=5, window_ids=np.empty(0, np.uint64), vectors=np.empty((0, 5), np.float32))
        path = tmp_path / "empty.bin"
        write_shard(shard, path)
        loaded = read_shard(path)
        assert loaded == shard
        assert len(loaded) == 0

    def test_truncated_final_record_offset(self, tmp_path):
        rng = np.random.default_rng(0)
        shard = random_shard(rng, 3, 4)
        path = tmp_path / "t.bin"
        write_shard(shard, path)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(ShardTruncatedError) as err:
            read_shard(path)
        assert err.value.offset == 20 + 2 * (8 + 4 * 4)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 20)
        with pytest.raises(ShardMagicError) as err:
            read_shard(path)
        assert err.value.offset == 0

    def test_trailing_bytes_rejected(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "x.bin"
        write_shard(random_shard(rng, 2, 3), path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(ParseError):
            read_shard(path)

    def test_nonfinite_vectors_rejected(self):
        with pytest.raises(ValidationError):
            EmbeddingShard(dim=2, window_ids=np.array([1], np.uint64), vectors=np.array([[np.nan, 0.0]], np.float32))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            EmbeddingShard(dim=1, window_ids=np.array([7, 7], np.uint64), vectors=np.zeros((2, 1), np.float32))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 30), st.integers(1, 9))
    def test_round_trip_property(self, tmp_path_factory, seed, n, dim):
        rng = np.random.default_rng(seed)
        shard = random_shard(rng, n, dim)
        path = tmp_path_factory.mktemp("shards") / "p.bin"
        write_shard(shard, path)
        assert read_shard(path) == shard


class TestManifestIO:
    def _manifest(self):
        return CurationManifest.of(
            [5, 2], ["H1", "H1"], ["R1", "R1"], [0, 10], ["ais", "hkmeans"], [366000001, 0], ["", "1/3"]
        )

    def test_two_entry_golden_content(self, tmp_path):
        path = tmp_path / "m.txt"
        write_manifest(self._manifest(), path)
        assert path.read_text() == GOOD_LINES

    def test_round_trip(self, tmp_path):
        manifest = self._manifest()
        path = tmp_path / "m.txt"
        write_manifest(manifest, path)
        assert read_manifest(path) == manifest

    def test_empty_manifest_empty_file(self, tmp_path):
        path = tmp_path / "e.txt"
        write_manifest(CurationManifest(), path)
        assert path.read_bytes() == b""
        assert len(read_manifest(path)) == 0

    def test_duplicate_window_id_rejected(self):
        rows = self._manifest().rows
        with pytest.raises(ValidationError, match="5"):
            CurationManifest(rows[[1, 1]])

    def test_bad_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("window_id=1 hydrophone_id=H1 recording_id=R1 offset_s=0 source=ais\nnot a manifest line\n")
        with pytest.raises(ParseError) as err:
            read_manifest(path)
        assert err.value.offset == 2

    @pytest.mark.parametrize("line", [b"window_id=2 hydrophone_id=H\xff1", b"window_id=2\xc3 hydrophone_id=H1"])
    def test_undecodable_byte_is_a_bad_line(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_bytes(
            b"window_id=1 hydrophone_id=H1 recording_id=R1 offset_s=0 source=ais\n"
            + line + b" recording_id=R1 offset_s=0 source=ais\n"
        )
        with pytest.raises(ParseError) as err:
            read_manifest(path)
        assert err.value.offset == 2

    @pytest.mark.parametrize(
        "key, value",
        [
            ("offset_s", "3"),
            ("source", "other"),
            ("window_id", "-2"),
            ("window_id", "+9"),
            ("window_id", str(2**64)),
            ("window_id", "2"),  # line 1's id
            ("window_id", "09"),
            ("hydrophone_id", ""),
            ("recording_id", "R/1"),
            ("offset_s", str(2**63 * 10)),
            ("offset_s", "00"),
            ("mmsi", "0"),
            ("mmsi", "1_0"),
            ("mmsi", "\u0661\u0660"),
            ("mmsi", "1000000000"),
            ("mmsi", "0366000001"),
            ("cluster_path", "-1"),
            ("cluster_path", ""),
            ("cluster_path", "1//2"),
        ],
    )
    def test_every_bad_line_is_located(self, tmp_path, key, value):
        third = {"window_id": "9", "hydrophone_id": "H1", "recording_id": "R1", "offset_s": "0", "source": "ais"}
        path = tmp_path / "m.txt"
        path.write_text(GOOD_LINES + " ".join(f"{k}={v}" for k, v in {**third, key: value}.items()) + "\n")
        with pytest.raises(ParseError) as err:
            read_manifest(path)
        assert err.value.offset == 3

    def test_entry_validation(self):
        row = self._manifest().rows[:1]
        for key, value in [("source", "other"), ("offset_s", 3), ("hydrophone_id", "H 1"), ("recording_id", None),
                           ("mmsi", -1), ("mmsi", 10**9), ("cluster_path", "-1"), ("cluster_path", "1/")]:
            bad = row.copy()
            bad[key] = value
            with pytest.raises(ValidationError):
                CurationManifest(bad)
        with pytest.raises(OverflowError):
            CurationManifest.of([-1], ["H1"], ["R1"], [0], ["ais"])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 25))
    def test_round_trip_property(self, tmp_path_factory, seed, n):
        rng = np.random.default_rng(seed)
        wids = np.unique(rng.integers(0, 2**62, size=2 * n + 16, dtype=np.uint64))[:n]
        rows = np.empty(n, MANIFEST)
        rows["window_id"] = rng.permutation(wids)
        rows["hydrophone_id"] = [f"H{h}" for h in rng.integers(9, size=n)]
        rows["recording_id"] = [f"R{r}" for r in rng.integers(9, size=n)]
        rows["offset_s"] = rng.integers(100, size=n) * 10
        rows["source"] = np.where(rng.random(n) < 0.5, "ais", "hkmeans").astype(object)
        rows["mmsi"] = np.where(rng.random(n) < 0.5, rng.integers(1, 10**9, size=n), 0)
        rows["cluster_path"] = [
            "/".join(str(c) for c in rng.integers(0, 50, size=rng.integers(1, 4))) if rng.random() < 0.5 else ""
            for _ in range(n)
        ]
        manifest = CurationManifest(rows)
        assert manifest.rows["window_id"].tolist() == sorted(wids.tolist())
        path = tmp_path_factory.mktemp("manifests") / "p.txt"
        write_manifest(manifest, path)
        assert read_manifest(path) == manifest
        write_manifest(read_manifest(path), path.with_suffix(".again"))
        assert path.with_suffix(".again").read_bytes() == path.read_bytes()


GOOD_LINES = (
    "window_id=2 hydrophone_id=H1 recording_id=R1 offset_s=10 source=hkmeans cluster_path=1/3\n"
    "window_id=5 hydrophone_id=H1 recording_id=R1 offset_s=0 source=ais mmsi=366000001\n"
)


class TestGeoPoint:
    def test_lon_normalized_to_half_open_range(self):
        assert GeoPoint(0.0, 180.0).lon == -180.0
        assert GeoPoint(0.0, 270.0).lon == -90.0
        assert GeoPoint(0.0, -180.0).lon == -180.0

    def test_bounds(self):
        with pytest.raises(ValidationError):
            GeoPoint(91.0, 0.0)
        with pytest.raises(ValidationError):
            GeoPoint(float("nan"), 0.0)


class TestDeploymentConfig:
    def test_save_load_round_trip(self, deployment, tmp_path):
        path = tmp_path / "deploy.json"
        save_deployment(deployment, path)
        assert load_deployment(path) == deployment

    def test_overlapping_recordings_rejected(self):
        with pytest.raises(ValidationError, match="overlap"):
            Hydrophone(
                id="H1",
                location=GeoPoint(0.0, 0.0),
                recordings=(
                    Recording(id="A", start=0, duration_s=100, native_sample_rate_hz=1),
                    Recording(id="B", start=50, duration_s=100, native_sample_rate_hz=1),
                ),
            )

    def test_duplicate_hydrophone_rejected(self):
        h = Hydrophone(id="H1", location=GeoPoint(0.0, 0.0))
        from pamcurate.core_model import DeploymentConfig

        with pytest.raises(ValidationError):
            DeploymentConfig(hydrophones=(h, h))

    def test_bad_json_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ParseError):
            load_deployment(path)


class TestWindowIndex:
    def test_ids_equal_iter_windows(self, deployment):
        windows = list(iter_windows(deployment))
        index = deployment.window_index()
        assert index.ids.tolist() == sorted(w.window_id for w in windows)
        assert len(index) == deployment.total_windows()
        ids = np.array([w.window_id for w in windows], dtype=np.uint64)
        assert list(zip(ids.tolist(), *index.coordinates(ids, "known"))) == windows

    @settings(max_examples=50, deadline=None)
    @given(
        durations=st.lists(
            st.lists(st.integers(0, 95) | st.integers(990, 1035), max_size=4),  # offsets of 1-4 digits
            min_size=1,
            max_size=3,
        )
    )
    def test_ids_equal_iter_windows_on_any_deployment(self, durations):
        config = DeploymentConfig(
            hydrophones=tuple(
                Hydrophone(
                    id=f"H{h}",
                    location=GeoPoint(0.0, 0.0),
                    recordings=tuple(
                        Recording(id=f"R{r}", start=2000 * r, duration_s=d, native_sample_rate_hz=1)
                        for r, d in enumerate(recs)
                    ),
                )
                for h, recs in enumerate(durations)
            )
        )
        windows = sorted(iter_windows(config), key=lambda w: w.window_id)
        index = config.window_index()
        assert index.ids.tolist() == [w.window_id for w in windows]
        assert list(zip(index.ids.tolist(), *index.coordinates(index.ids, "known"))) == windows

    def test_unknown_ids_miss(self, deployment):
        index = deployment.window_index()
        known = int(index.ids[0])
        keys = np.array([known + 1, known, 0, 2**64 - 1], dtype=np.uint64)
        assert index._find(keys).tolist() == [-1, 0, -1, -1]
        with pytest.raises(ValidationError, match=f"selected window_id {known + 1} not present in the deployment"):
            index.coordinates(np.array([known, known + 1], dtype=np.uint64), "selected")
        empty = DeploymentConfig(hydrophones=()).window_index()
        assert len(empty) == 0 and empty._find(np.array([1, 2], dtype=np.uint64)).tolist() == [-1, -1]
        assert all(len(column) == 0 for column in empty.coordinates(np.empty(0, np.uint64), "any"))
        with pytest.raises(ValidationError, match="not present"):
            empty.coordinates(np.array([1], dtype=np.uint64), "any")

    def test_planted_collision_rejected(self, deployment, monkeypatch):
        real = core_model._recording_window_ids
        monkeypatch.setattr(core_model, "_recording_window_ids", lambda h, r, offsets: real(h, r, offsets) % 7)
        with pytest.raises(ValidationError, match="window id collision"):
            deployment.window_index()
