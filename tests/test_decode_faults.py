"""Every decode fault in the three binary formats is a located ParseError.

Each format's layout is written out here item by item, independently of the
decoders.  Every truncation of a valid file must be reported at the first
byte of the item the cut leaves incomplete, and every planted content fault
at the first faulty record or centroid row; never as a ValidationError or a
bare numpy ValueError.  A cut inside a checkpoint journal's record is the
torn tail of an append, which the loader drops: there, and for a cut at
the record's first byte, the test checks that the journal's whole records
end at that byte.  A shard too
wide to read back is refused before it is written.
"""

import struct
from itertools import accumulate

import numpy as np
import pytest

from pamcurate.core_model import MAX_SHARD_DIM, EmbeddingShard, read_shard, write_shard
from pamcurate.errors import ParseError, ShardDimError, ShardTruncatedError, ValidationError
from pamcurate.hkmeans import load_model, save_model
from pamcurate.hsample import SelectionState, load_checkpoint, save_checkpoint
from conftest import make_hierarchy, random_shard

SHARD_DIM, SHARD_COUNT = 3, 4
RECORD = 8 + 4 * SHARD_DIM
MODEL_KS, MODEL_DIM = (5, 3, 2), 2
LEAF_QUOTAS = [2, 0, 3]
LEAF_ENTRIES = [(5, 0, 0.25), (6, 0, 0.5), (7, 2, 0.125)]  # (window id, leaf, distance)
DIGESTS = [bytes(range(32)), bytes(32)]


def shard_items() -> list[int]:
    return [8, 4, 8] + [RECORD] * SHARD_COUNT


def model_items() -> list[int]:
    sizes = [8, 8]
    for k in MODEL_KS:
        sizes += [4] + [8] * k + [4] * (k * MODEL_DIM)
    for k in MODEL_KS[:-1]:
        sizes += [4] * k
    return sizes


def checkpoint_items() -> list[int]:
    # magic, version and leaf count, the quotas, then one record: its length
    # and counts, digests, (leaf, window id, distance) rows and SHA-256
    record = 8 + 24 + 32 * len(DIGESTS) + 24 * len(LEAF_ENTRIES) + 32
    return [8, 12] + [8] * len(LEAF_QUOTAS) + [record]


def starts(sizes: list[int]) -> list[int]:
    return [0, *accumulate(sizes)][:-1]


def _write_shard(path):
    write_shard(random_shard(np.random.default_rng(3), SHARD_COUNT, SHARD_DIM), path)


def _write_model(path):
    save_model(make_hierarchy(np.random.default_rng(5), ks=MODEL_KS, dim=MODEL_DIM), path)


def _write_checkpoint(path):
    state = SelectionState.empty(LEAF_QUOTAS)
    for wid, leaf, dist in LEAF_ENTRIES:
        state.fold([leaf], [wid], [dist])
    save_checkpoint(state, path, 0, DIGESTS)


def _load_checkpoint(path):
    """``load_checkpoint``, with a record that is missing or dropped as a
    torn tail reported where the journal's whole records end."""
    _, digests, end = load_checkpoint(path)
    if digests != DIGESTS or end != path.stat().st_size:
        raise ParseError("record missing or torn", path=str(path), offset=end)


def expected_offset(fmt: str, cut: int, sizes: list[int]) -> int:
    if fmt == "checkpoint" and 20 <= cut < 20 + 8 * len(LEAF_QUOTAS):
        return 12  # fewer than 8 bytes per leaf after the header: the leaf-count guard
    return max(start for start in starts(sizes) if start <= cut)


# format -> (writer, reader, item sizes, truncation class)
FORMATS = {
    "shard": (_write_shard, read_shard, shard_items(), ShardTruncatedError),
    "model": (_write_model, load_model, model_items(), ParseError),
    "checkpoint": (_write_checkpoint, _load_checkpoint, checkpoint_items(), ParseError),
}


@pytest.mark.parametrize("fmt", list(FORMATS))
def test_every_truncation_is_located_at_the_first_incomplete_item(fmt, tmp_path):
    write, read, sizes, truncated = FORMATS[fmt]
    path = tmp_path / fmt
    write(path)
    data = path.read_bytes()
    assert sum(sizes) == len(data)
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(truncated) as err:
            read(path)
        assert (err.value.path, err.value.offset) == (str(path), expected_offset(fmt, cut, sizes)), cut
    path.write_bytes(data + b"\x00")
    with pytest.raises(ParseError) as err:
        read(path)
    assert (err.value.path, err.value.offset) == (str(path), len(data))


@pytest.mark.parametrize(
    "nan_records, repeats, record, fault",
    [
        ([1], {}, 1, "non-finite"),
        ([], {2: 0}, 2, "repeats"),
        ([], {3: 1}, 3, "repeats"),
        ([2], {1: 0}, 1, "repeats"),
        ([1], {3: 1}, 1, "non-finite"),
    ],
)
def test_shard_content_fault_is_located_at_the_first_faulty_record(nan_records, repeats, record, fault, tmp_path):
    shard = random_shard(np.random.default_rng(7), SHARD_COUNT, SHARD_DIM)
    records = np.empty(SHARD_COUNT, dtype=[("window_id", "<u8"), ("vector", "<f4", (SHARD_DIM,))])
    records["window_id"], records["vector"] = shard.window_ids, shard.vectors
    records["vector"][nan_records, 1] = np.nan
    for at, of in repeats.items():
        records["window_id"][at] = records["window_id"][of]
    path = tmp_path / "s.bin"
    path.write_bytes(b"PAMEMB01" + struct.pack("<IQ", SHARD_DIM, SHARD_COUNT) + records.tobytes())
    with pytest.raises(ParseError, match=f"record {record} .*{fault}") as err:
        read_shard(path)
    assert (err.value.path, err.value.offset) == (str(path), 20 + record * RECORD)


def _shard_bytes(ids, vectors) -> bytes:
    records = np.empty(len(ids), dtype=[("window_id", "<u8"), ("vector", "<f4", (vectors.shape[1],))])
    records["window_id"], records["vector"] = ids, vectors
    return b"PAMEMB01" + struct.pack("<IQ", vectors.shape[1], len(ids)) + records.tobytes()


@pytest.mark.parametrize(
    "at, of, value",
    [(1, 0, None), (899, 898, None), (3, 1, 2**64 - 1), (899, 0, 2**64 - 1)],
    ids=["first-pair", "last-pair", "max-id", "max-id-last"],
)
def test_repeated_window_id_is_located_at_the_repeat(at, of, value, tmp_path):
    """The shard checks its ids by sorting them; a repeat anywhere, of any
    uint64 id, is still refused, and read at the later record's offset."""
    shard = random_shard(np.random.default_rng(11), 900, SHARD_DIM)
    ids = shard.window_ids.copy()
    if value is not None:
        ids[of] = value
    ids[at] = ids[of]
    with pytest.raises(ValidationError, match="unique"):
        EmbeddingShard(SHARD_DIM, ids, shard.vectors)
    path = tmp_path / "s.bin"
    path.write_bytes(_shard_bytes(ids, shard.vectors))
    with pytest.raises(ParseError, match=f"record {at} repeats an earlier window id") as err:
        read_shard(path)
    assert (err.value.path, err.value.offset) == (str(path), 20 + at * RECORD)


@pytest.mark.parametrize(
    "zero, nan, record, fault",
    [(2, None, 2, "zero"), (0, None, 0, "zero"), (2, 1, 1, "non-finite"), (1, 3, 1, "zero")],
)
def test_zero_vector_is_a_located_shard_fault(zero, nan, record, fault, tmp_path):
    """The fit normalizes every vector, so a zero vector is refused where the
    shard is read, as a non-finite one is; -0.0 counts as zero."""
    shard = random_shard(np.random.default_rng(7), SHARD_COUNT, SHARD_DIM)
    vectors = shard.vectors.copy()
    vectors[zero] = -0.0 if zero % 2 else 0.0
    if nan is not None:
        vectors[nan, 0] = np.nan
    with pytest.raises(ValidationError):
        EmbeddingShard(SHARD_DIM, shard.window_ids, vectors)
    path = tmp_path / "s.bin"
    path.write_bytes(_shard_bytes(shard.window_ids, vectors))
    with pytest.raises(ParseError, match=f"record {record} has a {fault} vector") as err:
        read_shard(path)
    assert (err.value.path, err.value.offset) == (str(path), 20 + record * RECORD)


def test_shard_read_from_given_bytes_equals_read_from_file(tmp_path):
    path = tmp_path / "s.bin"
    write_shard(random_shard(np.random.default_rng(3), SHARD_COUNT, SHARD_DIM), path)
    data = path.read_bytes()
    assert read_shard(path, data) == read_shard(path)
    with pytest.raises(ShardTruncatedError) as err:
        read_shard(path, data[:-1])
    assert (err.value.path, err.value.offset) == (str(path), 20 + (SHARD_COUNT - 1) * RECORD)


@pytest.mark.parametrize("dim", [MAX_SHARD_DIM + 1, 2**31, 2**32 - 1])
def test_shard_dim_beyond_a_numpy_record_is_a_dim_error(dim, tmp_path):
    path = tmp_path / "huge.bin"
    path.write_bytes(b"PAMEMB01" + struct.pack("<IQ", dim, 0))
    with pytest.raises(ShardDimError) as err:
        read_shard(path)
    assert (err.value.path, err.value.offset) == (str(path), 8)


def test_largest_shard_dim_still_reads(tmp_path):
    path = tmp_path / "widest.bin"
    path.write_bytes(b"PAMEMB01" + struct.pack("<IQ", MAX_SHARD_DIM, 0))
    assert read_shard(path) == EmbeddingShard(MAX_SHARD_DIM, np.empty(0, np.uint64), np.empty((0, MAX_SHARD_DIM), np.float32))


@pytest.mark.parametrize("dim", [MAX_SHARD_DIM + 1, 2**31])
def test_shard_wider_than_the_reader_accepts_is_never_written(dim, tmp_path):
    with pytest.raises(ValidationError):
        write_shard(EmbeddingShard(dim, np.empty(0, np.uint64), np.empty((0, dim), np.float32)), tmp_path / "s.bin")
    assert list(tmp_path.iterdir()) == []


def _level_start(level: int) -> int:
    """Offset of level ``level``'s ``k`` field: 16 header bytes, then per
    level the k field, k u64 counts and k*dim f32 centroid values."""
    return 16 + sum(4 + 8 * k + 4 * k * MODEL_DIM for k in MODEL_KS[: level - 1])


@pytest.mark.parametrize("level, row", [(1, 0), (1, 4), (2, 1), (3, 1)])
def test_non_finite_centroid_is_located_at_its_row(level, row, tmp_path):
    path = tmp_path / "model.bin"
    _write_model(path)
    at = _level_start(level) + 4 + 8 * MODEL_KS[level - 1] + 4 * MODEL_DIM * row
    data = bytearray(path.read_bytes())
    data[at + 4 : at + 8] = struct.pack("<f", np.inf if row else np.nan)
    path.write_bytes(bytes(data))
    with pytest.raises(ParseError, match="not finite") as err:
        load_model(path)
    assert (err.value.path, err.value.offset) == (str(path), at)


def test_model_level_k_must_decrease_at_its_field(tmp_path):
    path = tmp_path / "model.bin"
    _write_model(path)
    at = _level_start(2)
    data = bytearray(path.read_bytes())
    data[at : at + 4] = struct.pack("<I", MODEL_KS[0])
    path.write_bytes(bytes(data))
    with pytest.raises(ParseError, match="level 2 has k=5") as err:
        load_model(path)
    assert (err.value.path, err.value.offset) == (str(path), at)

