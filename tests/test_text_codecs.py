"""The sidecar and manifest readers against their per-line references.

``read_sidecar`` and ``read_manifest`` decode whole blocks of a file with
``core_model.decode_text``, which decodes the lines of a rejected block one
at a time only to locate the fault; ``read_manifest`` counts lines only to
locate a row that breaks a manifest rule.  On every file, valid or mutated,
each must give what ``synth``'s per-line reader gives: equal arrays, or a
ParseError of the same type, message and line.
"""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pamcurate import core_model
from pamcurate.core_model import MAX_MMSI, U64_MAX, CurationManifest, read_manifest
from pamcurate.errors import ParseError
from pamcurate.geo_align import read_sidecar
from synth import read_manifest_reference, read_sidecar_reference

# Block sizes from one character, so every line crosses a block boundary, to the default.
BLOCKS = st.sampled_from([1, 2, 5, 64, core_model.TEXT_BLOCK])
# Ids of 20 digits around U64_MAX, where np.fromstring saturates, and a few that repeat.
WINDOW_IDS = st.one_of(
    st.integers(0, U64_MAX),
    st.sampled_from([0, 7, 10**19 - 1, 10**19, U64_MAX - 1, U64_MAX, U64_MAX + 1, 10**20 - 1]),
)
MMSIS = st.one_of(st.integers(1, MAX_MMSI), st.sampled_from([0, MAX_MMSI + 1]))
# Characters inside a line: whitespace that str.splitlines would split on, and more.
INSERTS = st.sampled_from(["\t", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", " ", ",", "0"])
NEWLINES = st.sampled_from([b"\n", b"\r\n", b"\r"])
WHITESPACE_FILES = st.sampled_from([b"", b"\n", b"\r\n\n", b"\r", b" \n", b"\t", b"\n\n\n"])


@st.composite
def text_files(draw, lines, mutate=True) -> bytes:
    """A file of ``lines`` and blank lines ending in ``\\n``, ``\\r\\n`` or
    ``\\r``, perhaps without a final one; with ``mutate``, perhaps also with
    a character inserted into a line, a byte that is not UTF-8, or nothing
    but whitespace."""
    if mutate and draw(st.integers(0, 9)) == 0:
        return draw(WHITESPACE_FILES)
    body = draw(st.lists(st.one_of(lines, st.just("")), max_size=10))
    if mutate and body:
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, len(body) - 1))
            at = draw(st.integers(0, len(body[i])))
            body[i] = body[i][:at] + draw(INSERTS) + body[i][at:]
    data = b"".join(line.encode() + draw(NEWLINES) for line in body)
    if draw(st.booleans()):
        data = data.rstrip(b"\r\n")
    if mutate and data and draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) + data[at:]
    return data


def sidecar_lines(ids=WINDOW_IDS, mmsis=MMSIS):
    return st.builds("{},{}".format, ids, mmsis)


def manifest_lines(ids=WINDOW_IDS, valid=False):
    """Manifest lines in canonical key order; unless ``valid``, some values break a rule."""

    def values(good, bad):
        return st.sampled_from(good if valid else good * 4 + bad)

    return st.builds(
        lambda wid, hid, rid, off, src, mmsi, cpath: (
            f"window_id={wid} hydrophone_id={hid} recording_id={rid} offset_s={off} source={src}"
            + (f" mmsi={mmsi}" if mmsi is not None else "")
            + (f" cluster_path={cpath}" if cpath is not None else "")
        ),
        ids,
        values(["H1", "h.2"], ["", "H/1", "-"]),
        values(["R1", "R_2"], ["", "R=1"]),
        values([0, 10, 990], [3, "00"]),
        values(["ais", "hkmeans"], ["other", ""]),
        values([None, 1, 366000001, MAX_MMSI], [0, MAX_MMSI + 1]),
        values([None, "0", "1/3", "12/0/7"], ["", "1//2", "-1"]),
    )


def outcome(read, path):
    """What ``read(path)`` gives: its value, or the type, message and line of its ParseError."""
    try:
        return read(path)
    except ParseError as exc:
        return type(exc), str(exc), exc.offset


def assert_same(got, want):
    if isinstance(want, tuple):
        assert got == want
    elif isinstance(want, CurationManifest):
        assert isinstance(got, CurationManifest) and got == want
        assert got.rows.dtype == want.rows.dtype
    else:
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype and np.array_equal(got, want)


@settings(max_examples=300, deadline=None)
@given(data=text_files(sidecar_lines()), block=BLOCKS)
@example(data=b"\n", block=core_model.TEXT_BLOCK)
@example(data=b"18446744073709551615,5\n", block=core_model.TEXT_BLOCK)
@example(data=b"18446744073709551616,5\n", block=core_model.TEXT_BLOCK)
@example(data=b"1,2\r\n\r3,4", block=2)
@example(data=b"\n\n\n0,1\n\n0,1", block=64)  # a capturing group in the line grammar raised SystemError here
def test_read_sidecar_equals_reference(tmp_path_factory, data, block):
    path = tmp_path_factory.mktemp("sidecar") / "aligned.csv"
    path.write_bytes(data)
    with patch.object(core_model, "TEXT_BLOCK", block):
        got = outcome(read_sidecar, path)
    assert_same(got, outcome(read_sidecar_reference, path))


@settings(max_examples=300, deadline=None)
@given(data=text_files(manifest_lines(ids=st.one_of(WINDOW_IDS, st.sampled_from([1, 2, 3])))), block=BLOCKS)
@example(data=b"\n", block=core_model.TEXT_BLOCK)
@example(data=b"window_id=18446744073709551615 hydrophone_id=H recording_id=R offset_s=0 source=ais\n", block=64)
@example(data=b"window_id=5 hydrophone_id=H recording_id=R offset_s=0 source=ais mmsi=12window_id=6"
         b" hydrophone_id=H recording_id=R offset_s=0 source=ais\n", block=core_model.TEXT_BLOCK)
def test_read_manifest_equals_reference(tmp_path_factory, data, block):
    path = tmp_path_factory.mktemp("manifest") / "manifest.txt"
    path.write_bytes(data)
    with patch.object(core_model, "TEXT_BLOCK", block):
        got = outcome(read_manifest, path)
    assert_same(got, outcome(read_manifest_reference, path))


def _locator_entered(fh, *args):
    raise AssertionError(f"the fault locator read the valid file {fh.name}")


@settings(max_examples=100, deadline=None)
@given(
    sidecar=text_files(
        sidecar_lines(ids=st.integers(0, U64_MAX) | st.just(U64_MAX), mmsis=st.integers(1, MAX_MMSI)), mutate=False
    ),
    manifest=st.lists(manifest_lines(ids=st.integers(0, U64_MAX), valid=True), max_size=10),
    newline=NEWLINES,
    block=BLOCKS,
)
def test_valid_files_never_enter_the_locator(tmp_path_factory, sidecar, manifest, newline, block):
    """A valid file is decoded once, a window id of U64_MAX included: no line
    of it is decoded on its own."""
    folder = tmp_path_factory.mktemp("valid")
    (folder / "aligned.csv").write_bytes(sidecar)
    unique = {line.split(" ", 1)[0]: line for line in manifest}  # one line per window id
    (folder / "manifest.txt").write_bytes(b"".join(line.encode() + newline for line in unique.values()))
    with (
        patch.object(core_model, "TEXT_BLOCK", block),
        patch.object(core_model, "_bad_line", _locator_entered),
    ):
        assert_same(read_sidecar(folder / "aligned.csv"), read_sidecar_reference(folder / "aligned.csv"))
        assert_same(read_manifest(folder / "manifest.txt"), read_manifest_reference(folder / "manifest.txt"))



def _manifest_line(window_id: int) -> str:
    return f"window_id={window_id} hydrophone_id=H1 recording_id=R1 offset_s=0 source=ais mmsi=366000001"


# fault -> (reader, its reference, valid line of id i, the last line)
FAULTS_AFTER_MANY_BLOCKS = {
    "sidecar-bad-line": (read_sidecar, read_sidecar_reference, "{},366000001".format, "7,0"),
    "manifest-bad-line": (read_manifest, read_manifest_reference, _manifest_line, _manifest_line(7) + " x"),
    "manifest-repeated-id": (read_manifest, read_manifest_reference, _manifest_line, _manifest_line(7)),
}


@pytest.mark.parametrize("fault", list(FAULTS_AFTER_MANY_BLOCKS))
def test_fault_after_many_default_blocks(tmp_path, fault):
    """A fault after 50,000 lines, tens of default-size blocks in, is located
    at its line; a blank line every 1,000 lines keeps rows and lines apart."""
    read, reference, line, last = FAULTS_AFTER_MANY_BLOCKS[fault]
    lines = [line(i) if i % 1000 else "" for i in range(1, 50_001)]
    path = tmp_path / "file.txt"
    path.write_text("".join(text + "\n" for text in [*lines, last]))
    assert path.stat().st_size > 20 * core_model.TEXT_BLOCK
    want = outcome(reference, path)
    assert isinstance(want, tuple) and want[2] == 50_001
    assert outcome(read, path) == want
