from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pamcurate.assemble_ssl import assemble, format_summary, summarize
from pamcurate.core_model import CurationManifest
from pamcurate.errors import ValidationError
from synth import ManifestRow, assemble_reference

EMPTY = CurationManifest()


def ais_row(wid, hydrophone="H1", mmsi=366000001):
    return ManifestRow(wid, hydrophone, "R1", 0, "ais", mmsi=mmsi)


def hk_row(wid, hydrophone="H1", path="1/2"):
    return ManifestRow(wid, hydrophone, "R1", 10, "hkmeans", cluster_path=path)


def manifest(*rows):
    return CurationManifest.of(*zip(*rows)) if rows else EMPTY


class TestAssemble:
    def test_disjoint_union_sorted(self):
        assembled = assemble(manifest(ais_row(5), ais_row(1)), manifest(hk_row(3)))
        assert assembled.rows["window_id"].tolist() == [1, 3, 5]
        assert Counter(assembled.rows["source"].tolist()) == {"ais": 2, "hkmeans": 1}

    def test_empty_ais_side(self):
        assembled = assemble(EMPTY, manifest(hk_row(1), hk_row(2)))
        assert len(assembled) == 2
        assert summarize(assembled)["hkmeans_entries"] == 2

    def test_collision_ais_wins_and_keeps_cluster_path(self):
        assembled = assemble(manifest(ais_row(7)), manifest(hk_row(7, path="4/9")))
        assert assembled.rows.tolist() == [(7, "H1", "R1", 0, "ais", 366000001, "4/9")]

    def test_internal_duplicates_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            assemble(manifest(ais_row(1), ais_row(1)), EMPTY)
        with pytest.raises(ValidationError, match="duplicate"):
            assemble(EMPTY, manifest(hk_row(2), hk_row(2)))

    def test_same_source_collision_rejected(self):
        with pytest.raises(ValidationError, match="window_id 3 appears in both inputs with source 'ais'"):
            assemble(manifest(ais_row(3)), manifest(ais_row(3)))

    def test_idempotent_on_own_output(self):
        assembled = assemble(manifest(ais_row(5), ais_row(1)), manifest(hk_row(3)))
        assert assemble(assembled, EMPTY) == assembled

    def test_summary_arithmetic(self):
        assembled = assemble(manifest(ais_row(1), ais_row(2, hydrophone="H2")), manifest(hk_row(3)))
        summary = summarize(assembled)
        assert summary["total_entries"] == 3
        assert summary["total_seconds"] == 30
        assert summary["total_hours"] == 3 / 360
        assert summary["per_hydrophone"] == {"H1": 2, "H2": 1}
        text = format_summary(summary)
        assert "entries: 3" in text and "H2: 1" in text

    def test_hours_exactly_entries_over_360(self):
        summary = summarize(assemble(EMPTY, manifest(*(hk_row(i) for i in range(1, 73)))))
        assert summary["total_hours"] == 72 / 360


@st.composite
def manifest_pair(draw):
    """The rows of two manifests, in window id order, over a pool of 12 ids,
    so they often collide.
    Either may hold rows of either source (an assembled manifest is a valid
    AIS input) and either may be empty; a row has an mmsi, a cluster path,
    both or neither."""

    def side():
        ids = sorted(draw(st.lists(st.integers(0, 11), unique=True, max_size=12)))
        return [
            ManifestRow(
                wid,
                draw(st.sampled_from(["H1", "H2", "H3"])),
                "R1",
                10 * wid,
                draw(st.sampled_from(["ais", "hkmeans"])),
                draw(st.sampled_from([0, 366000001, 999999999])),
                draw(st.sampled_from(["", "0", "4/9", "1/2/3"])),
            )
            for wid in ids
        ]

    return side(), side()


@settings(max_examples=300, deadline=None)
@given(manifest_pair())
@example(([], []))
@example(([ais_row(1)], [hk_row(1, path="4/9")]))  # the AIS row inherits the path
@example(([hk_row(1, path="4/9")], [ais_row(1, hydrophone="H2")]))  # an assembled AIS input: its row loses
def test_assemble_and_summarize_match_reference(pair):
    ais_rows, hk_rows = pair
    try:
        expected = assemble_reference(ais_rows, hk_rows)
    except ValidationError as exc:
        with pytest.raises(ValidationError, match=str(exc)):
            assemble(manifest(*ais_rows), manifest(*hk_rows))
        return
    assembled = assemble(manifest(*ais_rows), manifest(*hk_rows))
    assert assembled.rows.tolist() == expected
    summary = summarize(assembled)
    sources = Counter(row.source for row in expected)
    assert (summary["total_entries"], summary["ais_entries"], summary["hkmeans_entries"]) == (
        len(expected), sources["ais"], sources["hkmeans"],
    )
    assert summary["per_hydrophone"] == dict(sorted(Counter(row.hydrophone_id for row in expected).items()))
