from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pamcurate.assemble_ssl import (
    EmaConfig,
    assemble,
    ema_update,
    format_summary,
    summarize,
    tau_at,
)
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


class TestTauSchedule:
    def test_endpoints_exact(self):
        assert tau_at(0) == 0.999
        assert tau_at(20) == 0.9999
        assert tau_at(100) == 0.9999

    def test_midpoint(self):
        assert tau_at(10) == pytest.approx(0.99945, abs=1e-12)

    def test_monotone_and_clamped(self):
        config = EmaConfig()
        values = [tau_at(s, config) for s in range(0, 50)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(config.tau_start <= v <= config.tau_end for v in values)

    def test_negative_step_rejected(self):
        with pytest.raises(ValidationError):
            tau_at(-1)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            EmaConfig(tau_start=0.9999, tau_end=0.999)
        with pytest.raises(ValidationError):
            EmaConfig(ramp_updates=0)


class TestEmaUpdate:
    def test_tau_one_keeps_teacher(self):
        teacher = np.array([1.0, -2.0, 3.5])
        out = ema_update(teacher, np.zeros(3), tau=1.0)
        assert np.array_equal(out, teacher)

    def test_tau_zero_copies_student(self):
        student = np.array([4.0, 5.0])
        out = ema_update(np.zeros(2), student, tau=0.0)
        assert np.array_equal(out, student)

    def test_scalar_arithmetic(self):
        assert ema_update(1.0, 0.0, tau=0.999) == pytest.approx(0.999, abs=1e-15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            ema_update(np.zeros(3), np.zeros(4), tau=0.5)

    def test_tau_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            ema_update(np.zeros(2), np.zeros(2), tau=1.5)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.floats(0.0, 1.0, allow_nan=False))
    def test_fixpoint_property(self, seed, tau):
        rng = np.random.default_rng(seed)
        weights = rng.normal(size=(3, 4))
        out = ema_update(weights, weights, tau=tau)
        assert np.allclose(out, weights, rtol=1e-14, atol=1e-14)
