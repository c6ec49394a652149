import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pamcurate.ais_curate import Threshold, curate, detect_knee, histogram, occurrence_curve
from pamcurate.core_model import (
    MAX_MMSI,
    CurationManifest,
    DeploymentConfig,
    GeoPoint,
    Hydrophone,
    Recording,
    WindowIndex,
)
from pamcurate.errors import ValidationError
from pamcurate.geo_align import AlignedWindowSet
from synth import (
    TrafficSpec,
    aligned_of,
    curate_reference,
    gen_traffic,
    histogram_reference,
    iter_windows,
    kneedle_dense_oracle,
)
from conftest import T0


def one_recording(n_windows: int) -> DeploymentConfig:
    return DeploymentConfig(
        hydrophones=(
            Hydrophone(
                id="H1",
                location=GeoPoint(0.0, 0.0),
                recordings=(Recording(id="R1", start=T0, duration_s=n_windows * 10, native_sample_rate_hz=1000),),
            ),
        )
    )


def make_aligned(ship_windows: dict[int, list[int]]) -> tuple[AlignedWindowSet, WindowIndex]:
    """Aligned set over a synthetic single-recording deployment, and the
    deployment's window index.

    ``ship_windows`` maps mmsi -> window slot numbers (0-based).
    """
    max_slot = max((s for slots in ship_windows.values() for s in slots), default=0)
    config = one_recording(max_slot + 1)
    windows = list(iter_windows(config))
    pairs = [(windows[slot].window_id, mmsi) for mmsi, slots in ship_windows.items() for slot in slots]
    return AlignedWindowSet.of([wid for wid, _ in pairs], [mmsi for _, mmsi in pairs]), config.window_index()


def window_ids(aligned: AlignedWindowSet) -> set[int]:
    return set(aligned.pairs["window_id"].tolist())


def kept_ids(manifest: CurationManifest) -> set[int]:
    return set(manifest.rows["window_id"].tolist())


class TestHistogram:
    def test_empty(self):
        assert histogram(AlignedWindowSet()).tolist() == []

    def test_shared_window_counts_for_each_ship(self):
        assert histogram(make_aligned({22: [0], 11: [0, 1]})[0]).tolist() == [2, 1]  # ships 11, 22

    def test_matches_generator_ground_truth(self):
        sample = gen_traffic(TrafficSpec(ships=40, alpha=2.0, occ_min=1, occ_max=60, seed=5))
        assert histogram(aligned_of(sample.windows)).tolist() == [sample.counts[m] for m in sorted(sample.counts)]


class TestDetectKnee:
    def test_geometric_decay_matches_dense_oracle(self):
        counts = np.array([2 ** (49 - r) for r in range(50)])
        t = detect_knee(counts)
        detected_rank = occurrence_curve(counts).tolist().index(t.t)
        oracle_rank = kneedle_dense_oracle(lambda r: 2.0 ** (49.0 - r), 50)
        assert abs(detected_rank - oracle_rank) <= 2
        assert t.origin == "detected"

    def test_all_equal_counts_rejected(self):
        with pytest.raises(ValidationError, match="manual"):
            detect_knee(np.full(9, 7))

    def test_two_distinct_values_rejected(self):
        with pytest.raises(ValidationError):
            detect_knee(np.array([5, 5, 9]))

    @pytest.mark.parametrize("bad", [0, -3])
    def test_count_below_one_rejected(self, bad):
        with pytest.raises(ValidationError, match="occurrence counts must be >= 1"):
            detect_knee(np.array([40, 20, 10, 5, bad]))

    def test_long_tail_curve_knee_in_low_hundreds(self):
        # Head ~1e4 windows, tail ~10, power-law decay over 1500 ships.
        m = 1500
        alpha = np.log(1000) / np.log(m)
        counts = np.array([max(1, round(1e4 * (i + 1) ** (-alpha))) for i in range(m)])
        t = detect_knee(counts)
        assert 100 <= t.t <= 600


class TestCurate:
    def test_identity_regime(self):
        # Every ship at or below t keeps all its windows; ship 4 has exactly t.
        aligned, index = make_aligned({1: [0, 1, 2], 2: [3, 4], 3: [2, 5], 4: list(range(6, 16))})
        manifest = curate(aligned, Threshold(t=10, origin="manual"), 0, index)
        assert kept_ids(manifest) == window_ids(aligned)
        assert set(manifest.rows["source"]) == {"ais"}

    def test_binomial_regime_single_run(self):
        c, t = 10_000, 250
        aligned, index = make_aligned({777: list(range(c))})
        manifest = curate(aligned, Threshold(t=t, origin="manual"), 42, index)
        sigma = np.sqrt(c * (t / c) * (1 - t / c))
        assert abs(len(manifest) - t) <= 3 * sigma

    def test_shared_window_union_retention_and_min_mmsi(self):
        # Ship 3 and ship 5 both below threshold: window kept, smaller mmsi wins.
        aligned, index = make_aligned({5: [0], 3: [0, 1]})
        rows = curate(aligned, Threshold(t=10, origin="manual"), 1, index).rows
        mmsi_of = dict(zip(rows["window_id"].tolist(), rows["mmsi"].tolist()))
        shared = [wid for wid, mmsi in aligned.pairs.tolist() if mmsi == 5][0]  # ship 5's one window is ship 3's too
        assert mmsi_of[shared] == 3

    def test_retained_subset_of_aligned(self):
        rng = np.random.default_rng(0)
        ship_windows = {int(m): sorted(set(rng.integers(0, 200, size=rng.integers(1, 80)).tolist())) for m in range(1, 30)}
        aligned, index = make_aligned(ship_windows)
        manifest = curate(aligned, Threshold(t=5, origin="manual"), 3, index)
        assert kept_ids(manifest) <= window_ids(aligned)

    def test_deterministic(self):
        aligned, index = make_aligned({1: list(range(100)), 2: list(range(50, 150))})
        a = curate(aligned, Threshold(t=20, origin="manual"), 9, index)
        b = curate(aligned, Threshold(t=20, origin="manual"), 9, index)
        assert a == b

    def test_partition_invariance_over_ships(self):
        rng = np.random.default_rng(4)
        ship_windows = {int(m): sorted(set(rng.integers(0, 300, size=60).tolist())) for m in range(1, 21)}
        aligned_all, index = make_aligned(ship_windows)
        part_a, index_a = make_aligned({m: w for m, w in ship_windows.items() if m % 2 == 0})
        part_b, index_b = make_aligned({m: w for m, w in ship_windows.items() if m % 2 == 1})
        threshold = Threshold(t=25, origin="manual")
        whole = kept_ids(curate(aligned_all, threshold, 7, index))
        split = kept_ids(curate(part_a, threshold, 7, index_a)) | kept_ids(curate(part_b, threshold, 7, index_b))
        assert whole == split

    def test_expected_retention_flattens_head(self):
        # Mean retained per ship across seeds stays at min(c, t).
        c, t, seeds = 2_000, 100, 30
        aligned, index = make_aligned({50: list(range(c))})
        totals = [len(curate(aligned, Threshold(t=t, origin="manual"), s, index)) for s in range(seeds)]
        sigma_mean = np.sqrt(c * (t / c) * (1 - t / c) / seeds)
        assert abs(np.mean(totals) - t) <= 3 * sigma_mean


SLOTS = 30


@st.composite
def ships_by_window(draw) -> dict[int, set[int]]:
    """window slot -> ships: up to eight ships over a 30-window pool, so
    windows are often shared and per-ship counts straddle small thresholds;
    no ships at all is the empty set."""
    ships = draw(st.lists(st.integers(1, MAX_MMSI), max_size=8, unique=True))
    by_slot: dict[int, set[int]] = {}
    for mmsi in ships:
        for slot in draw(st.lists(st.integers(0, SLOTS - 1), min_size=1, max_size=SLOTS, unique=True)):
            by_slot.setdefault(slot, set()).add(mmsi)
    return by_slot


@settings(max_examples=300, deadline=None)
@given(by_slot=ships_by_window(), t=st.integers(1, 12), seed=st.integers(0, 2**64 - 1))
def test_histogram_and_curate_match_reference(by_slot, t, seed):
    config = one_recording(SLOTS)
    windows = list(iter_windows(config))
    ships = {windows[slot].window_id: mmsis for slot, mmsis in by_slot.items()}
    aligned = aligned_of(ships)
    threshold = Threshold(t=t, origin="manual")
    reference = histogram_reference(ships)
    assert histogram(aligned).tolist() == [reference[m] for m in sorted(reference)]
    expected = curate_reference(ships, {w.window_id: w for w in windows}, threshold, seed)
    assert curate(aligned, threshold, seed, config.window_index()).rows.tolist() == expected
