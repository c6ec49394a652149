import numpy as np
import pytest

from pamcurate.ais_curate import (
    OccurrenceHistogram,
    Threshold,
    curate,
    detect_knee,
    histogram,
    occurrence_curve,
    sampling_probability,
)
from pamcurate.core_model import DeploymentConfig, GeoPoint, Hydrophone, Recording
from pamcurate.errors import ValidationError
from pamcurate.geo_align import AlignedWindowSet
from synth import TrafficSpec, gen_traffic, kneedle_dense_oracle
from conftest import T0


def make_aligned(ship_windows: dict[int, list[int]]) -> AlignedWindowSet:
    """Aligned set over a synthetic single-recording deployment.

    ``ship_windows`` maps mmsi -> window slot numbers (0-based).
    """
    max_slot = max((s for slots in ship_windows.values() for s in slots), default=0)
    config = DeploymentConfig(
        hydrophones=(
            Hydrophone(
                id="H1",
                location=GeoPoint(0.0, 0.0),
                recordings=(
                    Recording(id="R1", start=T0, duration_s=(max_slot + 1) * 10, native_sample_rate_hz=1000),
                ),
            ),
        )
    )
    index = config.window_index()
    windows = sorted(index.lookup(index.ids), key=lambda w: w.offset_s)
    aligned = AlignedWindowSet()
    for mmsi, slots in ship_windows.items():
        for slot in slots:
            aligned.add(windows[slot], mmsi)
    return aligned


class TestHistogram:
    def test_empty(self):
        hist = histogram(AlignedWindowSet())
        assert hist.counts == {} and hist.total_ships == 0 and hist.total_windows == 0

    def test_shared_window_counts_for_each_ship(self):
        hist = histogram(make_aligned({11: [0], 22: [0]}))
        assert hist.counts == {11: 1, 22: 1}
        assert hist.total_windows == 1

    def test_matches_generator_ground_truth(self):
        sample = gen_traffic(TrafficSpec(ships=40, alpha=2.0, occ_min=1, occ_max=60, seed=5))
        windows = sample.deployment.window_index().lookup(sample.windows)
        aligned = AlignedWindowSet()
        for window, mmsis in zip(windows, sample.windows.values()):
            for mmsi in mmsis:
                aligned.add(window, mmsi)
        assert histogram(aligned).counts == sample.counts


class TestDetectKnee:
    def test_geometric_decay_matches_dense_oracle(self):
        counts = {100 + r: 2 ** (49 - r) for r in range(50)}
        hist = OccurrenceHistogram(counts=counts, total_ships=50, total_windows=50)
        t = detect_knee(hist)
        detected_rank = [c for _, c in occurrence_curve(hist)].index(t.t)
        oracle_rank = kneedle_dense_oracle(lambda r: 2.0 ** (49.0 - r), 50)
        assert abs(detected_rank - oracle_rank) <= 2
        assert t.origin == "detected"

    def test_all_equal_counts_rejected(self):
        hist = OccurrenceHistogram(counts={i: 7 for i in range(1, 10)}, total_ships=9, total_windows=7)
        with pytest.raises(ValidationError, match="manual"):
            detect_knee(hist)

    def test_two_distinct_values_rejected(self):
        hist = OccurrenceHistogram(counts={1: 5, 2: 5, 3: 9}, total_ships=3, total_windows=9)
        with pytest.raises(ValidationError):
            detect_knee(hist)

    def test_long_tail_curve_knee_in_low_hundreds(self):
        # Head ~1e4 windows, tail ~10, power-law decay over 1500 ships.
        m = 1500
        alpha = np.log(1000) / np.log(m)
        counts = {i + 1: max(1, round(1e4 * (i + 1) ** (-alpha))) for i in range(m)}
        hist = OccurrenceHistogram(counts=counts, total_ships=m, total_windows=max(counts.values()))
        t = detect_knee(hist)
        assert 100 <= t.t <= 600


class TestSamplingProbability:
    def test_below_threshold_kept_complete(self):
        assert sampling_probability(100, 250) == 1.0

    def test_above_threshold_inverse(self):
        assert sampling_probability(500, 250) == 0.5

    def test_boundary_kept_complete(self):
        assert sampling_probability(250, 250) == 1.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            sampling_probability(0, 250)


class TestCurate:
    def test_identity_regime(self):
        aligned = make_aligned({1: [0, 1, 2], 2: [3, 4], 3: [2, 5]})
        entries = curate(aligned, Threshold(t=10, origin="manual"), seed=0)
        assert {e.window_id for e in entries} == set(aligned.windows)
        assert all(e.source == "ais" for e in entries)

    def test_binomial_regime_single_run(self):
        c, t = 10_000, 250
        aligned = make_aligned({777: list(range(c))})
        entries = curate(aligned, Threshold(t=t, origin="manual"), seed=42)
        sigma = np.sqrt(c * (t / c) * (1 - t / c))
        assert abs(len(entries) - t) <= 3 * sigma

    def test_shared_window_union_retention_and_min_mmsi(self):
        # Ship 3 and ship 5 both below threshold: window kept, smaller mmsi wins.
        aligned = make_aligned({5: [0], 3: [0, 1]})
        entries = curate(aligned, Threshold(t=10, origin="manual"), seed=1)
        by_wid = {e.window_id: e for e in entries}
        shared = [w for w, s in aligned.ships.items() if s == {3, 5}][0]
        assert by_wid[shared].mmsi == 3

    def test_retained_subset_of_aligned(self):
        rng = np.random.default_rng(0)
        ship_windows = {int(m): sorted(set(rng.integers(0, 200, size=rng.integers(1, 80)).tolist())) for m in range(1, 30)}
        aligned = make_aligned(ship_windows)
        entries = curate(aligned, Threshold(t=5, origin="manual"), seed=3)
        assert {e.window_id for e in entries} <= set(aligned.windows)

    def test_deterministic(self):
        aligned = make_aligned({1: list(range(100)), 2: list(range(50, 150))})
        a = curate(aligned, Threshold(t=20, origin="manual"), seed=9)
        b = curate(aligned, Threshold(t=20, origin="manual"), seed=9)
        assert a == b

    def test_partition_invariance_over_ships(self):
        rng = np.random.default_rng(4)
        ship_windows = {int(m): sorted(set(rng.integers(0, 300, size=60).tolist())) for m in range(1, 21)}
        aligned_all = make_aligned(ship_windows)
        part_a = make_aligned({m: w for m, w in ship_windows.items() if m % 2 == 0})
        part_b = make_aligned({m: w for m, w in ship_windows.items() if m % 2 == 1})
        threshold = Threshold(t=25, origin="manual")
        whole = {e.window_id for e in curate(aligned_all, threshold, seed=7)}
        split = {e.window_id for e in curate(part_a, threshold, seed=7)} | {
            e.window_id for e in curate(part_b, threshold, seed=7)
        }
        assert whole == split

    def test_expected_retention_flattens_head(self):
        # Mean retained per ship across seeds stays at min(c, t).
        c, t, seeds = 2_000, 100, 30
        aligned = make_aligned({50: list(range(c))})
        totals = [len(curate(aligned, Threshold(t=t, origin="manual"), seed=s)) for s in range(seeds)]
        sigma_mean = np.sqrt(c * (t / c) * (1 - t / c) / seeds)
        assert abs(np.mean(totals) - t) <= 3 * sigma_mean
