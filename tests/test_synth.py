import numpy as np
import pytest

from pamcurate.errors import ValidationError
from pamcurate.geo_align import align
from synth import (
    MixtureSpec,
    TrafficSpec,
    ais_columns,
    aligned_of,
    exact_topn_per_cluster,
    gen_mixture,
    gen_traffic,
    kmeans_objective,
    kneedle_dense_oracle,
    lloyd_reference,
    tail_index_mle,
)


def three_blob_spec(n=600, seed=0, stddev=0.1):
    return MixtureSpec(
        k=3,
        dim=4,
        weights=(1 / 3, 1 / 3, 1 / 3),
        means=((10.0, 0.0, 0.0, 0.0), (0.0, 10.0, 0.0, 0.0), (0.0, 0.0, 10.0, 0.0)),
        stddevs=(stddev,) * 3,
        n=n,
        seed=seed,
    )


class TestGenMixture:
    def test_degenerate_single_component(self):
        spec = MixtureSpec(k=1, dim=3, weights=(1.0,), means=((2.0, -1.0, 0.5),), stddevs=(1e-12,), n=50, seed=1)
        points, labels = gen_mixture(spec)
        assert np.allclose(points, [2.0, -1.0, 0.5], atol=1e-9)
        assert np.all(labels == 0)

    def test_deterministic(self):
        a, la = gen_mixture(three_blob_spec())
        b, lb = gen_mixture(three_blob_spec())
        assert np.array_equal(a, b) and np.array_equal(la, lb)

    def test_nearest_mean_recovers_labels(self):
        spec = three_blob_spec()
        points, labels = gen_mixture(spec)
        means = np.asarray(spec.means)
        recovered = ((points[:, None, :] - means[None]) ** 2).sum(axis=2).argmin(axis=1)
        assert np.array_equal(recovered, labels)

    def test_validation(self):
        with pytest.raises(ValidationError):
            MixtureSpec(k=2, dim=1, weights=(0.5, 0.6), means=((0.0,), (1.0,)), stddevs=(1.0, 1.0), n=5, seed=0)
        with pytest.raises(ValidationError):
            MixtureSpec(k=1, dim=1, weights=(1.0,), means=((0.0,),), stddevs=(0.0,), n=5, seed=0)


class TestGenTraffic:
    def test_single_ship_fixed_occurrences(self):
        spec = TrafficSpec(ships=1, alpha=1.5, occ_min=10, occ_max=10, seed=3)
        sample = gen_traffic(spec)
        assert list(sample.counts.values()) == [10]
        assert len(sample.pulses) == 10
        assert len(sample.windows) == 10

    def test_deterministic(self):
        spec = TrafficSpec(ships=20, alpha=2.0, occ_min=1, occ_max=100, seed=9)
        assert gen_traffic(spec).pulses == gen_traffic(spec).pulses

    def test_tail_index_recovered(self):
        spec = TrafficSpec(ships=10_000, alpha=2.5, occ_min=10, occ_max=1_000_000, seed=7)
        sample = gen_traffic(spec)
        occ = np.array(list(sample.counts.values()))
        assert abs(tail_index_mle(occ, spec.occ_min) - 2.5) < 0.2

    def test_alignment_reproduces_ground_truth(self):
        spec = TrafficSpec(ships=25, alpha=1.8, occ_min=1, occ_max=40, seed=11)
        sample = gen_traffic(spec)
        result = align(ais_columns(sample.pulses), sample.deployment, side_km=4.0)
        assert result.windows == aligned_of(sample.windows)


class TestLloydReference:
    def test_fixpoint_on_k_distinct_points(self):
        base = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]])
        points = np.repeat(base, 10, axis=0)
        centroids = lloyd_reference(points, k=4, seed=0)
        assert np.allclose(np.sort(centroids, axis=0), np.sort(base, axis=0), atol=1e-12)

    def test_two_blobs_recovered(self):
        rng = np.random.default_rng(5)
        dim = 3
        a = rng.normal(size=(200, dim)) * 0.1 + 10.0
        b = rng.normal(size=(200, dim)) * 0.1 - 10.0
        centroids = lloyd_reference(np.vstack([a, b]), k=2, seed=1)
        got = np.sort(centroids[:, 0])
        assert abs(got[0] - (-10.0)) < 0.05 and abs(got[1] - 10.0) < 0.05

    def test_k_equals_n_zero_objective(self):
        rng = np.random.default_rng(8)
        points = rng.normal(size=(6, 2))
        centroids = lloyd_reference(points, k=6, seed=2)
        assert kmeans_objective(points, centroids) < 1e-24

    def test_n_below_k_rejected(self):
        with pytest.raises(ValidationError):
            lloyd_reference(np.zeros((2, 2)), k=3)

    def test_trajectory_collection(self):
        points, _ = gen_mixture(three_blob_spec(n=90, seed=4))
        _, trajectory = lloyd_reference(points, k=3, seed=0, collect_trajectory=True)
        assert len(trajectory) >= 1


class TestExactTopN:
    def test_zero_quota_empty(self):
        sel = exact_topn_per_cluster([1, 2], [[0.0], [1.0]], [[0.5]], quotas=[0])
        assert sel == {0: set()}

    def test_quota_covers_cluster(self):
        sel = exact_topn_per_cluster([1, 2, 3], [[0.0], [1.0], [9.0]], [[0.5], [8.0]], quotas=[5, 5])
        assert sel == {0: {1, 2}, 1: {3}}

    def test_distance_ranking(self):
        # Distances 5,1,3,2 from a single centroid at 0; quota 2 keeps {1,2}.
        ids = [10, 11, 12, 13]
        points = [[5.0], [1.0], [3.0], [2.0]]
        sel = exact_topn_per_cluster(ids, points, [[0.0]], quotas=[2])
        assert sel == {0: {11, 13}}

    def test_tie_broken_by_smaller_id(self):
        sel = exact_topn_per_cluster([7, 3], [[1.0], [-1.0]], [[0.0]], quotas=[1])
        assert sel == {0: {3}}


class TestKneedleOracle:
    def test_geometric_decay_knee_near_max_curvature(self):
        curve = lambda r: 1000.0 * 2.0 ** (-r)
        knee = kneedle_dense_oracle(curve, n_ranks=50)
        # Max curvature of the normalized curve sits near rank 5.6.
        assert 3.0 <= knee <= 8.0

    def test_needs_three_ranks(self):
        with pytest.raises(ValidationError):
            kneedle_dense_oracle(lambda r: 1.0, n_ranks=2)
