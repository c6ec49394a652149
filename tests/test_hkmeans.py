import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pamcurate.errors import DegenerateFitError, ParseError, ValidationError
from pamcurate.hkmeans import (
    CentroidSet,
    ClusterHierarchy,
    FitConfig,
    assign_batch,
    assign_path,
    build_hierarchy,
    load_model,
    minibatch_fit,
    nearest_centroids,
    normalize,
    resample_fit,
    save_model,
)
from pamcurate.synth import MixtureSpec, gen_mixture, lloyd_reference
from conftest import blocked_nearest_centroids


def norm_rows(x):
    x = np.asarray(x, dtype=np.float64)
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def three_blobs(seed, n=600, weights=(1 / 3, 1 / 3, 1 / 3), stddevs=(0.1, 0.1, 0.1)):
    spec = MixtureSpec(
        k=3,
        dim=4,
        weights=weights,
        means=((7.0711, 0.0, 0.0, 0.0), (0.0, 7.0711, 0.0, 0.0), (0.0, 0.0, 7.0711, 0.0)),
        stddevs=stddevs,
        n=n,
        seed=seed,
    )
    return gen_mixture(spec)


class TestNormalize:
    def test_three_four_five(self):
        assert np.allclose(normalize([3.0, 4.0]), [0.6, 0.8])

    def test_idempotent_on_unit_vector(self):
        v = normalize([1.0, 2.0, 2.0])
        assert np.allclose(normalize(v), v, atol=1e-15)

    def test_random_vectors_unit_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = normalize(rng.normal(size=8))
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-6

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError):
            normalize([0.0, 0.0])


class TestNearestCentroids:
    def test_matches_bruteforce_and_blocking_invariance(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(40, 5))
        cents = rng.normal(size=(7, 5))
        brute_d2 = ((pts[:, None, :] - cents[None]) ** 2).sum(axis=2)
        idx, d2 = nearest_centroids(pts, cents)
        idx_small, d2_small = nearest_centroids(pts, cents, block_elems=16)
        assert np.array_equal(idx, brute_d2.argmin(axis=1))
        assert np.array_equal(idx, idx_small)
        assert np.array_equal(d2, d2_small)
        assert np.array_equal(d2, brute_d2[np.arange(40), idx])

    def test_exact_tie_prefers_lower_index(self):
        idx, _ = nearest_centroids(np.array([[0.5, 0.5]]), np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert idx[0] == 0

    def test_single_point_single_centroid(self):
        idx, d2 = nearest_centroids(np.array([[3.0, 4.0]]), np.array([[0.0, 0.0]]))
        assert idx.tolist() == [0] and d2.tolist() == [25.0]

    def test_no_points_and_no_centroids(self):
        idx, d2 = nearest_centroids(np.zeros((0, 3)), np.ones((2, 3)))
        assert idx.shape == (0,) and d2.shape == (0,)
        with pytest.raises(ValidationError):
            nearest_centroids(np.ones((2, 3)), np.zeros((0, 3)))
        with pytest.raises(ValidationError):
            nearest_centroids(np.ones((2, 3)), np.ones((2, 4)))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_exhaustive_reference_on_planted_ties(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        n = data.draw(st.integers(1, 24))
        k = data.draw(st.integers(1, 24))
        # 128 is the block size of numpy's pairwise summation.
        d = data.draw(st.one_of(st.integers(1, 24), st.integers(120, 140), st.sampled_from([255, 256, 257, 300])))
        block_elems = data.draw(st.sampled_from([1, 5, 64, 1000, 1 << 20]))
        rng = np.random.default_rng(seed)
        points = norm_rows(rng.normal(size=(n, d)) + 1e-3)
        centroids = norm_rows(rng.normal(size=(k, d)) + 1e-3) * rng.uniform(0.3, 1.0, size=(k, 1))
        if data.draw(st.booleans(), label="float32 centroids"):
            centroids = centroids.astype(np.float32).astype(np.float64)
        if k > 1 and data.draw(st.booleans(), label="duplicate centroid"):
            centroids[rng.integers(k)] = centroids[rng.integers(k)]
        if k > 1 and data.draw(st.booleans(), label="one-ulp neighbour"):
            centroids[rng.integers(k)] = np.nextafter(centroids[rng.integers(k)], np.inf)
        if data.draw(st.booleans(), label="point on a centroid"):
            points[rng.integers(n)] = centroids[rng.integers(k)]
        if k > 1 and data.draw(st.booleans(), label="equidistant pair"):
            # Mirror one centroid in coordinate j and put the point on the
            # mirror plane: both differences square to the same term.
            a, b = rng.choice(k, size=2, replace=False)
            j = rng.integers(d)
            centroids[b] = centroids[a]
            centroids[b, j] = -centroids[a, j]
            points[rng.integers(n), j] = 0.0
        idx, d2 = nearest_centroids(points, centroids, block_elems=block_elems)
        ref_idx, ref_d2 = blocked_nearest_centroids(points, centroids)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(d2.view(np.int64), ref_d2.view(np.int64))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_exhaustive_reference_on_raw_floats(self, data):
        n, k, d = (data.draw(st.integers(1, hi)) for hi in (6, 6, 140))
        values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
        points = data.draw(arrays(np.float64, (n, d), elements=values))
        centroids = data.draw(arrays(np.float64, (k, d), elements=values))
        block_elems = data.draw(st.sampled_from([1, 3, 1 << 20]))
        idx, d2 = nearest_centroids(points, centroids, block_elems=block_elems)
        ref_idx, ref_d2 = blocked_nearest_centroids(points, centroids)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(d2.view(np.int64), ref_d2.view(np.int64))


class TestMinibatchFit:
    def test_k_repeated_points_reach_fixpoint(self):
        rng = np.random.default_rng(1)
        base = norm_rows(rng.normal(size=(4, 6)))
        points = np.repeat(base, 25, axis=0)
        rng.shuffle(points)
        cs = minibatch_fit(points, 4, FitConfig(batch_size=16, passes=2, seed=0))
        cents = cs.centroids.astype(np.float64)
        _, d2 = nearest_centroids(norm_rows(points), cents)
        assert d2.max() < 1e-10

    def test_blob_recovery_close_to_batch_reference(self):
        points, _ = three_blobs(seed=7, n=900)
        normalized = norm_rows(points)
        reference = lloyd_reference(normalized, 3, seed=0)
        cs = minibatch_fit(normalized, 3, FitConfig(batch_size=128, passes=2, seed=0))
        got = cs.centroids.astype(np.float64)
        best = min(
            max(np.linalg.norm(got[list(perm)] - reference, axis=1))
            for perm in itertools.permutations(range(3))
        )
        assert best < 0.1

    def test_single_pass_full_batch_is_one_lloyd_iteration(self):
        rng = np.random.default_rng(5)
        points = norm_rows(rng.normal(size=(200, 6)))
        init = points[:8].copy()
        _, mb_traj = minibatch_fit(
            points, 8, FitConfig(batch_size=len(points), passes=1, seed=0), init=init, collect_trajectory=True
        )
        _, lloyd_traj = lloyd_reference(points, 8, init=init, max_iter=1, collect_trajectory=True)
        assert len(mb_traj) == 1
        assert np.allclose(mb_traj[0], lloyd_traj[0], rtol=1e-10, atol=1e-12)

    def test_multi_pass_full_batch_follows_lloyd_trajectory(self):
        rng = np.random.default_rng(9)
        points = norm_rows(rng.normal(size=(300, 5)))
        init = points[::60].copy()  # 5 spread-out starting points
        passes = 6
        _, mb_traj = minibatch_fit(
            points, 5, FitConfig(batch_size=len(points), passes=passes, seed=0), init=init, collect_trajectory=True
        )
        _, lloyd_traj = lloyd_reference(points, 5, init=init, max_iter=passes, collect_trajectory=True)
        assert len(mb_traj) == passes
        for i, got in enumerate(mb_traj):
            expected = lloyd_traj[min(i, len(lloyd_traj) - 1)]
            assert np.allclose(got, expected, rtol=1e-9, atol=1e-12)

    def test_fewer_distinct_points_than_k_rejected(self):
        points = np.repeat(norm_rows([[1.0, 0.0], [0.0, 1.0]]), 30, axis=0)
        with pytest.raises(DegenerateFitError):
            minibatch_fit(points, 3, FitConfig(batch_size=8, passes=1, seed=0))

    def test_short_stream_rejected(self):
        with pytest.raises(DegenerateFitError):
            minibatch_fit(np.eye(2), 3, FitConfig(batch_size=8, passes=1, seed=0))

    def test_deterministic_and_chunking_invariant(self):
        points, _ = three_blobs(seed=11, n=400)
        config = FitConfig(batch_size=64, passes=2, seed=3)
        a = minibatch_fit(points, 3, config)
        b = minibatch_fit(points, 3, config)
        chunked = lambda: (points[i : i + 37] for i in range(0, len(points), 37))
        c = minibatch_fit(chunked, 3, config)
        assert a == b == c

    def test_counts_reflect_last_pass_absorptions(self):
        points, _ = three_blobs(seed=2, n=300)
        cs = minibatch_fit(points, 3, FitConfig(batch_size=50, passes=3, seed=0))
        assert cs.counts.sum() == 300


class TestResampleFit:
    def test_zero_rounds_identical_to_minibatch(self):
        points, _ = three_blobs(seed=4, n=300)
        config = FitConfig(batch_size=64, passes=2, resample_rounds=0, seed=5)
        assert resample_fit(points, 3, config) == minibatch_fit(points, 3, config)

    def test_deterministic(self):
        points, _ = three_blobs(seed=6, n=300)
        config = FitConfig(batch_size=64, passes=1, resample_rounds=2, seed=8)
        assert resample_fit(points, 3, config) == resample_fit(points, 3, config)

    def test_resampling_rescues_merged_tail_modes(self):
        # Wide dominant mode plus two tight modes only 30 degrees apart: the
        # plain fit usually spends two centroids on the head and merges the
        # tail pair; rebalanced refits split them.
        theta = np.radians(30.0)
        means = (
            (8.0, 0.0, 0.0, 0.0),
            (0.0, 8.0, 0.0, 0.0),
            (0.0, 8.0 * np.cos(theta), 8.0 * np.sin(theta), 0.0),
        )
        means_n = norm_rows(np.asarray(means))

        def captures(rounds):
            hits = 0
            for seed in range(20):
                spec = MixtureSpec(
                    k=3, dim=4, weights=(0.9, 0.05, 0.05), means=means, stddevs=(0.6, 0.05, 0.05), n=2000, seed=seed
                )
                points, _ = gen_mixture(spec)
                config = FitConfig(batch_size=256, passes=2, resample_rounds=rounds, seed=seed)
                centroids = resample_fit(points, 3, config).centroids.astype(np.float64)
                dmin = np.sqrt(((means_n[:, None, :] - centroids[None]) ** 2).sum(axis=2)).min(axis=1)
                hits += bool(np.all(dmin < 0.25))
            return hits

        plain, resampled = captures(0), captures(3)
        assert resampled >= 15
        assert resampled >= plain + 5


class TestBuildHierarchy:
    def test_two_level_on_four_repeated_points(self):
        angles = np.radians([0.0, 10.0, 180.0, 190.0])
        base = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        rng = np.random.default_rng(0)
        points = np.repeat(base, 15, axis=0)
        rng.shuffle(points)
        config = FitConfig(level_ks=(4, 2), batch_size=20, passes=2, resample_rounds=1, seed=1)
        hierarchy = build_hierarchy(points, config)

        level1 = np.sort(hierarchy.levels[0].centroids.astype(np.float64), axis=0)
        assert np.allclose(level1, np.sort(base, axis=0), atol=1e-6)

        # Exhaustive 2-partition reference over the level-1 centroids.
        cents = hierarchy.levels[0].centroids.astype(np.float64)
        best_obj, best_means = None, None
        for mask_bits in range(1, 2**4 - 1):
            mask = np.array([(mask_bits >> i) & 1 for i in range(4)], dtype=bool)
            means = np.stack([cents[mask].mean(axis=0), cents[~mask].mean(axis=0)])
            obj = (((cents[:, None, :] - means[None]) ** 2).sum(axis=2)).min(axis=1).sum()
            if best_obj is None or obj < best_obj:
                best_obj, best_means = obj, means
        level2 = np.sort(hierarchy.levels[1].centroids.astype(np.float64), axis=0)
        assert np.allclose(level2, np.sort(best_means, axis=0), atol=1e-6)

    def test_single_level_hierarchy(self):
        points, _ = three_blobs(seed=3, n=200)
        hierarchy = build_hierarchy(points, FitConfig(level_ks=(3,), batch_size=64, passes=1, seed=0))
        assert hierarchy.parents == ()
        assert hierarchy.path_of(2) == (2,)

    def test_level_ks_must_strictly_decrease(self):
        with pytest.raises(ValidationError):
            FitConfig(level_ks=(10, 10))

    def test_production_level_config_valid(self):
        from pamcurate.hkmeans import PRODUCTION_LEVEL_KS

        assert PRODUCTION_LEVEL_KS == (6000, 400, 40, 10)
        FitConfig(level_ks=PRODUCTION_LEVEL_KS, seed=0)

    def test_errors_labeled_with_level(self):
        points = norm_rows(np.eye(3))
        with pytest.raises(DegenerateFitError, match="level 1"):
            build_hierarchy(points, FitConfig(level_ks=(5, 2), batch_size=8, passes=1, seed=0))

    def test_parent_and_membership_consistency(self):
        points, _ = three_blobs(seed=13, n=500)
        hierarchy = build_hierarchy(points, FitConfig(level_ks=(8, 3, 2), batch_size=100, passes=2, seed=2))
        leaf_idx, _ = assign_batch(points, hierarchy)
        occupancy = [np.bincount(leaf_idx, minlength=hierarchy.levels[0].k)]
        for pmap in hierarchy.parents:
            upper = np.zeros(pmap.max() + 1, dtype=np.int64)
            np.add.at(upper, pmap.astype(np.int64), occupancy[-1])
            occupancy.append(upper)
        # Child occupancy sums equal parent occupancy at every level.
        for level, pmap in enumerate(hierarchy.parents):
            summed = np.zeros(hierarchy.levels[level + 1].k, dtype=np.int64)
            np.add.at(summed, pmap.astype(np.int64), occupancy[level])
            assert np.array_equal(summed, occupancy[level + 1][: hierarchy.levels[level + 1].k])

    def test_bit_identical_given_seed_and_order(self):
        points, _ = three_blobs(seed=17, n=400)
        config = FitConfig(level_ks=(6, 2), batch_size=64, passes=2, resample_rounds=2, seed=21)
        assert build_hierarchy(points, config) == build_hierarchy(points, config)


class TestAssignPath:
    def _unit_hierarchy(self):
        cents = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=np.float32)
        level1 = CentroidSet(level=1, centroids=cents, counts=np.ones(3, np.uint64))
        level2 = CentroidSet(
            level=2, centroids=np.array([[0.9, 0.1, 0.0], [0.0, 0.1, 0.9]], np.float32), counts=np.ones(2, np.uint64)
        )
        parents = (np.array([0, 0, 1], np.uint32),)
        return ClusterHierarchy(levels=(level1, level2), parents=parents)

    def test_vector_on_leaf_centroid(self):
        hierarchy = self._unit_hierarchy()
        path, dist = assign_path([0.0, 1.0, 0.0], hierarchy)
        assert path == (0, 1)
        assert dist == 0.0

    def test_equidistant_tie_lower_leaf_wins(self):
        hierarchy = self._unit_hierarchy()
        path, _ = assign_path([1.0, 1.0, 0.0], hierarchy)
        assert path[-1] == 0

    def test_path_matches_parent_chain_for_all_points(self):
        points, _ = three_blobs(seed=19, n=300)
        hierarchy = build_hierarchy(points, FitConfig(level_ks=(8, 3), batch_size=64, passes=1, seed=4))
        leaf_idx, _ = assign_batch(points, hierarchy)
        for vec, leaf in zip(points[:40], leaf_idx[:40]):
            path, _ = assign_path(vec, hierarchy)
            assert path[-1] == leaf
            assert path[-2] == int(hierarchy.parents[0][leaf])

    def test_dim_mismatch_rejected(self):
        hierarchy = self._unit_hierarchy()
        with pytest.raises(ValidationError):
            assign_path([1.0, 0.0], hierarchy)


class TestModelIO:
    def _random_hierarchy(self, rng, ks=(7, 3, 2), dim=5):
        sets = []
        for level, k in enumerate(ks, start=1):
            sets.append(
                CentroidSet(
                    level=level,
                    centroids=rng.standard_normal((k, dim)).astype(np.float32),
                    counts=rng.integers(0, 1000, size=k).astype(np.uint64),
                )
            )
        parents = []
        for lower, upper in zip(sets, sets[1:]):
            idx, _ = nearest_centroids(lower.centroids.astype(np.float64), upper.centroids.astype(np.float64))
            parents.append(idx.astype(np.uint32))
        return ClusterHierarchy(levels=tuple(sets), parents=tuple(parents))

    def test_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(23)
        hierarchy = self._random_hierarchy(rng)
        path = tmp_path / "model.bin"
        save_model(hierarchy, path)
        assert load_model(path) == hierarchy

    def test_round_trip_fitted(self, tmp_path):
        points, _ = three_blobs(seed=29, n=300)
        hierarchy = build_hierarchy(points, FitConfig(level_ks=(5, 2), batch_size=64, passes=1, seed=6))
        path = tmp_path / "model.bin"
        save_model(hierarchy, path)
        assert load_model(path) == hierarchy

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 16)
        with pytest.raises(ParseError) as err:
            load_model(path)
        assert err.value.offset == 0

    def test_truncation_detected(self, tmp_path):
        rng = np.random.default_rng(31)
        path = tmp_path / "model.bin"
        save_model(self._random_hierarchy(rng), path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ParseError):
            load_model(path)

    def test_trailing_bytes_detected(self, tmp_path):
        rng = np.random.default_rng(37)
        path = tmp_path / "model.bin"
        save_model(self._random_hierarchy(rng), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ParseError):
            load_model(path)

    def test_tampered_parent_map_rejected(self, tmp_path):
        rng = np.random.default_rng(41)
        hierarchy = self._random_hierarchy(rng, ks=(4, 2), dim=3)
        path = tmp_path / "model.bin"
        save_model(hierarchy, path)
        data = bytearray(path.read_bytes())
        data[-4:] = (1 - int(hierarchy.parents[-1][-1])).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(ParseError, match="inconsistent"):
            load_model(path)
