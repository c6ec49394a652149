import hashlib
import itertools
import warnings

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
    _absorb,
    _kmeans_pp_init,
    _lloyd,
    _normalize_rows,
    assign_batch,
    build_hierarchy,
    load_model,
    minibatch_fit,
    nearest_centroids,
    resample_fit,
    save_model,
)
from synth import MixtureSpec, _kmeans_pp, absorb_reference, gen_mixture, lloyd_reference, parents_reference
from conftest import blocked_nearest_centroids, make_hierarchy


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
        assert np.allclose(_normalize_rows([[3.0, 4.0]]), [[0.6, 0.8]])

    def test_idempotent_on_unit_vector(self):
        v = _normalize_rows([[1.0, 2.0, 2.0]])
        assert np.allclose(_normalize_rows(v), v, atol=1e-15)

    def test_random_vectors_unit_norm(self):
        rng = np.random.default_rng(0)
        v = _normalize_rows(rng.normal(size=(50, 8)))
        assert np.all(np.abs(np.linalg.norm(v, axis=1) - 1.0) <= 1e-6)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError, match="zero vector at row 1"):
            _normalize_rows([[1.0, 0.0], [0.0, 0.0]])


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

    @staticmethod
    def grid_rows(rng, n, d):
        """Gaussian rows of norm near 1, rounded to multiples of 2⁻⁵.  Each
        ``G = ‖c‖² − 2·x·c`` of such rows is a multiple of 2⁻¹⁰ that float32
        holds exactly, in any summation order, so two centroids' ``G`` tie
        exactly or differ by 2⁻¹⁰ or more, over 8 times the float32 slack
        (below 1.2e-4 here).  A row takes the sorting route iff it has an
        exact tie."""
        return np.round(rng.normal(size=(n, d)) * (32 / np.sqrt(d))) / 32

    @staticmethod
    def exact_ties(points, centroids):
        """Per row, the number of centroids at its least distance, exact on the grid."""
        dist = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        return np.count_nonzero(dist == dist.min(axis=1, keepdims=True), axis=1)

    @staticmethod
    def plant_ties(rng, points, centroids, rows, blocks):
        """Make centroids ``a`` and ``b`` mirror images, 2⁻⁴ apart in one
        coordinate, and put one point of each block in ``blocks`` (of ``rows``
        points each) on their mirror plane: it is 2⁻¹⁰ from both, so its row
        ties unless another centroid is nearer."""
        k, d = centroids.shape
        a, b = rng.choice(k, size=2, replace=False)
        j = rng.integers(d)
        centroids[a, j] = 2.0**-5
        centroids[b] = centroids[a]
        centroids[b, j] = -(2.0**-5)
        for block in blocks:
            r = block * rows + rng.integers(min(rows, len(points) - block * rows))
            points[r] = centroids[a]
            points[r, j] = 0.0

    @staticmethod
    def count_sorts(monkeypatch):
        calls = []
        real = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(len(keys[0])) or real(keys))
        return calls

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_tie_free_and_tied_blocks_in_one_call(self, data):
        """Only the blocks with a tie, planted or met on the grid, take the
        sorting route, and both routes equal the exhaustive search, whatever
        the layout of ``points``."""
        seed = data.draw(st.integers(0, 2**32 - 1))
        n = data.draw(st.integers(1, 2000))
        k = data.draw(st.integers(2, 24))
        d = data.draw(st.one_of(st.integers(1, 24), st.integers(120, 140)))
        block_elems = data.draw(st.sampled_from([64, 300, 1000, 4096]))
        rng = np.random.default_rng(seed)
        points = self.grid_rows(rng, n, d)
        centroids = self.grid_rows(rng, k, d)
        rows = max(1, block_elems // max(k, d))
        blocks = -(-n // rows)
        planted = data.draw(st.sets(st.integers(0, blocks - 1), max_size=min(blocks, 8)), label="tied blocks")
        self.plant_ties(rng, points, centroids, rows, planted)
        tied = set(np.flatnonzero(self.exact_ties(points, centroids) > 1) // rows)
        layout = data.draw(st.sampled_from(["C", "F", "column-strided"]))
        if layout == "F":
            points = np.asfortranarray(points)
        elif layout == "column-strided":
            wide = np.zeros((n, 2 * d))
            wide[:, ::2] = points
            points = wide[:, ::2]
        with pytest.MonkeyPatch.context() as patch:
            sorts = self.count_sorts(patch)
            idx, d2 = nearest_centroids(points, centroids, block_elems=block_elems)
        assert len(sorts) == len(tied)
        ref_idx, ref_d2 = blocked_nearest_centroids(points, centroids, block_elems=1 << 18)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(d2.view(np.int64), ref_d2.view(np.int64))

    def test_tie_free_input_never_sorts(self, monkeypatch):
        """A block in which every row has one candidate skips the gather and
        the sort; losing that route would not change a result, only the time."""
        rng = np.random.default_rng(5)
        points = norm_rows(rng.normal(size=(3000, 16)))
        centroids = norm_rows(rng.normal(size=(50, 16)))
        sorts = self.count_sorts(monkeypatch)
        idx, d2 = nearest_centroids(points, centroids, block_elems=5000)
        assert sorts == []
        ref_idx, ref_d2 = blocked_nearest_centroids(points, centroids)
        assert np.array_equal(idx, ref_idx) and np.array_equal(d2, ref_d2)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_per_row_tie_test(self, data):
        """Ties at block edges and several in one block, a duplicate centroid
        (three tied columns on the mirror plane), ``k = 1``, and rows whose
        ``G`` overflows to ``inf`` or is NaN from ``inf − inf``: every result
        equals the exhaustive search.  Each sort holds the candidates of its
        block's tied rows and nothing else."""
        seed = data.draw(st.integers(0, 2**32 - 1))
        n = data.draw(st.integers(1, 300))
        k = data.draw(st.one_of(st.just(1), st.integers(2, 24)))
        d = data.draw(st.one_of(st.integers(1, 24), st.integers(120, 140)))
        block_elems = data.draw(st.sampled_from([24, 64, 300, 1000, 1 << 20]))
        rng = np.random.default_rng(seed)
        points = self.grid_rows(rng, n, d)
        centroids = self.grid_rows(rng, k, d)
        rows = max(1, block_elems // max(k, d))
        if k > 1:
            a, b = rng.choice(k, size=2, replace=False)
            j = rng.integers(d)
            centroids[a, j] = 2.0**-5
            centroids[b] = centroids[a]
            centroids[b, j] = -(2.0**-5)
            if k > 2 and data.draw(st.booleans(), label="duplicate centroid"):
                centroids[next(c for c in range(k) if c not in (a, b))] = centroids[a]
            edges = sorted({*range(0, n, rows), *(min(i + rows, n) - 1 for i in range(0, n, rows))})
            planted = data.draw(st.sets(st.one_of(st.sampled_from(edges), st.integers(0, n - 1)), max_size=12))
            for r in planted:
                points[r] = centroids[a]
                points[r, j] = 0.0
        huge = data.draw(st.sets(st.integers(0, n - 1), max_size=3), label="huge rows")
        if huge:
            # Near 1e154 a square is near the largest float: ‖c‖² and x·c
            # overflow, and G is inf, or NaN where both do with equal signs.
            scale = 10.0 ** rng.uniform(153.5, 154.5)
            c = rng.integers(k)
            centroids[c] *= scale
            for r in huge:
                points[r] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0) * centroids[c]
        with pytest.MonkeyPatch.context() as patch, np.errstate(over="ignore", invalid="ignore"):
            sorts = self.count_sorts(patch)
            idx, d2 = nearest_centroids(points, centroids, block_elems=block_elems)
            ref_idx, ref_d2 = blocked_nearest_centroids(points, centroids)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(d2.view(np.int64), ref_d2.view(np.int64))
        if not huge:
            # On the grid, a row's candidates are the centroids tied with its
            # nearest; a tied row has two or more.
            candidates = self.exact_ties(points, centroids)
            per_block = [candidates[i : i + rows] for i in range(0, n, rows)]
            assert sorts == [int(c[c > 1].sum()) for c in per_block if (c > 1).any()]


def seed_both(points, k, seed):
    """Seed with ``_kmeans_pp_init`` and with the ``rng.choice`` reference from
    one seed; returns each one's centres (``None`` if it raised) and next draw."""
    runs = []
    for seeder, error in ((_kmeans_pp_init, DegenerateFitError), (_kmeans_pp, ValidationError)):
        rng = np.random.default_rng(seed)
        try:
            centres = seeder(points, k, rng)
        except error as exc:
            assert "fewer than" in str(exc)
            centres = None
        runs.append((centres, rng.random()))
    return runs


class TestKmeansPPInit:
    """``_kmeans_pp_init`` draws what ``rng.choice`` seeding draws, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_choice_reference(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        n = data.draw(st.integers(1, 40))
        # 128 is the block size of numpy's pairwise summation.
        d = data.draw(st.one_of(st.integers(1, 6), st.integers(120, 136)))
        rng = np.random.default_rng(seed)
        # A small integer grid plants exact distance ties and duplicate rows.
        points = rng.integers(-1, 2, size=(n, d)).astype(np.float64)
        points[~points.any(axis=1), 0] = 1.0
        if n > 1 and data.draw(st.booleans(), label="duplicated rows"):
            points[rng.integers(n, size=n // 2)] = points[rng.integers(n)]
        points = norm_rows(points)
        if data.draw(st.booleans(), label="non-unit float32 rows"):
            points = (points * rng.uniform(0.3, 1.0, size=(n, 1))).astype(np.float32).astype(np.float64)
        if n > 1 and data.draw(st.booleans(), label="one-ulp neighbours"):
            points[rng.integers(n, size=n // 2)] = np.nextafter(points[rng.integers(n)], np.inf)
        k = data.draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)), label="k")
        (got, got_next), (want, want_next) = seed_both(points, k, seed)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert got_next == want_next

    def test_large_buffer_equals_choice_reference(self):
        points = norm_rows(np.random.default_rng(43).normal(size=(2000, 24)))
        (got, got_next), (want, want_next) = seed_both(points, 120, 44)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert got_next == want_next

    @pytest.mark.parametrize("seed", range(20))
    def test_one_ulp_apart_rows_are_distinct_until_both_are_centres(self, seed):
        # Each row's d2 to the other is about 1e-32, far below the rounding
        # error of G: the gate must still re-score a row that becomes a centre.
        a = norm_rows(np.random.default_rng(seed).normal(size=(1, 24)))
        points = np.repeat(np.vstack([a, np.nextafter(a, np.inf)]), 3, axis=0)
        for k in (2, 3):
            (got, got_next), (want, want_next) = seed_both(points, k, seed)
            assert (got is None) == (want is None) == (k == 3)
            if want is not None:
                assert np.array_equal(got, want)
            assert got_next == want_next

    def test_degenerate_buffer_raises_at_the_reference_step(self):
        # Three distinct rows: both seeders draw two more centres, then stop.
        points = np.repeat(norm_rows(np.eye(3)), 5, axis=0)
        (got, got_next), (want, want_next) = seed_both(points, 4, 7)
        assert got is None and want is None
        assert got_next == want_next
        with pytest.raises(DegenerateFitError, match="fewer than 4 distinct points"):
            _kmeans_pp_init(points, 4, np.random.default_rng(7))


def float32_ulp_up(rows):
    """Each value rounded to float32, then one float32 ulp up."""
    return np.nextafter(rows.astype(np.float32), np.float32(np.inf)).astype(np.float64)


# Scales at which float32 fails where float64 does not: products of two
# such values overflow (1e20), are subnormal (1e-20) or underflow to 0
# (1e-25), a value is subnormal in float32 (1e-40), or is past its range (1e39).
FLOAT32_HAZARD_SCALES = [1e20, 1e-20, 1e-25, 1e-40, 1e39]


class TestFloat32Screens:
    """Both float32 screens keep every result bit-identical to its float64
    reference where float32 itself breaks down: rows whose products overflow
    or underflow in float32 only, near-ties inside the float32 slack but far
    outside a float64 one, rows one float32 ulp apart, and d up to 768.  No
    float32 overflow warning escapes either kernel."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_nearest_centroids_equals_exhaustive_reference(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        n = data.draw(st.integers(1, 30))
        k = data.draw(st.integers(1, 16))
        d = data.draw(st.one_of(st.integers(1, 24), st.integers(120, 140), st.integers(700, 768)))
        block_elems = data.draw(st.sampled_from([1, 64, 1 << 20]))
        rng = np.random.default_rng(seed)
        points = norm_rows(rng.normal(size=(n, d)) + 1e-3)
        centroids = norm_rows(rng.normal(size=(k, d)) + 1e-3) * rng.uniform(0.3, 1.0, size=(k, 1))
        if k > 1 and data.draw(st.booleans(), label="near-tie centroids"):
            # 1e-7 apart: G differs by about 1e-7, inside the float32 slack.
            a, b = rng.choice(k, size=2, replace=False)
            centroids[b] = centroids[a] * (1 + 1e-7 * rng.standard_normal(d))
            points[rng.integers(n, size=n // 2 + 1)] = centroids[a] * (1 + 1e-7 * rng.standard_normal(d))
        if k > 1 and data.draw(st.booleans(), label="one float32 ulp apart"):
            a, b = rng.choice(k, size=2, replace=False)
            r = rng.integers(n, size=n // 2 + 1)
            centroids[a] = points[r[0]]
            centroids[b] = float32_ulp_up(points[r[0]])
            points[r[1:]] = float32_ulp_up(points[r[:-1]])
        scale = data.draw(st.sampled_from([1.0, *FLOAT32_HAZARD_SCALES]), label="scale of all values")
        points *= scale
        centroids *= scale
        for target, label in ((points, "scaled rows"), (centroids, "scaled centroids")):
            for i in data.draw(st.sets(st.integers(0, len(target) - 1), max_size=3), label=label):
                target[i] *= data.draw(st.sampled_from(FLOAT32_HAZARD_SCALES))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            idx, d2 = nearest_centroids(points, centroids, block_elems=block_elems)
            ref_idx, ref_d2 = blocked_nearest_centroids(points, centroids)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(d2.view(np.int64), ref_d2.view(np.int64))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_kmeans_pp_init_equals_choice_reference(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        n = data.draw(st.integers(1, 40))
        d = data.draw(st.one_of(st.integers(1, 6), st.integers(120, 136), st.integers(700, 768)))
        rng = np.random.default_rng(seed)
        points = norm_rows(rng.normal(size=(n, d)) + 1e-3)
        if n > 1 and data.draw(st.booleans(), label="near-tie rows"):
            points[rng.integers(n, size=n // 2)] = points[rng.integers(n)] * (1 + 1e-7 * rng.standard_normal(d))
        if n > 1 and data.draw(st.booleans(), label="one float32 ulp apart"):
            r = rng.integers(n, size=n // 2 + 1)
            points[r[1:]] = float32_ulp_up(points[r[:-1]])
        scale = data.draw(st.sampled_from([1.0, *FLOAT32_HAZARD_SCALES]), label="scale of all rows")
        points *= scale
        for i in data.draw(st.sets(st.integers(0, n - 1), max_size=3), label="scaled rows"):
            points[i] *= data.draw(st.sampled_from(FLOAT32_HAZARD_SCALES))
        k = data.draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)), label="k")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (got, got_next), (want, want_next) = seed_both(points, k, seed)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert got_next == want_next


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

    # The fit returns float32 centroids: a float64 value rounds to within 2**-24 of itself.
    FLOAT32_RTOL = 2**-23

    def test_single_pass_full_batch_is_one_lloyd_iteration(self):
        rng = np.random.default_rng(5)
        points = norm_rows(rng.normal(size=(200, 6)))
        init = points[:8].copy()
        cs = minibatch_fit(points, 8, FitConfig(batch_size=len(points), passes=1, seed=0), init=init)
        expected = lloyd_reference(points, 8, init=init, max_iter=1)
        assert np.allclose(cs.centroids, expected, rtol=self.FLOAT32_RTOL, atol=1e-12)

    def test_multi_pass_full_batch_follows_lloyd_trajectory(self):
        rng = np.random.default_rng(9)
        points = norm_rows(rng.normal(size=(300, 5)))
        init = points[::60].copy()  # 5 spread-out starting points
        _, trajectory = lloyd_reference(points, 5, init=init, max_iter=6, collect_trajectory=True)
        for passes in range(1, 7):
            cs = minibatch_fit(points, 5, FitConfig(batch_size=len(points), passes=passes, seed=0), init=init)
            expected = trajectory[min(passes, len(trajectory)) - 1]
            assert np.allclose(cs.centroids, expected, rtol=self.FLOAT32_RTOL, atol=1e-12)

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

    def test_one_shot_iterator_cannot_feed_a_second_pass(self):
        """A source is an array or a callable that starts a new pass per
        call; a generator object could feed one pass only, so it is
        refused before the first."""
        points, _ = three_blobs(seed=0, n=500)
        config = FitConfig(batch_size=64, passes=2, seed=0)
        assert minibatch_fit(points, 3, config).counts.sum() == 500
        with pytest.raises(ValidationError, match=r"point chunks must be 2-d arrays, got shape \(\)"):
            minibatch_fit(iter([points]), 3, config)

    # float32 rounding moves a coordinate of magnitude at most 1 by at most
    # 2**-25; the bound allows twice that.
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_centroids_stay_inside_the_bounding_box_of_the_stream(self, data):
        """Every centroid is a running mean of normalized stream rows (or a
        seed drawn from them), so it lies in their bounding box, whatever
        the chunking, 1-row chunks included."""
        n = data.draw(st.integers(1, 60), label="n")
        dim = data.draw(st.integers(2, 5), label="dim")
        k = data.draw(st.integers(1, min(n, 4)), label="k")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        points = np.random.default_rng(seed).standard_normal((n, dim))
        sizes = data.draw(st.lists(st.integers(1, 7), min_size=1, max_size=5), label="chunk sizes")
        cuts = np.cumsum(list(itertools.islice(itertools.cycle(sizes), n)))
        source = lambda: np.split(points, cuts[cuts < n])
        config = FitConfig(batch_size=data.draw(st.integers(1, 20)), passes=data.draw(st.integers(1, 3)), seed=seed)
        centroids = minibatch_fit(source, k, config).centroids.astype(np.float64)
        normalized = _normalize_rows(points)
        assert np.all(centroids >= normalized.min(axis=0) - 2**-24)
        assert np.all(centroids <= normalized.max(axis=0) + 2**-24)

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

    DEFAULTS = (FitConfig().passes, FitConfig().resample_rounds)

    @pytest.mark.parametrize("passes, rounds, calls", [(*DEFAULTS, 11), (1, 0, 1), (3, 1, 7)])
    def test_a_callable_source_is_called_once_per_pass(self, passes, rounds, calls):
        """``passes`` for the first fit, then per resample round one
        assignment pass and ``passes`` over the resampled stream: 11 at the
        defaults, the per-shard fit reads that ``bench/tests`` expects."""
        points, _ = three_blobs(seed=19, n=300)
        made = []

        def source():
            made.append(None)
            return iter([points[:100], points[100:]])

        config = FitConfig(level_ks=(4, 2), passes=passes, resample_rounds=rounds, seed=3)
        build_hierarchy(source, config)
        assert len(made) == calls == passes + rounds * (1 + passes)

    def test_chunking_does_not_change_the_model(self):
        points, _ = three_blobs(seed=23, n=400)
        config = FitConfig(level_ks=(6, 2), batch_size=64, passes=2, resample_rounds=2, seed=5)
        model = build_hierarchy(points, config)
        for rows in (1, 37, config.batch_size + 1):
            chunked = lambda: (points[i : i + rows] for i in range(0, len(points), rows))
            assert build_hierarchy(chunked, config) == model, rows


class TestAbsorb:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_add_at_reference(self, data):
        """``−0.0`` coordinates, empty clusters, one point, dims up to 300 and
        counts that are not zero on entry: the centroids and counts equal
        the ``np.add.at`` reference's bit for bit."""
        seed = data.draw(st.integers(0, 2**32 - 1))
        n = data.draw(st.one_of(st.just(1), st.integers(1, 500)))
        k = data.draw(st.integers(1, 40))
        d = data.draw(st.one_of(st.integers(1, 24), st.integers(250, 300)))
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(n, d))
        if data.draw(st.booleans(), label="negative zeros"):
            points[rng.random((n, d)) < 0.5] = -0.0
            points[:, rng.integers(d)] = -0.0
        # The rows go to some of the clusters, so the others stay empty.
        idx = rng.choice(rng.choice(k, size=data.draw(st.integers(1, k)), replace=False), size=n)
        counts = rng.integers(0, 5, size=k) if data.draw(st.booleans(), label="earlier counts") else np.zeros(k, np.int64)
        centroids = rng.normal(size=(k, d))
        got, want = centroids.copy(), centroids.copy()
        got_counts, want_counts = counts.copy(), counts.copy()
        _absorb(got, got_counts, points, idx)
        absorb_reference(want, want_counts, points, idx)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(got_counts, want_counts)


class TestLloyd:
    """``_lloyd`` (the upper levels) against ``lloyd_reference`` from the same init."""

    def _check(self, points, init):
        centroids, counts = _lloyd(points, len(init), init, max_iter=500)
        expected = lloyd_reference(points, len(init), init=init, max_iter=500)
        assert np.array_equal(centroids, expected)
        nearest = ((points[:, None] - expected[None]) ** 2).sum(axis=2).argmin(axis=1)
        assert np.array_equal(counts, np.bincount(nearest, minlength=len(init)))
        return centroids, counts

    def test_equals_reference_on_random_points(self):
        rng = np.random.default_rng(23)
        for n, d, k in [(40, 2, 3), (300, 16, 25), (500, 5, 60), (120, 33, 7)]:
            points = rng.normal(size=(n, d))
            self._check(points, points[rng.choice(n, size=k, replace=False)])

    def test_centroid_that_loses_all_points_stays_put(self):
        points = norm_rows(np.random.default_rng(29).normal(size=(60, 3)))
        # Centroid 1 ties centroid 0 on every point and loses them all to the
        # lower index; centroid 2 is nearer none of them.
        init = np.vstack([points[0], points[0], [10.0, 10.0, 10.0], points[1]])
        centroids, counts = self._check(points, init)
        assert counts[2] == 0 and np.array_equal(centroids[2], init[2])
        assert counts.sum() == len(points)


class TestParentMaps:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_parents_equal_exhaustive_argmin(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        ks = sorted(data.draw(st.sets(st.integers(1, 20), min_size=1, max_size=4)), reverse=True)
        d = data.draw(st.integers(1, 12))
        cents = [rng.standard_normal((k, d)).astype(np.float32) for k in ks]
        for lower, upper in zip(cents, cents[1:]):
            a, b = rng.choice(len(upper), size=2) if len(upper) > 1 else (0, 0)
            if a != b and data.draw(st.booleans(), label="child on duplicate parents"):
                upper[b] = upper[a]
                lower[rng.integers(len(lower))] = upper[a]
            if a != b and data.draw(st.booleans(), label="child equidistant from mirrored parents"):
                # Both differences in coordinate j square to the same term.
                j = rng.integers(d)
                upper[b] = upper[a]
                upper[b, j] = -upper[a, j]
                child = lower[rng.integers(len(lower))]
                child[:] = upper[a]
                child[j] = 0.0
        levels = tuple(CentroidSet(centroids=c, counts=np.zeros(len(c), np.uint64)) for c in cents)
        parents = ClusterHierarchy(levels=levels).parents
        expected = parents_reference(levels)
        assert len(parents) == len(expected) == len(levels) - 1
        for got, want in zip(parents, expected):
            assert got.dtype == np.uint32
            assert np.array_equal(got, want)


class TestAssignPath:
    def _unit_hierarchy(self):
        cents = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=np.float32)
        level1 = CentroidSet(centroids=cents, counts=np.ones(3, np.uint64))
        level2 = CentroidSet(centroids=np.array([[0.9, 0.1, 0.0], [0.0, 0.1, 0.9]], np.float32), counts=np.ones(2, np.uint64))
        return ClusterHierarchy(levels=(level1, level2))

    def _path(self, vector, hierarchy):
        leaf, dist = assign_batch([vector], hierarchy)
        return hierarchy.path_of(int(leaf[0])), float(dist[0])

    def test_vector_on_leaf_centroid(self):
        hierarchy = self._unit_hierarchy()
        path, dist = self._path([0.0, 1.0, 0.0], hierarchy)
        assert path == (0, 1)
        assert dist == 0.0

    def test_equidistant_tie_lower_leaf_wins(self):
        hierarchy = self._unit_hierarchy()
        path, _ = self._path([1.0, 1.0, 0.0], hierarchy)
        assert path[-1] == 0

    def test_path_matches_parent_chain_for_all_points(self):
        points, _ = three_blobs(seed=19, n=300)
        hierarchy = build_hierarchy(points, FitConfig(level_ks=(8, 3), batch_size=64, passes=1, seed=4))
        leaf_idx, _ = assign_batch(points, hierarchy)
        for vec, leaf in zip(points[:40], leaf_idx[:40]):
            path, _ = self._path(vec, hierarchy)
            assert path[-1] == leaf
            assert path[-2] == int(hierarchy.parents[0][leaf])

    def test_dim_mismatch_rejected(self):
        hierarchy = self._unit_hierarchy()
        with pytest.raises(ValidationError):
            assign_batch([[1.0, 0.0]], hierarchy)


class TestModelIO:
    def test_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(23)
        hierarchy = make_hierarchy(rng)
        path = tmp_path / "model.bin"
        save_model(hierarchy, path)
        assert load_model(path) == hierarchy

    def test_round_trip_fitted(self, tmp_path):
        points, _ = three_blobs(seed=29, n=300)
        hierarchy = build_hierarchy(points, FitConfig(level_ks=(5, 2), batch_size=64, passes=1, seed=6))
        path = tmp_path / "model.bin"
        save_model(hierarchy, path)
        assert load_model(path) == hierarchy

    @staticmethod
    def fitted_model_digest(tmp_path, config):
        # A change of any seeding draw, assignment or mean changes these bytes.
        means = np.random.default_rng(5).normal(0.0, 3.0, size=(12, 16))
        weights = 1.0 / np.arange(1, 13) ** 1.1
        spec = MixtureSpec(
            k=12,
            dim=16,
            weights=tuple(weights / weights.sum()),
            means=tuple(map(tuple, means)),
            stddevs=(1.0,) * 12,
            n=3000,
            seed=7,
        )
        points, _ = gen_mixture(spec)
        path = tmp_path / "model.bin"
        save_model(build_hierarchy(points.astype(np.float32), config), path)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_fitted_model_bytes_are_pinned(self, tmp_path):
        digest = self.fitted_model_digest(tmp_path, FitConfig(level_ks=(64, 8)))
        assert digest == "0ea6a0bdb0ffc5691041e093058c238abf9ba3e4b65d3508b03212d5231b348e"

    def test_fitted_model_bytes_are_pinned_across_batches(self, tmp_path):
        # Batches of 1000 rows; the refit of the resample round ends in a batch of 8.
        config = FitConfig(level_ks=(64, 8), batch_size=1000, passes=1, resample_rounds=1)
        digest = self.fitted_model_digest(tmp_path, config)
        assert digest == "01b01fcfa12954bc892290551a25cec3d279ad5dd77f7643847f8bdf12c30d7e"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 16)
        with pytest.raises(ParseError) as err:
            load_model(path)
        assert err.value.offset == 0

    def test_truncation_detected(self, tmp_path):
        rng = np.random.default_rng(31)
        path = tmp_path / "model.bin"
        save_model(make_hierarchy(rng), path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ParseError):
            load_model(path)

    def test_trailing_bytes_detected(self, tmp_path):
        rng = np.random.default_rng(37)
        path = tmp_path / "model.bin"
        save_model(make_hierarchy(rng), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ParseError):
            load_model(path)

    def test_tampered_parent_map_rejected(self, tmp_path):
        rng = np.random.default_rng(41)
        hierarchy = make_hierarchy(rng, ks=(4, 2), dim=3)
        path = tmp_path / "model.bin"
        save_model(hierarchy, path)
        data = bytearray(path.read_bytes())
        data[-4:] = (1 - int(hierarchy.parents[-1][-1])).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(ParseError, match="inconsistent") as err:
            load_model(path)
        assert err.value.offset == len(data) - 4 * hierarchy.levels[0].k
