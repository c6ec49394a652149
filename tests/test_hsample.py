import hashlib
import itertools
import struct
import tempfile
from collections import Counter
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pamcurate.core_model import (
    DeploymentConfig,
    EmbeddingShard,
    GeoPoint,
    Hydrophone,
    Recording,
)
from pamcurate.errors import ParseError, ValidationError
from pamcurate.hkmeans import CentroidSet, ClusterHierarchy, assign_batch
from pamcurate import hsample
from pamcurate.hsample import (
    SelectionState,
    allocate_quotas,
    count_populations,
    emit,
    load_checkpoint,
    merge,
    save_checkpoint,
    stream_select,
)
from synth import MixtureSpec, by_leaf, exact_topn_per_cluster, gen_mixture, quotas_reference, topn_per_leaf
from conftest import T0, make_hierarchy, random_shard

NO_WINDOWS = DeploymentConfig(hydrophones=()).window_index()


def one_leaf_hierarchy():
    return ClusterHierarchy(
        levels=(CentroidSet(centroids=np.array([[1.0, 0.0]], np.float32), counts=np.array([1], np.uint64)),)
    )


def angle_shard(ids, angles_deg):
    """Unit vectors at given angles from (1,0): distance grows with angle."""
    a = np.radians(np.asarray(angles_deg, dtype=np.float64))
    vectors = np.stack([np.cos(a), np.sin(a)], axis=1).astype(np.float32)
    return EmbeddingShard(dim=2, window_ids=np.asarray(ids, np.uint64), vectors=vectors)


def level_sums(hierarchy, quotas) -> list[list[int]]:
    """Leaf quotas and, level by level up, each node's quota as the sum of
    its children's through ``hierarchy.parents``: ``quotas_reference``'s shape."""
    levels = [np.asarray(quotas, np.int64)]
    for pmap, level in zip(hierarchy.parents, hierarchy.levels[1:]):
        upper = np.zeros(level.k, np.int64)
        np.add.at(upper, pmap.astype(np.int64), levels[-1])
        levels.append(upper)
    return [q.tolist() for q in levels]


def parent_lists(hierarchy) -> list[list[int]]:
    return [pmap.tolist() for pmap in hierarchy.parents]


class TestAllocateQuotas:
    def test_saturation(self):
        rng = np.random.default_rng(0)
        hierarchy = make_hierarchy(rng, ks=(6, 2))
        pops = rng.integers(0, 50, size=6)
        quotas = allocate_quotas(hierarchy, pops, n_target=10_000)
        assert quotas.dtype == np.int64
        assert np.array_equal(quotas, pops)
        assert quotas.sum() == pops.sum()

    def test_even_split_two_top_clusters(self):
        rng = np.random.default_rng(1)
        hierarchy = make_hierarchy(rng, ks=(4, 2))
        pops = np.full(4, 1000)
        quotas = allocate_quotas(hierarchy, pops, n_target=10)
        levels = level_sums(hierarchy, quotas)
        assert levels[1] == [5, 5]
        assert levels == quotas_reference((4, 2), parent_lists(hierarchy), pops, 10)

    def test_waterfill_caps_small_children(self):
        hierarchy = ClusterHierarchy(
            levels=(
                CentroidSet(centroids=np.eye(3, 2, dtype=np.float32), counts=np.zeros(3, np.uint64)),
                CentroidSet(centroids=np.array([[0.4, 0.3]], np.float32), counts=np.zeros(1, np.uint64)),
            )
        )
        quotas = allocate_quotas(hierarchy, [8, 1, 1], n_target=9)
        assert list(quotas) == [7, 1, 1]

    def test_remainder_to_lowest_index(self):
        hierarchy = ClusterHierarchy(
            levels=(
                CentroidSet(centroids=np.eye(3, 2, dtype=np.float32), counts=np.zeros(3, np.uint64)),
                CentroidSet(centroids=np.array([[0.4, 0.3]], np.float32), counts=np.zeros(1, np.uint64)),
            )
        )
        quotas = allocate_quotas(hierarchy, [5, 5, 5], n_target=7)
        assert list(quotas) == [3, 2, 2]

    def test_nonpositive_target_rejected(self):
        rng = np.random.default_rng(2)
        hierarchy = make_hierarchy(rng, ks=(3, 2))
        with pytest.raises(ValidationError):
            allocate_quotas(hierarchy, [1, 1, 1], n_target=0)

    @settings(max_examples=200, deadline=None)
    @given(
        ks=st.sets(st.integers(1, 12), min_size=1, max_size=4).map(lambda ks: tuple(sorted(ks, reverse=True))),
        centroid_seed=st.integers(0, 2**32 - 1),
        data=st.data(),
        n_target=st.integers(1, 600),
    )
    def test_matches_recursive_waterfill(self, ks, centroid_seed, data, n_target):
        # Random centroids give random parent maps, some parents without children.
        hierarchy = make_hierarchy(np.random.default_rng(centroid_seed), ks=ks, dim=3)
        pops = data.draw(st.lists(st.integers(0, 40), min_size=ks[0], max_size=ks[0]))
        quotas = allocate_quotas(hierarchy, pops, n_target)
        assert level_sums(hierarchy, quotas) == quotas_reference(ks, parent_lists(hierarchy), pops, n_target)
        assert quotas.sum() == min(n_target, sum(pops))

    def test_invariants_randomized(self):
        rng = np.random.default_rng(3)
        for trial in range(30):
            ks = (int(rng.integers(5, 12)), int(rng.integers(2, 5)))
            hierarchy = make_hierarchy(rng, ks=ks, dim=4)
            pops = rng.integers(0, 40, size=ks[0])
            n = int(rng.integers(1, 900))
            quotas = allocate_quotas(hierarchy, pops, n_target=n)
            assert quotas.sum() == min(n, pops.sum())
            assert np.all(quotas <= pops)
            assert level_sums(hierarchy, quotas) == quotas_reference(ks, parent_lists(hierarchy), pops, n)


class TestStreamSelect:
    def test_everything_selected_when_quota_ample(self):
        hierarchy = one_leaf_hierarchy()
        shard = angle_shard([1, 2, 3], [5.0, 40.0, 90.0])
        state = stream_select([shard], hierarchy, [10])
        assert set(state.held["window_id"].tolist()) == {1, 2, 3}
        assert state.processed == 3

    def test_eviction_trace(self):
        hierarchy = one_leaf_hierarchy()
        # Arrival order encodes distances ranked 5,1,3,2.
        shard = angle_shard([50, 10, 30, 20], [50.0, 10.0, 30.0, 20.0])
        state = stream_select([shard], hierarchy, [2])
        assert set(state.held["window_id"].tolist()) == {10, 20}
        assert state.processed - len(state.held) == 2

    def test_matches_offline_reference_and_split_invariance(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            hierarchy = make_hierarchy(rng, ks=(6, 2), dim=4)
            n = int(rng.integers(50, 300))
            ids = np.unique(rng.integers(0, 2**60, size=2 * n, dtype=np.uint64))[:n]
            vectors = rng.standard_normal((n, 4)).astype(np.float32)
            quotas = rng.integers(0, 25, size=6)

            whole = stream_select([EmbeddingShard(dim=4, window_ids=ids, vectors=vectors)], hierarchy, quotas)
            cut = int(rng.integers(0, n + 1))
            parts = [
                EmbeddingShard(dim=4, window_ids=ids[:cut], vectors=vectors[:cut]),
                EmbeddingShard(dim=4, window_ids=ids[cut:], vectors=vectors[cut:]),
            ]
            split = stream_select(parts[::-1], hierarchy, quotas)
            assert split == whole

            reference = exact_topn_per_cluster(
                ids, vectors, hierarchy.levels[0].centroids.astype(np.float64), quotas, normalize=True
            )
            got = {leaf: {wid for _, wid in by_leaf(whole)[leaf]} for leaf in range(6)}
            assert got == reference

    def test_dim_mismatch_shard_is_a_validation_error(self):
        hierarchy = one_leaf_hierarchy()
        good = angle_shard([1], [10.0])
        bad = EmbeddingShard(dim=3, window_ids=np.array([9], np.uint64), vectors=np.ones((1, 3), np.float32))
        with pytest.raises(ValidationError, match="vector dim 3 != model dim 2"):
            stream_select([good, bad], hierarchy, [5])
        with pytest.raises(ValidationError, match="vector dim 3 != model dim 2"):
            count_populations([good, bad], hierarchy)

    @pytest.mark.parametrize("leaves", [8, 20])
    def test_quotas_not_one_per_leaf_rejected(self, leaves):
        rng = np.random.default_rng(37)
        hierarchy = make_hierarchy(rng, ks=(16, 4), dim=3)
        with pytest.raises(ValidationError, match=rf"quotas shape \({leaves},\) != \(16,\)"):
            stream_select([random_shard(rng, 200, 3)], hierarchy, np.ones(leaves, np.int64))

    def test_memory_bound_respected(self):
        rng = np.random.default_rng(11)
        hierarchy = make_hierarchy(rng, ks=(5, 2), dim=3)
        quotas = np.array([3, 0, 2, 1, 4])
        n = 500
        ids = np.arange(n, dtype=np.uint64)
        shard = EmbeddingShard(dim=3, window_ids=ids, vectors=rng.standard_normal((n, 3)).astype(np.float32))
        state = stream_select([shard], hierarchy, quotas)
        for leaf, count in enumerate(state.counts()):
            assert count <= quotas[leaf]
        assert len(state.held) <= quotas.sum()


class TestMerge:
    def _random_state(self, rng, quotas):
        state = SelectionState.empty(quotas)
        for _ in range(int(rng.integers(0, 60))):
            state.fold([int(rng.integers(0, len(quotas)))], [int(rng.integers(0, 1000))], [float(rng.random())])
        state.processed = int(rng.integers(0, 100))
        return state

    def test_merge_with_empty_is_identity(self):
        rng = np.random.default_rng(13)
        quotas = np.array([2, 3, 1])
        state = self._random_state(rng, quotas)
        empty = SelectionState.empty(quotas)
        assert merge(state, empty) == state
        assert merge(empty, state) == state

    def test_commutative_and_associative(self):
        rng = np.random.default_rng(17)
        quotas = np.array([3, 2, 4])
        for _ in range(20):
            a, b, c = (self._random_state(rng, quotas) for _ in range(3))
            assert merge(a, b) == merge(b, a)
            assert merge(merge(a, b), c) == merge(a, merge(b, c))

    def test_quota_mismatch_rejected(self):
        a = SelectionState.empty([1, 2])
        b = SelectionState.empty([2, 1])
        with pytest.raises(ValidationError):
            merge(a, b)

    def test_disjoint_halves_equal_whole(self):
        rng = np.random.default_rng(19)
        hierarchy = make_hierarchy(rng, ks=(4, 2), dim=3)
        quotas = np.array([2, 5, 1, 3])
        n = 200
        ids = np.arange(n, dtype=np.uint64)
        vectors = rng.standard_normal((n, 3)).astype(np.float32)
        half1 = EmbeddingShard(dim=3, window_ids=ids[::2], vectors=vectors[::2])
        half2 = EmbeddingShard(dim=3, window_ids=ids[1::2], vectors=vectors[1::2])
        whole = stream_select([EmbeddingShard(dim=3, window_ids=ids, vectors=vectors)], hierarchy, quotas)
        merged = merge(
            stream_select([half1], hierarchy, quotas),
            stream_select([half2], hierarchy, quotas),
        )
        assert merged == whole

    def test_overlapping_shards_stream_equals_merge_of_any_partition(self):
        rng = np.random.default_rng(23)
        hierarchy = make_hierarchy(rng, ks=(4, 2), dim=3)
        quotas = np.array([3, 5, 2, 4])
        base = random_shard(rng, 200, 3)
        ids, vectors = base.window_ids, base.vectors
        # Rows 80..119 sit in the first two shards, rows 150..169 in the last two.
        shards = [
            EmbeddingShard(dim=3, window_ids=ids[:120], vectors=vectors[:120]),
            EmbeddingShard(dim=3, window_ids=ids[80:170], vectors=vectors[80:170]),
            EmbeddingShard(dim=3, window_ids=ids[150:], vectors=vectors[150:]),
        ]
        whole = stream_select(shards, hierarchy, quotas)
        for leaf in range(len(quotas)):
            leaf_ids = [wid for _, wid in by_leaf(whole)[leaf]]
            assert len(leaf_ids) == len(set(leaf_ids))
        assert len(whole.held) == len(np.unique(whole.held["window_id"]))
        for labels in itertools.product(range(3), repeat=3):
            parts = [[s for s, g in zip(shards, labels) if g == group] for group in set(labels)]
            states = [stream_select(part[::-1], hierarchy, quotas) for part in parts]
            merged = states[0]
            for state in states[1:]:
                merged = merge(merged, state)
            assert merged == whole

    def test_fold_holds_each_id_once_at_its_smallest_distance(self):
        state = SelectionState.empty([2])
        state.fold([0], [7], [0.5])
        state.fold([0], [7], [0.2])
        state.fold([0], [7], [0.9])
        assert by_leaf(state)[0] == [(0.2, 7)]
        state.fold([0], [3], [0.3])
        state.fold([0], [1], [0.1])  # evicts id 3
        state.fold([0], [3], [0.05])  # returns closer than the current worst
        assert by_leaf(state)[0] == [(0.05, 3), (0.1, 1)]
        assert len(state.held) == 2

    def test_pairs_that_share_a_probe_key_are_told_apart(self):
        # (leaf 1, id b) has the probe key window_id ^ leaf * 0x9E3779B97F4A7C15 of (leaf 0, id a)
        a = 5
        b = a ^ 0x9E3779B97F4A7C15
        state = SelectionState.empty([3, 3])
        assert len(state.fold([0, 1], [a, b], [0.5, 0.5])) == 2
        assert by_leaf(state) == [[(0.5, a)], [(0.5, b)]]
        # true repeats of both pairs, one closer and one farther, beside a new pair
        returned = state.fold([1, 0, 0], [b, a, b], [0.25, 0.75, 0.1])
        assert by_leaf(state) == [[(0.1, b), (0.5, a)], [(0.25, b)]]
        assert returned.tolist() == [(0, b, 0.1), (1, b, 0.25)]
        assert_round_trip(state)


# Few distinct ids, distances and points, so repeated ids and exact ties are common.
TIE_DISTANCES = (0.0, 0.125, 0.5, 0.5000000000000001, 2.0)
GRID = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (-1.0, 2.0), (2.0, -1.0), (-1.0, -1.0), (3.0, 1.0))


def columns(records):
    """``(leaf, window_id, distance)`` records as the three lists ``fold`` takes."""
    return [r[0] for r in records], [r[1] for r in records], [r[2] for r in records]


@st.composite
def record_chunks(draw):
    """Quotas (0 included) and ``(leaf, id, distance)`` records cut into
    chunks at random points, in random arrival order."""
    quotas = draw(st.lists(st.integers(0, 4), min_size=1, max_size=5))
    record = st.tuples(st.integers(0, len(quotas) - 1), st.integers(0, 12), st.sampled_from(TIE_DISTANCES))
    records = draw(st.lists(record, max_size=40))
    cuts = sorted(draw(st.lists(st.integers(0, len(records)), max_size=5)))
    chunks = [records[a:b] for a, b in zip([0, *cuts], [*cuts, len(records)])]
    return quotas, records, draw(st.permutations(chunks))


@st.composite
def shard_streams(draw):
    """A hierarchy, leaf quotas and shards drawn from a small id range and a
    small point grid, so ids repeat across shards and distances tie."""
    k = draw(st.integers(3, 6))
    hierarchy = make_hierarchy(np.random.default_rng(draw(st.integers(0, 2**16))), ks=(k, 2), dim=2)
    quotas = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k))
    shards = []
    for _ in range(draw(st.integers(0, 5))):
        ids = draw(st.lists(st.integers(0, 15), min_size=1, max_size=8, unique=True))
        points = draw(st.lists(st.sampled_from(GRID), min_size=len(ids), max_size=len(ids)))
        shards.append(EmbeddingShard(dim=2, window_ids=np.array(ids, np.uint64), vectors=np.array(points)))
    return hierarchy, quotas, shards


def assert_round_trip(state):
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "sel.ckpt", Path(tmp) / "again.ckpt"
        save_checkpoint(state, path)
        loaded, _, _ = load_checkpoint(path)
        assert loaded == state
        assert by_leaf(loaded) == by_leaf(state)
        save_checkpoint(loaded, again)
        assert again.read_bytes() == path.read_bytes()


class TestSelectionReference:
    """``fold``, ``stream_select`` and ``merge`` against ``synth.topn_per_leaf``."""

    @settings(max_examples=300, deadline=None)
    @given(record_chunks())
    def test_fold_in_any_chunking_and_order_matches_reference(self, drawn):
        quotas, records, chunks = drawn
        state = SelectionState.empty(quotas)
        for chunk in chunks:
            state.fold(*columns(chunk))
        expected = topn_per_leaf(*columns(records), quotas)
        assert by_leaf(state) == expected
        assert state.counts().tolist() == [len(leaf) for leaf in expected]

    @settings(max_examples=300, deadline=None)
    @given(record_chunks(), st.data())
    def test_fold_returns_exactly_the_rows_it_adds(self, drawn, data):
        quotas, _, chunks = drawn
        state = SelectionState.empty(quotas)
        records = []
        for chunk in chunks:
            before = state.held.tolist()
            # whole duplicate rows of the chunk, and rows equal to a held row
            if chunk or before:
                copies = data.draw(st.lists(st.sampled_from(chunk + before), max_size=6))
                chunk = data.draw(st.permutations(chunk + copies))
            records += chunk
            returned = state.fold(*columns(chunk))
            assert Counter(returned.tolist()) == Counter(state.held.tolist()) - Counter(before)
        assert by_leaf(state) == topn_per_leaf(*columns(records), quotas)

    @settings(max_examples=200, deadline=None)
    @given(record_chunks(), st.data())
    def test_merge_of_random_partitions_matches_reference_and_round_trips(self, drawn, data):
        quotas, records, chunks = drawn
        labels = data.draw(st.lists(st.integers(0, 2), min_size=len(chunks), max_size=len(chunks)))
        states = [SelectionState.empty(quotas) for _ in range(3)]
        for chunk, label in zip(chunks, labels):
            states[label].fold(*columns(chunk))
        merged = reduce(merge, states)
        assert by_leaf(merged) == topn_per_leaf(*columns(records), quotas)
        assert merge(states[2], merge(states[1], states[0])) == merged
        assert_round_trip(merged)

    @settings(max_examples=100, deadline=None)
    @given(shard_streams(), st.data())
    def test_stream_select_and_merge_match_reference(self, drawn, data):
        hierarchy, quotas, shards = drawn
        leaves, ids, distances = [], [], []
        for shard in shards:
            leaf_idx, dist = assign_batch(shard.vectors, hierarchy)
            leaves += leaf_idx.tolist()
            ids += shard.window_ids.tolist()
            distances += dist.tolist()
        whole = stream_select(shards, hierarchy, quotas)
        assert by_leaf(whole) == topn_per_leaf(leaves, ids, distances, quotas)
        assert whole.processed == len(ids)
        labels = data.draw(st.lists(st.integers(0, 2), min_size=len(shards), max_size=len(shards)))
        parts = [[s for s, g in zip(shards, labels) if g == group][::-1] for group in range(3)]
        assert reduce(merge, [stream_select(part, hierarchy, quotas) for part in parts]) == whole
        assert_round_trip(whole)


class TestFoldAtScale:
    """Thousands of held rows, window ids that recur across shards, and
    identical vectors whose distances tie at every leaf's quota boundary,
    against ``synth.topn_per_leaf``."""

    @staticmethod
    def corpus():
        rng = np.random.default_rng(44)
        hierarchy = make_hierarchy(rng, ks=(6, 2), dim=3)
        prototypes = rng.standard_normal((40, 3)).astype(np.float32)
        shards = []
        for _ in range(8):
            # 1500 of 6000 ids per shard: most ids come back in a later shard, often in another leaf.
            ids = rng.choice(6000, size=1500, replace=False).astype(np.uint64)
            vectors = rng.standard_normal((1500, 3)).astype(np.float32)
            copies = rng.random(1500) < 0.3  # identical vectors give exactly tied distances
            vectors[copies] = prototypes[rng.integers(0, len(prototypes), int(copies.sum()))]
            shards.append(EmbeddingShard(dim=3, window_ids=ids, vectors=vectors))
        records = [(shard, *assign_batch(shard.vectors, hierarchy)) for shard in shards]
        leaves = np.concatenate([leaf for _, leaf, _ in records])
        ids = np.concatenate([shard.window_ids for shard, _, _ in records])
        distances = np.concatenate([dist for _, _, dist in records])
        # Cut each leaf between two entries of equal distance, about 60% of the way down.
        ranked = topn_per_leaf(leaves.tolist(), ids.tolist(), distances.tolist(), [len(ids)] * 6)
        quotas = []
        for pairs in ranked:
            ties = [i for i in range(1, len(pairs)) if pairs[i][0] == pairs[i - 1][0]]
            quotas.append(min(ties, key=lambda i: abs(i - 0.6 * len(pairs))))
        return hierarchy, shards, (leaves, ids, distances), ranked, np.array(quotas)

    def test_stream_merge_and_resume_match_reference(self, tmp_path):
        hierarchy, shards, (leaves, ids, distances), ranked, quotas = self.corpus()
        expected = [pairs[:quota] for pairs, quota in zip(ranked, quotas)]
        # The corpus holds what the test is about: thousands of held rows, a
        # tie across every quota boundary, an id held in two leaves, and an id
        # held at a smaller distance than it first came with.
        assert sum(map(len, expected)) > 4000
        assert all(pairs[quota - 1][0] == pairs[quota][0] for pairs, quota in zip(ranked, quotas))
        held_ids = [{wid for _, wid in pairs} for pairs in expected]
        assert any(a & b for a, b in itertools.combinations(held_ids, 2))
        first_seen = {}
        for leaf, wid, dist in zip(leaves.tolist(), ids.tolist(), distances.tolist()):
            first_seen.setdefault((leaf, wid), dist)
        assert any(first_seen[leaf, wid] > dist for leaf, pairs in enumerate(expected) for dist, wid in pairs)

        whole = stream_select(shards, hierarchy, quotas)
        assert by_leaf(whole) == expected
        assert stream_select(shards[::-1], hierarchy, quotas) == whole
        halves = [stream_select(shards[::2], hierarchy, quotas), stream_select(shards[1::2], hierarchy, quotas)]
        assert merge(*halves) == whole
        assert merge(*halves[::-1]) == whole
        path = tmp_path / "sel.ckpt"
        save_checkpoint(stream_select(shards[:5], hierarchy, quotas), path)
        assert stream_select(shards[5:], hierarchy, quotas, state=load_checkpoint(path)[0]) == whole
        assert_round_trip(whole)


class TestEmitAndPopulations:
    def _deployment_with_windows(self, count):
        return DeploymentConfig(
            hydrophones=(
                Hydrophone(
                    id="H1",
                    location=GeoPoint(0.0, 0.0),
                    recordings=(
                        Recording(id="R1", start=T0, duration_s=count * 10, native_sample_rate_hz=1000),
                    ),
                ),
            )
        )

    def test_empty_selection_empty_entries(self):
        rng = np.random.default_rng(23)
        hierarchy = make_hierarchy(rng, ks=(3, 2), dim=3)
        state = SelectionState.empty([0, 0, 0])
        assert len(emit(state, hierarchy, NO_WINDOWS)) == 0

    def test_desk_scale_exact_target(self):
        rng = np.random.default_rng(29)
        hierarchy = make_hierarchy(rng, ks=(8, 2), dim=4)
        config = self._deployment_with_windows(1000)
        index = config.window_index()
        ids = index.ids
        shard = EmbeddingShard(dim=4, window_ids=ids, vectors=rng.standard_normal((1000, 4)).astype(np.float32))

        pops = count_populations([shard], hierarchy)
        assert pops.sum() == 1000
        quotas = allocate_quotas(hierarchy, pops, n_target=100)
        state = stream_select([shard], hierarchy, quotas)
        rows = emit(state, hierarchy, index).rows
        assert len(rows) == 100
        assert set(rows["source"]) == {"hkmeans"}
        paths = [tuple(map(int, path.split("/"))) for path in rows["cluster_path"]]
        assert all(len(path) == 2 for path in paths)
        leafs = {wid: path[-1] for wid, path in zip(rows["window_id"].tolist(), paths)}
        for leaf in range(8):
            for _, wid in by_leaf(state)[leaf]:
                assert leafs[wid] == leaf

    def test_checkpoint_of_another_model_rejected(self, tmp_path):
        hierarchy = make_hierarchy(np.random.default_rng(41), ks=(16, 4), dim=3)
        save_checkpoint(SelectionState.empty(np.ones(20, np.int64)), tmp_path / "select.ckpt")
        state, _, _ = load_checkpoint(tmp_path / "select.ckpt")
        with pytest.raises(ValidationError, match=r"state quotas shape \(20,\) != \(16,\)"):
            emit(state, hierarchy, NO_WINDOWS)

    def test_unknown_window_rejected(self):
        hierarchy = one_leaf_hierarchy()
        state = stream_select([angle_shard([777], [5.0])], hierarchy, [1])
        with pytest.raises(ValidationError):
            emit(state, hierarchy, NO_WINDOWS)


def header_size(leaves: int) -> int:
    """Bytes of a journal header: magic, version, leaf count and one quota per leaf."""
    return 8 + 4 + 8 + 8 * leaves


def record_bytes(rows, digests=(), processed=0) -> bytes:
    """One journal record of ``(leaf, window_id, distance)`` rows, written out
    field by field: length, counts, digests, rows, then the SHA-256."""
    body = struct.pack("<QQQ", len(digests), processed, len(rows)) + b"".join(digests)
    body += b"".join(struct.pack("<QQd", *row) for row in rows)
    body = struct.pack("<Q", len(body)) + body
    return body + hashlib.sha256(body).digest()


def journal(quotas, *records: bytes) -> bytes:
    return b"PAMSEL04" + struct.pack(f"<IQ{len(quotas)}Q", 4, len(quotas), *quotas) + b"".join(records)


def three_entry_state():
    state = SelectionState.empty([2, 0, 3])
    for wid, leaf, dist in [(5, 0, 0.25), (6, 0, 0.5), (7, 2, 0.125)]:
        state.fold([leaf], [wid], [dist])
    return state


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        hierarchy = make_hierarchy(rng, ks=(4, 2), dim=3)
        quotas = np.array([3, 1, 2, 4])
        n = 120
        shard = EmbeddingShard(
            dim=3,
            window_ids=np.arange(n, dtype=np.uint64),
            vectors=rng.standard_normal((n, 3)).astype(np.float32),
        )
        state = stream_select([shard], hierarchy, quotas)
        path = tmp_path / "sel.ckpt"
        assert save_checkpoint(state, path) == len(path.read_bytes())
        loaded, digests, end = load_checkpoint(path)
        assert loaded == state and digests == []
        rows = [(leaf, wid, dist) for leaf, pairs in enumerate(by_leaf(state)) for dist, wid in pairs]
        assert path.read_bytes() == journal(quotas, record_bytes(rows, processed=n))
        assert end == len(path.read_bytes())
        # canonical bytes: saving the loaded state reproduces the file
        save_checkpoint(loaded, tmp_path / "sel2.ckpt")
        assert (tmp_path / "sel2.ckpt").read_bytes() == path.read_bytes()

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        rng = np.random.default_rng(37)
        hierarchy = make_hierarchy(rng, ks=(5, 2), dim=4)
        quotas = np.array([2, 3, 1, 2, 2])
        n = 300
        ids = np.arange(n, dtype=np.uint64)
        vectors = rng.standard_normal((n, 4)).astype(np.float32)
        first = EmbeddingShard(dim=4, window_ids=ids[:150], vectors=vectors[:150])
        second = EmbeddingShard(dim=4, window_ids=ids[150:], vectors=vectors[150:])

        state = stream_select([first], hierarchy, quotas)
        path = tmp_path / "sel.ckpt"
        save_checkpoint(state, path)
        resumed = stream_select([second], hierarchy, quotas, state=load_checkpoint(path)[0])
        whole = stream_select([EmbeddingShard(dim=4, window_ids=ids, vectors=vectors)], hierarchy, quotas)
        assert resumed == whole

    @staticmethod
    def pinned_corpus():
        means = np.random.default_rng(43).normal(0.0, 2.0, size=(10, 8))
        weights = 1.0 / np.arange(1, 11) ** 1.5
        spec = MixtureSpec(
            k=10,
            dim=8,
            weights=tuple(weights / weights.sum()),
            means=tuple(map(tuple, means)),
            stddevs=(1.0,) * 10,
            n=3000,
            seed=9,
        )
        points, _ = gen_mixture(spec)
        hierarchy = make_hierarchy(np.random.default_rng(47), ks=(16, 4), dim=8)
        ids = np.arange(3000, dtype=np.uint64) * 7 + 3
        shards = [
            EmbeddingShard(dim=8, window_ids=ids[part], vectors=points[part])
            for part in np.array_split(np.arange(3000), 6)
        ]
        populations = count_populations(shards, hierarchy)
        quotas = allocate_quotas(hierarchy, populations, 1200)
        capped = (quotas == populations) & (populations > 0)
        assert capped.any() and (quotas < populations).any()
        return hierarchy, shards, quotas

    def test_checkpoint_bytes_are_pinned(self, tmp_path):
        # A change of the selection, of its tie order or of the layout changes these bytes.
        hierarchy, shards, quotas = self.pinned_corpus()
        path = tmp_path / "sel.ckpt"
        save_checkpoint(stream_select(shards, hierarchy, quotas), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "329d789bb09c5c358f2d4063959824e3c63fc7896ba64f0d34d93051ae6107d9"

    def test_journal_bytes_are_pinned(self, tmp_path):
        """A journal of one record per shard, each holding the rows its fold
        kept, as a checkpointed run writes it; it replays to the state."""
        hierarchy, shards, quotas = self.pinned_corpus()
        records = []
        state = stream_select(shards, hierarchy, quotas, records=records)
        path, end = tmp_path / "sel.ckpt", 0
        for i, record in enumerate(records):
            end = save_checkpoint(record, path, end, [hashlib.sha256(b"shard %d" % i).digest()])
        assert end == len(path.read_bytes())
        # the journal holds more rows than the state, and fewer than were folded
        assert len(state.held) < sum(len(r.held) for r in records) < state.processed
        loaded, digests, _ = load_checkpoint(path)
        assert loaded == state and len(digests) == len(shards)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "7eeb6690bc684268677eb91476d9ab60c45d73b1b5ef308d28aa6066c9501545"

    @settings(max_examples=150, deadline=None)
    @given(shard_streams(), st.data())
    def test_journal_of_any_stream_replays_to_its_state(self, drawn, data):
        """Every prefix of the per-shard journal replays to the state after
        that many shards, and a record cut at any byte is dropped."""
        hierarchy, quotas, shards = drawn
        records = []
        state = SelectionState.empty(quotas)
        with tempfile.TemporaryDirectory() as tmp:
            path, end = Path(tmp) / "sel.ckpt", 0
            for i, shard in enumerate(shards):
                stream_select([shard], hierarchy, quotas, state=state, records=records)
                digest = [bytes([i]) * 32]
                start, end = end or header_size(len(quotas)), save_checkpoint(records[-1], path, end, digest)
                loaded, _, _ = load_checkpoint(path)
                assert loaded == state and by_leaf(loaded) == by_leaf(state)
                path.write_bytes(path.read_bytes()[: data.draw(st.integers(start, end - 1))])
                _, digests, torn_end = load_checkpoint(path)
                assert torn_end == start and len(digests) == i
                assert save_checkpoint(records[-1], path, torn_end, digest) == end
                assert load_checkpoint(path)[0] == state

    @pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf")])
    def test_invalid_distance_rejected_at_its_entry(self, tmp_path, bad):
        path = tmp_path / "c.ckpt"
        save_checkpoint(three_entry_state(), path)
        data = bytearray(path.read_bytes())
        # rows start 32 bytes into the record at 44; rows 1 and 2 end each leaf
        record, rows = header_size(3), header_size(3) + 32
        for entry in (rows + 24, rows + 48):
            data[entry + 16 : entry + 24] = struct.pack("<d", bad)
        data[-32:] = hashlib.sha256(data[record:-32]).digest()
        path.write_bytes(bytes(data))
        with pytest.raises(ParseError) as err:
            load_checkpoint(path)
        assert err.value.offset == rows + 24

    def test_entries_in_any_order_load_to_the_same_state(self, tmp_path):
        state = SelectionState.empty([0, 4, 3])
        state.fold([1, 1, 1, 1, 2, 2, 2], [5, 9, 2, 7, 4, 8, 6], [0.5, 0.25, 0.5, 0.75, 0.0, 0.0, 1.0])
        path = tmp_path / "c.ckpt"
        save_checkpoint(state, path)
        data = path.read_bytes()
        rows = state.held.tolist()
        for n, order in enumerate(itertools.permutations(range(7))):
            if n % 37:
                continue
            # all rows in one record, or split over two, in any order
            shuffled = [rows[i] for i in order]
            for split in (7, n % 7):
                parts = [record_bytes(shuffled[:split]), record_bytes(shuffled[split:])]
                path.write_bytes(journal([0, 4, 3], *parts))
                loaded, _, _ = load_checkpoint(path)
                assert loaded == state
                save_checkpoint(loaded, tmp_path / "again.ckpt")
                assert (tmp_path / "again.ckpt").read_bytes() == data

    def test_bad_magic(self, tmp_path):
        """Any other magic is refused at offset 0, a ``PAMSEL03`` journal's
        too: its records hold a rejected-shard count, and are never read
        as version 4 ones."""
        body = struct.pack("<QQQQ", 0, 7, 0, 1) + struct.pack("<QQd", 0, 5, 0.25)
        body = struct.pack("<Q", len(body)) + body
        version_3 = b"PAMSEL03" + struct.pack("<IQQ", 3, 1, 1) + body + hashlib.sha256(body).digest()
        path = tmp_path / "bad.ckpt"
        for data in (b"BADMAGIC" + b"\x00" * 40, version_3):
            path.write_bytes(data)
            with pytest.raises(ParseError, match="bad magic") as err:
                load_checkpoint(path)
            assert err.value.offset == 0

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v3.ckpt"
        path.write_bytes(b"PAMSEL04" + struct.pack("<IQQ", 3, 1, 1))
        with pytest.raises(ParseError, match="unsupported checkpoint version 3") as err:
            load_checkpoint(path)
        assert err.value.offset == 8

    def test_duplicate_id_in_leaf_rejected(self, tmp_path):
        # A record never holds an id twice in a leaf, so the bytes are written here.
        path = tmp_path / "dup.ckpt"
        path.write_bytes(journal([2, 3], record_bytes([(1, 9, 0.25), (1, 9, 0.5)])))
        with pytest.raises(ParseError, match="window id 9 twice in leaf 1") as err:
            load_checkpoint(path)
        assert err.value.offset == header_size(2) + 32 + 24
        # one id in two leaves, or in one leaf of two records, is not a fault
        path.write_bytes(journal([2, 3], record_bytes([(0, 9, 0.25), (1, 9, 0.5)]), record_bytes([(1, 9, 0.125)])))
        assert by_leaf(load_checkpoint(path)[0]) == [[(0.25, 9)], [(0.125, 9)]]

    def test_leaf_index_beyond_leaf_count_rejected(self, tmp_path):
        path = tmp_path / "leaf.ckpt"
        for leaf in (2, 2**63, 2**64 - 1):
            path.write_bytes(journal([2, 3], record_bytes([(1, 9, 0.25)]), record_bytes([(0, 4, 0.5), (leaf, 7, 0.5)])))
            with pytest.raises(ParseError, match=f"leaf {leaf} outside 0..1") as err:
                load_checkpoint(path)
            first = header_size(2) + 32 + 24 + 32
            assert err.value.offset == first + 32 + 24

    def test_record_length_must_match_its_counts(self, tmp_path):
        path = tmp_path / "len.ckpt"
        body = struct.pack("<QQQQ", 24 + 24, 0, 0, 0) + bytes(24)
        path.write_bytes(journal([1], body + hashlib.sha256(body).digest(), record_bytes([])))
        with pytest.raises(ParseError, match="record length 48") as err:
            load_checkpoint(path)
        assert err.value.offset == header_size(1)

    def test_bad_record_followed_by_more_bytes_is_located(self, tmp_path):
        """A record whose checksum fails is a fault when bytes follow it,
        and the torn tail of an append when the file ends right after it.
        A length that ends it past the end of the file is the torn tail too:
        the file ends inside the record it declares."""
        path = tmp_path / "c.ckpt"
        first, second = record_bytes([(0, 5, 0.25)], processed=3), record_bytes([(1, 6, 0.5)], processed=4)
        for flip in range(len(first)):
            bad = bytearray(first)
            bad[flip] ^= 1
            path.write_bytes(journal([1, 1], bytes(bad), second))
            if 8 + struct.unpack_from("<Q", bad)[0] + 32 < len(first) + len(second):
                with pytest.raises(ParseError, match="record checksum mismatch") as err:
                    load_checkpoint(path)
                assert err.value.offset == header_size(2), flip
            else:
                assert load_checkpoint(path)[2] == header_size(2), flip
            path.write_bytes(journal([1, 1], bytes(bad)))
            torn, _, end = load_checkpoint(path)
            assert (torn.processed, len(torn.held), end) == (0, 0, header_size(2)), flip
        path.write_bytes(journal([1, 1], first, second))
        assert load_checkpoint(path)[0].processed == 7

    def test_truncation_detected(self, tmp_path):
        """A cut inside the last record is the torn tail of its append: the
        state is that of the records before it, and the next append cuts it."""
        state = SelectionState.empty([2, 1])
        state.fold([0], [5], [0.25])
        path = tmp_path / "c.ckpt"
        save_checkpoint(state, path)
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        torn, _, end = load_checkpoint(path)
        assert torn == SelectionState.empty([2, 1]) and end == header_size(2)
        assert save_checkpoint(state, path, end) == len(data)
        assert path.read_bytes() == data

    def test_every_cut_is_a_parse_error_or_a_dropped_record(self, tmp_path):
        state = three_entry_state()
        path = tmp_path / "c.ckpt"
        save_checkpoint(state, path, 0, [bytes(range(32)), bytes(32)])
        data = path.read_bytes()
        header = header_size(3)
        for cut in range(header):
            path.write_bytes(data[:cut])
            with pytest.raises(ParseError):
                load_checkpoint(path)
        for cut in [*range(header, len(data)), len(data) + 1]:
            path.write_bytes((data + b"\x00")[:cut])
            loaded, _, end = load_checkpoint(path)
            whole = cut == len(data) + 1
            assert loaded == (state if whole else SelectionState.empty([2, 0, 3])), cut
            assert end == (len(data) if whole else header), cut

    def test_shard_digest_trailer(self, tmp_path):
        """A record's digests come right after its 32-byte head, in order."""
        state = SelectionState.empty([1, 2])
        state.fold([1], [9], [0.5])
        digests = [hashlib.sha256(b"shard-a").digest(), hashlib.sha256(b"shard-b").digest()]
        path = tmp_path / "c.ckpt"
        save_checkpoint(state, path, 0, digests)
        data = path.read_bytes()
        assert data[:8] == b"PAMSEL04"
        record = header_size(2)
        assert len(data) == record + 32 + 32 * len(digests) + 24 + 32
        assert struct.unpack_from("<QQ", data, record) == (24 + 32 * 2 + 24, 2)
        assert data[record + 32 : record + 32 + 64] == b"".join(digests)
        loaded, loaded_digests, _ = load_checkpoint(path)
        assert loaded == state
        assert loaded_digests == digests

    def test_leaf_count_beyond_file_size_rejected(self, tmp_path):
        path = tmp_path / "huge.ckpt"
        path.write_bytes(b"PAMSEL04" + struct.pack("<IQ", 4, 2**62))
        with pytest.raises(ParseError) as err:
            load_checkpoint(path)
        assert err.value.offset == 12
        # two leaves need 16 bytes of quotas after the header; 8 are present
        path.write_bytes(b"PAMSEL04" + struct.pack("<IQ", 4, 2) + bytes(8))
        with pytest.raises(ParseError) as err:
            load_checkpoint(path)
        assert err.value.offset == 12

    def test_quota_beyond_int64_rejected(self, tmp_path):
        path = tmp_path / "quota.ckpt"
        path.write_bytes(journal([1, 2**63]))
        with pytest.raises(ParseError, match="leaf 1 quota") as err:
            load_checkpoint(path)
        assert err.value.offset == 28


class TestFoldTieRoute:
    """``fold`` places survivors by the ``(leaf, distance)`` key and takes
    the structured ``(leaf, distance, window_id)`` search only for those
    whose ``(leaf, distance)`` a held row has too."""

    @pytest.fixture
    def spy(self, monkeypatch):
        calls = []
        real = hsample._structured_search

        def search(held, rows):
            calls.append(rows[["leaf", "window_id", "distance"]].tolist())
            return real(held, rows)

        monkeypatch.setattr(hsample, "_structured_search", search)
        return calls

    def test_tie_free_fold_never_takes_the_structured_search(self, spy):
        rng = np.random.default_rng(5)
        quotas = [4, 3, 6, 2]
        records = [(int(rng.integers(0, 4)), wid, float(rng.random())) for wid in range(200)]
        state = SelectionState.empty(quotas)
        for chunk in np.array_split(np.arange(200), 9):
            state.fold(*columns([records[i] for i in chunk]))
        assert spy == []
        assert by_leaf(state) == topn_per_leaf(*columns(records), quotas)

    def test_tied_survivors_alone_take_the_structured_search(self, spy):
        last = 3
        quotas = [7, 2, 2, 6]
        d0, d1, d2 = TIE_DISTANCES[1], TIE_DISTANCES[2], TIE_DISTANCES[3]
        # held: in leaf 0 and the last leaf, ids 10 and 20 at one distance, beside other distances
        held = [(leaf, wid, d) for leaf in (0, last) for wid, d in ((10, d1), (20, d1), (30, d0), (31, d2))]
        state = SelectionState.empty(quotas)
        state.fold(*columns(held))
        assert spy == [] and len(state.held) == 8
        # survivors tied on (leaf, distance) land before, between and after the
        # held ids 10 and 20; the others tie only a distance or only a leaf
        tied = [(leaf, wid, d1) for leaf in (0, last) for wid in (5, 15, 25)]
        untied = [(0, 40, d2 + 1e-9), (last, 41, TIE_DISTANCES[0]), (1, 42, d1), (2, 43, d1), (0, 44, TIE_DISTANCES[4])]
        incoming = [untied[0], *tied[:3], untied[1], untied[2], *tied[3:], untied[3], untied[4]]
        state.fold(*columns(incoming))
        assert sorted(map(tuple, spy[0])) == sorted(tied) and len(spy) == 1
        assert by_leaf(state) == topn_per_leaf(*columns(held + incoming), quotas)
        ids = {leaf: [wid for _, wid in pairs] for leaf, pairs in enumerate(by_leaf(state))}
        assert ids[0] == [30, 5, 10, 15, 20, 25, 31] and ids[last] == [41, 30, 5, 10, 15, 20]

    @settings(max_examples=200, deadline=None)
    @given(record_chunks())
    def test_structured_search_gets_only_tied_survivors(self, drawn):
        quotas, records, chunks = drawn
        state = SelectionState.empty(quotas)
        for chunk in chunks:
            before = {(leaf, dist) for leaf, _, dist in state.held.tolist()}
            calls = []
            real = hsample._structured_search
            hsample._structured_search = lambda held, rows: calls.append(rows.tolist()) or real(held, rows)
            try:
                state.fold(*columns(chunk))
            finally:
                hsample._structured_search = real
            assert all((leaf, dist) in before for call in calls for leaf, _, dist in call)
        assert by_leaf(state) == topn_per_leaf(*columns(records), quotas)
