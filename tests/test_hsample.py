import itertools

import numpy as np
import pytest

from pamcurate.core_model import (
    DeploymentConfig,
    EmbeddingShard,
    GeoPoint,
    Hydrophone,
    Recording,
)
from pamcurate.errors import ParseError, ValidationError
from pamcurate.hkmeans import CentroidSet, ClusterHierarchy
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
from pamcurate.synth import exact_topn_per_cluster
from conftest import T0, make_hierarchy, random_shard


def one_leaf_hierarchy():
    return ClusterHierarchy(
        levels=(CentroidSet(level=1, centroids=np.array([[1.0, 0.0]], np.float32), counts=np.array([1], np.uint64)),),
        parents=(),
    )


def angle_shard(ids, angles_deg):
    """Unit vectors at given angles from (1,0): distance grows with angle."""
    a = np.radians(np.asarray(angles_deg, dtype=np.float64))
    vectors = np.stack([np.cos(a), np.sin(a)], axis=1).astype(np.float32)
    return EmbeddingShard(dim=2, window_ids=np.asarray(ids, np.uint64), vectors=vectors)


class TestAllocateQuotas:
    def test_saturation(self):
        rng = np.random.default_rng(0)
        hierarchy = make_hierarchy(rng, ks=(6, 2))
        pops = rng.integers(0, 50, size=6)
        tree = allocate_quotas(hierarchy, pops, n_target=10_000)
        assert np.array_equal(tree.leaf_quotas, pops)
        assert tree.total == pops.sum()

    def test_even_split_two_top_clusters(self):
        rng = np.random.default_rng(1)
        hierarchy = make_hierarchy(rng, ks=(4, 2))
        pmap = hierarchy.parents[0].astype(int)
        pops = np.full(4, 1000)
        tree = allocate_quotas(hierarchy, pops, n_target=10)
        top = tree.level_quotas[1]
        assert list(top) == [5, 5]
        for parent in range(2):
            assert tree.leaf_quotas[pmap == parent].sum() == top[parent]

    def test_waterfill_caps_small_children(self):
        hierarchy = ClusterHierarchy(
            levels=(
                CentroidSet(level=1, centroids=np.eye(3, 2, dtype=np.float32), counts=np.zeros(3, np.uint64)),
                CentroidSet(level=2, centroids=np.array([[0.4, 0.3]], np.float32), counts=np.zeros(1, np.uint64)),
            ),
            parents=(np.zeros(3, np.uint32),),
        )
        tree = allocate_quotas(hierarchy, [8, 1, 1], n_target=9)
        assert list(tree.leaf_quotas) == [7, 1, 1]

    def test_remainder_to_lowest_index(self):
        hierarchy = ClusterHierarchy(
            levels=(
                CentroidSet(level=1, centroids=np.eye(3, 2, dtype=np.float32), counts=np.zeros(3, np.uint64)),
                CentroidSet(level=2, centroids=np.array([[0.4, 0.3]], np.float32), counts=np.zeros(1, np.uint64)),
            ),
            parents=(np.zeros(3, np.uint32),),
        )
        tree = allocate_quotas(hierarchy, [5, 5, 5], n_target=7)
        assert list(tree.leaf_quotas) == [3, 2, 2]

    def test_nonpositive_target_rejected(self):
        rng = np.random.default_rng(2)
        hierarchy = make_hierarchy(rng, ks=(3, 2))
        with pytest.raises(ValidationError):
            allocate_quotas(hierarchy, [1, 1, 1], n_target=0)

    def test_invariants_randomized(self):
        rng = np.random.default_rng(3)
        for trial in range(30):
            ks = (int(rng.integers(5, 12)), int(rng.integers(2, 5)))
            hierarchy = make_hierarchy(rng, ks=ks, dim=4)
            pops = rng.integers(0, 40, size=ks[0])
            n = int(rng.integers(1, 900))
            tree = allocate_quotas(hierarchy, pops, n_target=n)
            assert tree.total == min(n, pops.sum())
            assert tree.leaf_quotas.sum() == tree.total
            assert np.all(tree.leaf_quotas <= pops)
            pmap = hierarchy.parents[0].astype(int)
            for parent in range(ks[1]):
                children = np.flatnonzero(pmap == parent)
                assert tree.leaf_quotas[children].sum() == tree.level_quotas[1][parent]


class TestStreamSelect:
    def test_everything_selected_when_quota_ample(self):
        hierarchy = one_leaf_hierarchy()
        shard = angle_shard([1, 2, 3], [5.0, 40.0, 90.0])
        state = stream_select([shard], hierarchy, [10])
        assert state.selected_ids() == {1, 2, 3}
        assert state.processed == 3

    def test_eviction_trace(self):
        hierarchy = one_leaf_hierarchy()
        # Arrival order encodes distances ranked 5,1,3,2.
        shard = angle_shard([50, 10, 30, 20], [50.0, 10.0, 30.0, 20.0])
        state = stream_select([shard], hierarchy, [2])
        assert state.selected_ids() == {10, 20}
        assert state.evictions == 2

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
            got = {leaf: {wid for _, wid in whole.entries(leaf)} for leaf in range(6)}
            assert got == reference

    def test_dim_mismatch_shard_rejected_not_fatal(self):
        hierarchy = one_leaf_hierarchy()
        good = angle_shard([1], [10.0])
        bad = EmbeddingShard(dim=3, window_ids=np.array([9], np.uint64), vectors=np.ones((1, 3), np.float32))
        state = stream_select([bad, good], hierarchy, [5])
        assert state.rejected_shards == 1
        assert state.selected_ids() == {1}

    def test_memory_bound_respected(self):
        rng = np.random.default_rng(11)
        hierarchy = make_hierarchy(rng, ks=(5, 2), dim=3)
        quotas = np.array([3, 0, 2, 1, 4])
        n = 500
        ids = np.arange(n, dtype=np.uint64)
        shard = EmbeddingShard(dim=3, window_ids=ids, vectors=rng.standard_normal((n, 3)).astype(np.float32))
        state = stream_select([shard], hierarchy, quotas)
        for leaf, heap in enumerate(state.heaps):
            assert len(heap) <= quotas[leaf]
        assert state.size() <= quotas.sum()


class TestMerge:
    def _random_state(self, rng, quotas):
        state = SelectionState.empty(quotas)
        for _ in range(int(rng.integers(0, 60))):
            state.push(int(rng.integers(0, len(quotas))), int(rng.integers(0, 1000)), float(rng.random()))
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
            leaf_ids = [wid for _, wid in whole.entries(leaf)]
            assert len(leaf_ids) == len(set(leaf_ids))
        assert whole.size() == len(whole.selected_ids())
        for labels in itertools.product(range(3), repeat=3):
            parts = [[s for s, g in zip(shards, labels) if g == group] for group in set(labels)]
            states = [stream_select(part[::-1], hierarchy, quotas) for part in parts]
            merged = states[0]
            for state in states[1:]:
                merged = merge(merged, state)
            assert merged == whole

    def test_push_holds_each_id_once_at_its_smallest_distance(self):
        state = SelectionState.empty([2])
        state.push(0, 7, 0.5)
        state.push(0, 7, 0.2)
        state.push(0, 7, 0.9)
        assert state.entries(0) == [(0.2, 7)]
        state.push(0, 3, 0.3)
        state.push(0, 1, 0.1)  # evicts id 3
        state.push(0, 3, 0.05)  # returns closer than the current worst
        assert state.entries(0) == [(0.05, 3), (0.1, 1)]
        assert state.evictions == 2


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
        assert emit(state, hierarchy, {}) == []

    def test_desk_scale_exact_target(self):
        rng = np.random.default_rng(29)
        hierarchy = make_hierarchy(rng, ks=(8, 2), dim=4)
        config = self._deployment_with_windows(1000)
        index = config.window_index()
        ids = np.fromiter(index.keys(), dtype=np.uint64)
        shard = EmbeddingShard(dim=4, window_ids=ids, vectors=rng.standard_normal((1000, 4)).astype(np.float32))

        pops, rejected = count_populations([shard], hierarchy)
        assert rejected == 0 and pops.sum() == 1000
        tree = allocate_quotas(hierarchy, pops, n_target=100)
        state = stream_select([shard], hierarchy, tree)
        entries = emit(state, hierarchy, index)
        assert len(entries) == 100
        assert all(e.source == "hkmeans" for e in entries)
        assert all(len(e.cluster_path) == 2 for e in entries)
        leafs = {e.window_id: e.cluster_path[-1] for e in entries}
        for leaf in range(8):
            for _, wid in state.entries(leaf):
                assert leafs[wid] == leaf

    def test_unknown_window_rejected(self):
        hierarchy = one_leaf_hierarchy()
        state = stream_select([angle_shard([777], [5.0])], hierarchy, [1])
        with pytest.raises(ValidationError):
            emit(state, hierarchy, {})

    def test_production_target_constant(self):
        from pamcurate.hsample import PRODUCTION_TARGET_N

        assert PRODUCTION_TARGET_N == 323_532


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
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert loaded == state
        assert loaded.evictions == state.evictions
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
        resumed = stream_select([second], hierarchy, quotas, state=load_checkpoint(path))
        whole = stream_select([EmbeddingShard(dim=4, window_ids=ids, vectors=vectors)], hierarchy, quotas)
        assert resumed == whole

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"BADMAGIC" + b"\x00" * 40)
        with pytest.raises(ParseError) as err:
            load_checkpoint(path)
        assert err.value.offset == 0

    def test_duplicate_id_in_leaf_rejected(self, tmp_path):
        state = SelectionState(quotas=np.array([2, 3]), heaps=[[], [(-0.5, -9), (-0.25, -9)]])
        path = tmp_path / "dup.ckpt"
        save_checkpoint(state, path)
        with pytest.raises(ParseError) as err:
            load_checkpoint(path)
        assert err.value.offset == 44 + 16 + 16

    def test_truncation_detected(self, tmp_path):
        state = SelectionState.empty([2, 1])
        state.push(0, 5, 0.25)
        path = tmp_path / "c.ckpt"
        save_checkpoint(state, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ParseError):
            load_checkpoint(path)
