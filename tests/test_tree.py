import math

import numpy as np
import pytest

from egtree import eg
from egtree.errors import ContractViolationError, RejectedInputError
from egtree.losses import LossSpec
from egtree.oracles import best_constant
from egtree.tree import PartitionTree, height_bound, node_count_bound
from reference import diameter_bound

ABS = LossSpec("absolute")


def grow(d, xs, ys, effective_range=False, loss=ABS):
    tree = PartitionTree(d, loss, effective_range=effective_range)
    for x, y in zip(xs, ys):
        tree.predict(x)
        tree.update(float(y))
    return tree


def uniform_stream(d, T, seed):
    rng = np.random.default_rng(seed)
    return rng.random((T, d)), rng.random(T)


def dyadic_stream(d, T, seed):
    """Uniform covariates, about half snapped to dyadic midpoints k/16 or to 1."""
    rng = np.random.default_rng(seed)
    xs = rng.random((T, d))
    snap = rng.random((T, d)) < 0.5
    xs[snap] = rng.integers(0, 17, size=int(snap.sum())) / 16.0
    xs[::50] = 1.0
    return xs, rng.random(T)


class TestRouting:
    def test_fresh_tree_routes_to_root(self):
        tree = PartitionTree(1, ABS)
        node = tree.route([0.7])
        assert (node.h, node.i) == (0, 1)

    def test_midpoint_goes_right_after_split(self):
        tree = grow(1, [[0.3]], [0.5])  # first observation splits the root
        assert (tree.route([0.5]).h, tree.route([0.5]).i) == (1, 2)

    def test_just_below_midpoint_goes_left(self):
        tree = grow(1, [[0.3]], [0.5])
        assert (tree.route([0.49999]).h, tree.route([0.49999]).i) == (1, 1)

    def test_boundary_one_is_contained(self):
        tree = grow(1, [[0.9], [0.95], [0.99]], [0.5, 0.5, 0.5])
        node = tree.route([1.0])
        box = tree.node_bin(node)
        assert box.hi[-1] == 1.0 and box.contains([1.0])

    def test_domain_checks(self):
        tree = PartitionTree(2, ABS)
        with pytest.raises(RejectedInputError):
            tree.route([0.5])
        with pytest.raises(RejectedInputError):
            tree.route([0.5, 1.5])


class TestPrediction:
    def test_fresh_tree_predicts_half(self):
        tree = PartitionTree(3, ABS)
        pred = tree.predict([0.1, 0.9, 0.5])
        assert pred == 0.5

    def test_prediction_comes_from_leaf_state(self):
        # an effective-range tree never splits on a constant stream, so the
        # root accumulates: after one +1 subgradient the next prediction is
        # the frozen one-unit-gradient value
        tree = PartitionTree(1, ABS, effective_range=True)
        pred = tree.predict([0.3])
        assert pred == 0.5
        tree.update(0.0)
        pred2 = tree.predict([0.3])
        assert pred2 == pytest.approx(0.3569320399887234, abs=1e-15)


class TestSplitting:
    def test_first_observation_splits_root_1d(self):
        tree = grow(1, [[0.2]], [0.7])
        assert tree.n_nodes == 3 and tree.height == 1
        assert all(n.count == 0 for n, _ in tree.walk() if n.is_leaf)
        bins = {(n.h, n.i): b for n, b in tree.walk() if n.is_leaf}
        assert bins[(1, 1)].lo == (0.0,) and bins[(1, 1)].hi == (0.5,)
        assert bins[(1, 2)].lo == (0.5,) and bins[(1, 2)].hi == (1.0,)

    def test_first_observation_splits_root_2d_on_first_coordinate(self):
        tree = grow(2, [[0.2, 0.8]], [0.7])
        bins = {(n.h, n.i): b for n, b in tree.walk() if n.is_leaf}
        # split touches coordinate 1 only
        assert bins[(1, 1)].hi == (0.5, 1.0)
        assert bins[(1, 2)].lo == (0.5, 0.0)

    def test_depth_three_leaf_splits_at_sixty_third_observation(self):
        # constant covariate 0.9 drills: root at obs 1, (1,2) at obs 3 more,
        # (2,4) at 15 more; the depth-3 leaf has diameter 1/8 so it splits
        # once count + 1 >= 64
        tree = PartitionTree(1, ABS)
        for _ in range(1 + 3 + 15):
            tree.predict([0.9])
            tree.update(0.4)
        leaf = tree.route([0.9])
        assert leaf.h == 3
        for k in range(1, 64):
            tree.predict([0.9])
            tree.update(0.4)
            step = tree.trace()
            assert (step["leaf_h"], step["leaf_i"]) == (leaf.h, leaf.i)
            if k < 63:
                assert leaf.is_leaf and leaf.count == k
            else:
                assert not leaf.is_leaf and leaf.count == 63

    def test_children_have_fresh_state(self):
        tree = grow(1, [[0.2]], [0.7])
        for node, _ in tree.walk():
            if node.is_leaf:
                assert node.count == 0 and node.eg == eg.EgState(M=ABS.M)

    def test_rejected_outcome_leaves_the_tree_untouched(self):
        tree = PartitionTree(1, ABS, effective_range=True)
        tree.predict([0.3])
        leaf = tree.route([0.3])
        before = tree.to_dict()
        with pytest.raises(RejectedInputError):
            tree.update(1.5)
        assert tree.to_dict() == before
        tree.update(0.5)  # the prediction is still pending
        assert leaf.count == 1

    def test_update_requires_matching_predict(self):
        tree = PartitionTree(1, ABS)
        tree.predict([0.3])
        tree.update(0.9)
        with pytest.raises(ContractViolationError):
            tree.update(0.9)


class TestPartitionInvariants:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_leaves_tile_the_cube(self, d):
        xs, ys = uniform_stream(d, 1500, seed=d)
        tree = grow(d, xs, ys)
        leaf_bins = [b for n, b in tree.walk() if n.is_leaf]
        rng = np.random.default_rng(100 + d)
        pts = rng.random((2000, d))
        pts[:5] = 1.0  # exercise the closed faces
        for x in pts:
            hits = sum(b.contains(x) for b in leaf_bins)
            assert hits == 1
            assert tree.node_bin(tree.route(x)).contains(x)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_children_partition_their_parent(self, d):
        xs, ys = uniform_stream(d, 800, seed=10 + d)
        tree = grow(d, xs, ys)
        rng = np.random.default_rng(3)
        for node, box in tree.walk():
            if node.is_leaf:
                continue
            left, right = tree.node_bin(node.left), tree.node_bin(node.right)
            pts = box.lo + rng.random((50, d)) * (np.array(box.hi) - np.array(box.lo))
            for x in pts:
                assert left.contains(x) != right.contains(x)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_dyadic_ranges_exact(self, d):
        xs, ys = uniform_stream(d, 2000, seed=20 + d)
        tree = grow(d, xs, ys)
        for node, box in tree.walk():
            k, r = divmod(node.h, d)
            for j, side in enumerate(box.side_lengths()):
                expected = 2.0 ** -(k + 1) if j < r else 2.0 ** -k
                assert side == expected
            assert box.diameter() <= diameter_bound(d, node.h) + 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_indices_consistent(self, d):
        xs, ys = uniform_stream(d, 500, seed=30 + d)
        tree = grow(d, xs, ys)
        for node, box in tree.walk():
            assert 1 <= node.i <= 2 ** node.h
            if not node.is_leaf:
                assert (node.left.h, node.left.i) == (node.h + 1, 2 * node.i - 1)
                assert (node.right.h, node.right.i) == (node.h + 1, 2 * node.i)
            assert tree.node_bin(node) == box

    @pytest.mark.parametrize("effective_range", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_stored_cut_is_the_box_midpoint(self, d, effective_range):
        xs, ys = dyadic_stream(d, 1500, seed=50 + d)
        tree = grow(d, xs, ys, effective_range=effective_range)
        inner = [node for node, _ in tree.walk() if not node.is_leaf]
        assert len(inner) >= 5
        for node in inner:
            box = tree.node_bin(node)
            assert node.c == node.h % d
            assert node.mid == (box.lo[node.c] + box.hi[node.c]) / 2.0
        for node, _ in tree.walk():
            if node.is_leaf:
                assert node.c is None and node.mid is None

    def test_node_count_is_odd(self):
        for seed in range(4):
            xs, ys = uniform_stream(2, 700, seed)
            tree = grow(2, xs, ys)
            assert tree.n_nodes % 2 == 1


class TestStructuralBounds:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_growth_bounds_along_a_run(self, d):
        tree = PartitionTree(d, ABS)
        rng = np.random.default_rng(40 + d)
        for t in range(1, 4001):
            x = rng.random(d)
            tree.predict(x)
            tree.update(float(rng.random()))
            assert tree.n_nodes <= node_count_bound(d, t)
            assert tree.height <= height_bound(d, t)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_caps_take_an_array_of_steps(self, d):
        t = np.arange(1, 5001)
        nodes = [1.0 + 8.0 * (d * k) ** (d / (d + 2.0)) for k in range(1, 5001)]
        heights = [1.0 + 0.5 * d * math.log2(4.0 * d * k) for k in range(1, 5001)]
        np.testing.assert_allclose(node_count_bound(d, t), nodes, rtol=1e-15, atol=0)
        np.testing.assert_allclose(height_bound(d, t), heights, rtol=1e-15, atol=0)

    def test_inner_node_count_and_average_depth(self):
        for d, seed in [(1, 0), (2, 1), (3, 2)]:
            xs, ys = uniform_stream(d, 3000, seed)
            tree = grow(d, xs, ys)
            inner = [n for n, _ in tree.walk() if not n.is_leaf]
            N = tree.n_nodes
            assert len(inner) == (N - 1) // 2
            if N >= 3:
                avg = sum(n.h for n in inner) / len(inner)
                assert avg >= math.log2((N - 1) / 8.0)


class TestEffectiveRange:
    def test_constant_stream_never_splits(self):
        tree = PartitionTree(1, ABS, effective_range=True)
        rng = np.random.default_rng(9)
        for y in rng.random(500):
            tree.predict([0.42])
            tree.update(float(y))
        assert tree.n_nodes == 1 and tree.height == 0

    def test_split_condition_uses_observed_range(self):
        # observations 0.5 apart give observed diameter 1/2 and threshold 4,
        # so the root splits once count + 1 >= 4, i.e. at the third one
        tree = PartitionTree(1, ABS, effective_range=True)
        for k, x in enumerate([0.25, 0.75, 0.25, 0.75], start=1):
            if tree.n_nodes == 1:
                tree.predict([x])
                tree.update(0.5)
                assert (tree.n_nodes == 1) == (k < 3)

    def test_split_still_uses_geometric_midpoint(self):
        # observed range {0.1, 0.7} has diameter 0.6, threshold ~2.78, so the
        # second observation splits; the cut stays at the box midpoint 0.5,
        # not at the observed-range midpoint 0.4
        tree = PartitionTree(1, ABS, effective_range=True)
        for x in [0.1, 0.7]:
            tree.predict([x])
            tree.update(0.5)
        assert tree.n_nodes == 3
        bins = {(n.h, n.i): b for n, b in tree.walk() if n.is_leaf}
        assert bins[(1, 1)].hi == (0.5,)

    def test_constant_stream_matches_constant_tracker_regret(self):
        tree = PartitionTree(1, ABS, effective_range=True)
        rng = np.random.default_rng(17)
        ys = rng.random(2000)
        cum = 0.0
        for y in ys:
            p = tree.predict([0.9])
            tree.update(float(y))
            cum += ABS.value(p, float(y))
        best = best_constant(ys, ABS).value
        assert cum - best < eg.regret_bound(ABS.M, len(ys))


class TestSerialization:
    @pytest.mark.parametrize("effective_range", [False, True])
    def test_round_trip_preserves_structure_and_behavior(self, effective_range):
        xs, ys = uniform_stream(2, 600, seed=5)
        tree = grow(2, xs, ys, effective_range=effective_range)
        clone = PartitionTree.from_json(tree.to_json())
        assert clone.n_nodes == tree.n_nodes
        assert clone.height == tree.height
        assert clone.total_steps == tree.total_steps
        a = [(n.h, n.i, n.count, n.eg, b) for n, b in tree.walk()]
        b = [(n.h, n.i, n.count, n.eg, b2) for n, b2 in clone.walk()]
        assert a == b
        # both copies must keep forecasting identically
        rng = np.random.default_rng(6)
        for _ in range(200):
            x = rng.random(2)
            y = float(rng.random())
            assert tree.predict(x) == clone.predict(x)
            tree.update(y)
            clone.update(y)
            assert tree.trace() == clone.trace()  # same leaf, same growth
        assert clone.n_nodes == tree.n_nodes

    @pytest.mark.parametrize("effective_range", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_restored_mid_run_keeps_forecasting_identically(self, d, effective_range):
        xs, ys = dyadic_stream(d, 1200, seed=60 + d)
        tree = grow(d, xs[:600], ys[:600], effective_range=effective_range)
        clone = PartitionTree.from_json(tree.to_json())
        for original, restored in zip(tree.walk(), clone.walk()):
            a, b = original[0], restored[0]
            assert (a.h, a.i, a.c, a.mid) == (b.h, b.i, b.c, b.mid)
        for x, y in zip(xs[600:], ys[600:]):
            assert tree.predict(x) == clone.predict(x)
            tree.update(float(y))
            clone.update(float(y))
            assert tree.trace() == clone.trace()  # same leaf, same growth
        assert clone.to_dict() == tree.to_dict()

    def test_rejects_orphaned_children(self):
        tree = grow(1, [[0.2]], [0.7])
        data = tree.to_dict()
        data["nodes"] = [n for n in data["nodes"] if (n["h"], n["i"]) != (1, 2)]
        with pytest.raises(RejectedInputError):
            PartitionTree.from_dict(data)

    def test_rejects_unreachable_nodes(self):
        data = grow(1, [[0.2]], [0.7]).to_dict()
        stray = dict(data["nodes"][0], h=5, i=3)
        data["nodes"] = [data["nodes"][0], stray]  # root without children
        with pytest.raises(RejectedInputError, match="cannot be reached"):
            PartitionTree.from_dict(data)

    def test_rejects_duplicate_nodes(self):
        data = grow(1, [[0.2]], [0.7]).to_dict()
        data["nodes"].append(data["nodes"][-1])
        with pytest.raises(RejectedInputError):
            PartitionTree.from_dict(data)

    @staticmethod
    def _tampered(edit):
        data = grow(1, [[0.2], [0.7], [0.9]], [0.7, 0.1, 0.4]).to_dict()
        edit(data["nodes"][-1])
        return data

    def test_rejects_negative_count(self):
        def edit(node):
            node["count"] = -1
            node["eg"]["t"] = -1

        with pytest.raises(RejectedInputError):
            PartitionTree.from_dict(self._tampered(edit))

    def test_rejects_count_that_differs_from_eg_steps(self):
        def edit(node):
            node["count"] += 1

        with pytest.raises(RejectedInputError):
            PartitionTree.from_dict(self._tampered(edit))

    @pytest.mark.parametrize("M", [float("nan"), float("inf"), -1.0, 2.0])
    def test_rejects_bad_or_mismatched_M(self, M):
        def edit(node):
            node["eg"]["M"] = M

        with pytest.raises(RejectedInputError):
            PartitionTree.from_dict(self._tampered(edit))

    @pytest.mark.parametrize("G", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_G(self, G):
        def edit(node):
            node["eg"]["G"] = G

        with pytest.raises(RejectedInputError):
            PartitionTree.from_dict(self._tampered(edit))

    def test_rejects_obs_range_of_wrong_dimension(self):
        xs, ys = uniform_stream(2, 40, seed=7)
        data = grow(2, xs, ys, effective_range=True).to_dict()
        node = next(n for n in data["nodes"] if "obs_range" in n)
        node["obs_range"]["lo"] = node["obs_range"]["lo"][:1]
        with pytest.raises(RejectedInputError):
            PartitionTree.from_dict(data)
