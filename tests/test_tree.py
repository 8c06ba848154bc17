import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egtree import eg
from egtree.errors import ContractViolationError, RejectedInputError
from egtree.losses import LossSpec
from egtree.oracles import best_constant
from egtree.tree import PartitionTree, height_bound, node_count_bound
from reference import built_nodes, contains, diameter_bound, node_box

ABS = LossSpec("absolute")
DATA = Path(__file__).parent / "data"


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
        box = node_box(1, node.h, node.i)
        assert box[1][-1] == 1.0 and contains(box, [1.0])

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
        assert all(n.count == 0 for n in tree.walk() if n.is_leaf)
        assert [(n.h, n.i) for n in tree.walk()] == [(0, 1), (1, 1), (1, 2)]
        assert (tree.root.c, tree.root.mid) == (0, 0.5)

    def test_first_observation_splits_root_2d_on_first_coordinate(self):
        tree = grow(2, [[0.2, 0.8]], [0.7])
        # split touches coordinate 1 only
        assert (tree.root.c, tree.root.mid) == (0, 0.5)
        assert tree.route([0.49, 1.0]).i == 1 and tree.route([0.5, 0.0]).i == 2

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
        assert tree.M == ABS.M
        for node in tree.walk():
            if node.is_leaf:
                assert (node.count, node.G) == (0, 0.0)

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

    def test_rejected_outcome_after_building_a_child_leaves_the_json_unchanged(self):
        tree = grow(1, [[0.8]], [0.5])  # the root splits; neither child is built
        before = tree.to_dict()
        assert tree.root.left is None
        tree.predict([0.3])
        assert tree.root.left is not None  # built by the prediction
        with pytest.raises(RejectedInputError):
            tree.update(-0.5)
        assert tree.to_dict() == before

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
        leaf_boxes = [node_box(d, n.h, n.i) for n in tree.walk() if n.is_leaf]
        rng = np.random.default_rng(100 + d)
        pts = rng.random((2000, d))
        pts[:5] = 1.0  # exercise the closed faces
        for x in pts:
            hits = sum(contains(box, x) for box in leaf_boxes)
            assert hits == 1
            leaf = tree.route(x)
            assert contains(node_box(d, leaf.h, leaf.i), x)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_children_partition_their_parent(self, d):
        xs, ys = uniform_stream(d, 800, seed=10 + d)
        tree = grow(d, xs, ys)
        rng = np.random.default_rng(3)
        walked = {(n.h, n.i) for n in tree.walk()}  # unbuilt children included
        for node in tree.walk():
            if node.is_leaf:
                continue
            h, i = node.h + 1, 2 * node.i
            assert {(h, i - 1), (h, i)} <= walked  # both children exist
            lo, hi = node_box(d, node.h, node.i)
            left = node_box(d, h, i - 1)
            right = node_box(d, h, i)
            pts = lo + rng.random((50, d)) * (np.array(hi) - np.array(lo))
            for x in pts:
                assert contains(left, x) != contains(right, x)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_dyadic_ranges_exact(self, d):
        xs, ys = uniform_stream(d, 2000, seed=20 + d)
        tree = grow(d, xs, ys)
        for node in tree.walk():
            lo, hi = node_box(d, node.h, node.i)
            k, r = divmod(node.h, d)
            sides = [b - a for a, b in zip(lo, hi)]
            for j, side in enumerate(sides):
                expected = 2.0 ** -(k + 1) if j < r else 2.0 ** -k
                assert side == expected
            assert math.hypot(*sides) <= diameter_bound(d, node.h) + 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_indices_consistent(self, d):
        xs, ys = uniform_stream(d, 500, seed=30 + d)
        tree = grow(d, xs, ys)
        nodes = list(tree.walk())
        assert len(nodes) == tree.n_nodes
        keys = [(n.h, n.i) for n in nodes]
        assert len(set(keys)) == len(keys)
        # a subtree is a contiguous run of the depth-first order: its root,
        # then the left child's run, then the right child's
        end = [0] * len(nodes)  # one past the last node of each subtree
        for k in reversed(range(len(nodes))):
            node = nodes[k]
            assert 1 <= node.i <= 2 ** node.h
            if node.is_leaf:
                end[k] = k + 1
            else:
                assert keys[k + 1] == (node.h + 1, 2 * node.i - 1)
                right = end[k + 1]
                assert keys[right] == (node.h + 1, 2 * node.i)
                end[k] = end[right]
        assert end[0] == len(nodes)

    @pytest.mark.parametrize("effective_range", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_stored_cut_is_the_box_midpoint(self, d, effective_range):
        xs, ys = dyadic_stream(d, 1500, seed=50 + d)
        grown = grow(d, xs, ys, effective_range=effective_range)
        restored = PartitionTree.from_dict(grown.to_dict())
        for tree in (grown, restored):
            inner = [node for node in tree.walk() if not node.is_leaf]
            assert len(inner) >= 5
            for node in inner:
                lo, hi = node_box(d, node.h, node.i)
                assert node.c == node.h % d
                assert node.mid == (lo[node.c] + hi[node.c]) / 2.0
            for node in tree.walk():
                if node.is_leaf:
                    assert node.c is None and node.mid is None

    @pytest.mark.parametrize("d", [1, 2, 3, 13])
    def test_cut_table_gives_the_box_midpoint(self, d):
        # every depth up to 60, on the faces, on dyadic ties and off them
        tree = PartitionTree(d, ABS)
        tree._deepen(60)
        rng = np.random.default_rng(80 + d)
        ties = [0.5, 0.25, 0.75, 3 / 8, 5 / 16, 2.0 ** -20, 1 - 2.0 ** -30, 2.0 ** -52]
        points = ([[0.0] * d, [1.0] * d, [1.0, 0.0] * d]
                  + [rng.choice(ties, d) for _ in range(6)]
                  + [np.where(rng.random(d) < 0.5, rng.choice(ties, d), rng.random(d))
                     for _ in range(3)]
                  + list(rng.random((6, d))))
        for x in points:
            x = tuple(map(float, x[:d]))
            i = 1
            for h in range(61):
                lo, hi = node_box(d, h, i)
                c = h % d
                mid = (lo[c] + hi[c]) / 2.0
                assert tree._cut(h, x) == (c, mid), (x, h)
                i = 2 * i - 1 if x[c] < mid else 2 * i

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
            inner = [n for n in tree.walk() if not n.is_leaf]
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
        assert tree.root.mid == 0.5

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
        clone = PartitionTree.from_dict(json.loads(json.dumps(tree.to_dict())))
        assert clone.n_nodes == tree.n_nodes
        assert clone.height == tree.height
        assert sum(n.count for n in clone.walk()) == 600
        a = [(n.h, n.i, n.count, n.G, n.c, n.mid) for n in tree.walk()]
        b = [(n.h, n.i, n.count, n.G, n.c, n.mid) for n in clone.walk()]
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
        clone = PartitionTree.from_dict(json.loads(json.dumps(tree.to_dict())))
        for a, b in zip(tree.walk(), clone.walk()):
            assert (a.h, a.i, a.c, a.mid) == (b.h, b.i, b.c, b.mid)
        for x, y in zip(xs[600:], ys[600:]):
            assert tree.predict(x) == clone.predict(x)
            tree.update(float(y))
            clone.update(float(y))
            assert tree.trace() == clone.trace()  # same leaf, same growth
        assert clone.to_dict() == tree.to_dict()

    @pytest.mark.parametrize("d, effective_range, digest", [
        (1, False, "f2bb071266f8fd86dcd00065107ee9820b3aabcf72aa551e84bc48ae3f47b850"),
        (1, True, "0bb0b2141b0a59f0ee0bdc12855fd75e00feb81d96bdc1f032b2eb0eae8f8eef"),
        (2, False, "21be21508e186b75c57ab570006b8e1b532e28af5694f97486c86483aae4e1d4"),
        (2, True, "6c7fbf6a054d17ed8de380ac05a5aeedd3339ae4d3d4e7151cca53ce9741af02"),
        (3, False, "52ef2bce6d28f0cd1cfc7bc47a8c1a64a1b976f3e48182ccf3aa8d5568d0a0ea"),
        (3, True, "2994033f91e391c884e481e47d2f4e7557a2b7b0032a1f6638f01106d262a6de"),
    ])
    def test_tree_json_bytes_are_pinned(self, d, effective_range, digest):
        # digests of trees that built both children at every split, so the
        # stand-ins for children never built must serialize as those did
        xs, ys = dyadic_stream(d, 1500, seed=70 + d)
        tree = grow(d, xs, ys, effective_range=effective_range, loss=LossSpec("square"))
        text = json.dumps(tree.to_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_loads_file_with_boxes_and_total_steps(self):
        # written before to_dict dropped each node's "bin" and the top-level
        # "total_steps": an effective-range d=2 tree grown on this stream
        data = json.loads((DATA / "tree_d2_effective_range.json").read_text())
        rng = np.random.default_rng(2024)
        xs = rng.random((60, 2))
        xs[::7] = np.round(xs[::7] * 4) / 4
        xs[::25] = 1.0
        ys = rng.random(60)
        loaded = PartitionTree.from_dict(data)
        grown = grow(2, xs, ys, effective_range=True)
        for node in data["nodes"]:
            lo, hi = node_box(2, node["h"], node["i"])
            assert node.pop("bin") == {"lo": list(lo), "hi": list(hi)}
        assert data.pop("total_steps") == 60
        assert loaded.to_dict() == grown.to_dict() == data
        rng = np.random.default_rng(2025)
        for x, y in zip(rng.random((300, 2)), rng.random(300)):
            assert loaded.predict(x) == grown.predict(x)
            loaded.update(float(y))
            grown.update(float(y))
            assert loaded.trace() == grown.trace()
        assert loaded.to_dict() == grown.to_dict()

    # trees whose splits left some children unreached (d = 1 reaches all)
    @pytest.mark.parametrize("d, effective_range", [(2, True), (3, False), (3, True)])
    def test_round_trip_leaves_unreached_children_unbuilt(self, d, effective_range):
        xs, ys = uniform_stream(d, 4000, seed=80 + d)
        tree = grow(d, xs, ys, effective_range=effective_range)
        built = built_nodes(tree)
        assert built < tree.n_nodes  # the lazy saving a reload must keep
        text = json.dumps(tree.to_dict(), sort_keys=True)
        clone = PartitionTree.from_dict(json.loads(text))
        assert built_nodes(clone) == built
        assert (clone.n_nodes, clone.height) == (tree.n_nodes, tree.height)
        assert json.dumps(clone.to_dict(), sort_keys=True) == text
        # a child first reached after the reload is built then
        for x, y in zip(*uniform_stream(d, 300, seed=90 + d)):
            assert clone.predict(x) == tree.predict(x)
            clone.update(float(y))
            tree.update(float(y))
        assert built_nodes(clone) == built_nodes(tree)

    @pytest.mark.parametrize("edit", [
        lambda data, node: node["eg"].update(G=-0.0),
        lambda data, node: node.update(count=2, eg={**node["eg"], "t": 2}),
        lambda data, node: (data.update(effective_range=True),
                            node.update(obs_range={"lo": [0.6], "hi": [0.6]})),
    ], ids=["G=-0.0", "count=2", "obs_range"])
    def test_reload_builds_a_child_that_is_not_fresh(self, edit):
        data = grow(1, [[0.2]], [0.7]).to_dict()  # the root splits; no child is reached
        assert PartitionTree.from_dict(data).root.right is None  # (1, 2) is fresh
        edit(data, next(n for n in data["nodes"] if (n["h"], n["i"]) == (1, 2)))
        text = json.dumps(data, sort_keys=True)
        clone = PartitionTree.from_dict(json.loads(text))
        assert clone.root.left is None and clone.root.right is not None
        assert json.dumps(clone.to_dict(), sort_keys=True) == text

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

    @pytest.mark.parametrize("edit, message", [
        (lambda data: data.update(effective_range="false"), "'effective_range' must be true"),
        (lambda data: data["nodes"][-1].update(count=2.5, eg={**data["nodes"][-1]["eg"],
                                                              "t": 2.5}),
         "'count' must be an integer"),
        (lambda data: data.pop("nodes"), "tree has no 'nodes'"),
        (lambda data: data["nodes"][-1].pop("h"), "node has no 'h'"),
        (lambda data: data["nodes"][-1].pop("eg"), r"node \(1, 2\) has no 'eg'"),
        (lambda data: data.update(d="x"), "'d' must be an integer"),
        (lambda data: data["nodes"][-1].update(h="a"), "'h' must be an integer"),
        (lambda data: data["nodes"][-1].update(obs_range="lo"), "'obs_range' must be an object"),
        (lambda data: data["nodes"][-1].update(obs_range={"lo": [0.2], "hi": [float("nan")]}),
         "obs_range must hold 1 numbers per end"),
        (lambda data: data["nodes"][-1].update(obs_range={"lo": [0.9], "hi": [0.2]}),
         "obs_range must hold 1 numbers per end"),
        (lambda data: data.update(nodes=5), "'nodes' must be a list"),
        (lambda data: data["nodes"].append([0, 1]), "node must be an object"),
    ])
    def test_rejects_malformed_fields(self, edit, message):
        data = grow(1, [[0.2], [0.7], [0.9]], [0.7, 0.1, 0.4]).to_dict()
        edit(data)
        with pytest.raises(RejectedInputError, match=message):
            PartitionTree.from_dict(data)

    def test_rejects_a_top_level_list(self):
        data = grow(1, [[0.2]], [0.7]).to_dict()
        with pytest.raises(RejectedInputError, match="tree must be an object"):
            PartitionTree.from_dict([data])

    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([1, 2, 3]), effective_range=st.booleans(),
           loss=st.sampled_from([ABS, LossSpec("square"), LossSpec("pinball", alpha=0.3)]),
           T=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
    def test_json_round_trip_keeps_forecasting(self, d, effective_range, loss, T, seed):
        xs, ys = dyadic_stream(d, T + 100, seed)
        tree = grow(d, xs[:T], ys[:T], effective_range=effective_range, loss=loss)
        clone = PartitionTree.from_dict(json.loads(json.dumps(tree.to_dict())))
        assert clone.to_dict() == tree.to_dict()
        for x, y in zip(xs[T:], ys[T:]):
            assert tree.predict(x) == clone.predict(x)
            tree.update(float(y))
            clone.update(float(y))
            assert tree.trace() == clone.trace()
        assert clone.to_dict() == tree.to_dict()


def _json_paths(value, path=()):
    """Every path of keys and list indices inside a decoded JSON value, the root first."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield from _json_paths(inner, path + (key,))


FUZZ_BASE = grow(2, *dyadic_stream(2, 40, seed=9), effective_range=True,
                 loss=LossSpec("pinball", alpha=0.3)).to_dict()
FUZZ_PATHS = list(_json_paths(FUZZ_BASE))
DELETE = object()
FUZZ_VALUES = [DELETE, None, "x", "false", "0.5", 2.5, -1, 0, 7, True, [], {}, [0.5, 0.5],
               float("nan"), float("inf"), float("-inf")]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(FUZZ_PATHS), st.sampled_from(FUZZ_VALUES)),
                min_size=1, max_size=3))
@example([(("nodes", 11, "obs_range", "hi"), "x"), (("nodes", 11, "obs_range", "hi", 0), None)])
@example([(("nodes", 11, "obs_range", "hi"), "x"), (("nodes", 11, "obs_range", "hi", 0), DELETE)])
def test_fuzzed_tree_json_loads_or_is_rejected(edits):
    data = json.loads(json.dumps(FUZZ_BASE))
    for path, value in edits:
        if not path:
            data = [data] if value is DELETE else value
            continue
        parent = data
        try:
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier edit removed or replaced this path
        if not isinstance(parent, (dict, list)):
            continue  # an earlier edit put a string where a container was
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    try:
        tree = PartitionTree.from_dict(data)
    except RejectedInputError:
        return
    # a tree that loads must forecast
    for x, y in ((0.3, 0.6), (0.9, 0.1), (1.0, 0.5)):
        assert 0.0 < tree.predict([x] * tree.d) < 1.0
        tree.update(y)

