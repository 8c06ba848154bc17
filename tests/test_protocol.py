"""The predict(x) / update(y) / trace() protocol that every forecaster follows."""

import numpy as np
import pytest

import reference
from egtree import eg
from egtree.autoregressive import LaggedForecaster, MetaForecaster
from egtree.eg import EgTracker
from egtree.errors import ContractViolationError, RejectedInputError
from egtree.harness import STEP_COLUMNS, RunConfig
from egtree.losses import LossSpec
from egtree.tree import PartitionTree

ABS = LossSpec("absolute")


# factory and the x each predict() receives
FORECASTERS = {
    "eg": (lambda: EgTracker(ABS), None),
    "tree": (lambda: PartitionTree(2, ABS, effective_range=True), [0.3, 0.8]),
    "lagged": (lambda: LaggedForecaster(d=2, start=3, loss=ABS), [0.1, 0.6, 0.9]),
    "meta": (lambda: MetaForecaster(ABS), None),
}


def trees_state(forecaster) -> list:
    """Pending step and every node's EG state of each tree the forecaster drives."""
    if isinstance(forecaster, MetaForecaster):
        trees = forecaster.experts
    elif isinstance(forecaster, LaggedForecaster):
        trees = [forecaster.tree]
    else:
        trees = [forecaster] if isinstance(forecaster, PartitionTree) else []
    return [(tree._pending, [(node.count, node.G) for node in tree.walk()]) for tree in trees]


@pytest.mark.parametrize("kind", sorted(FORECASTERS))
def test_protocol(kind):
    make, x = FORECASTERS[kind]
    forecaster, twin = make(), make()
    with pytest.raises(ContractViolationError):
        forecaster.update(0.5)  # nothing predicted yet

    # warm up past the meta pool's first admissions
    for y in (0.2, 0.9, 0.4, 0.7, 0.1):
        for f in (forecaster, twin):
            f.predict(x)
            f.update(y)
    assert forecaster.predict(x) == twin.predict(x)
    before = trees_state(forecaster)
    assert len(before) == {"eg": 0, "tree": 1, "lagged": 1, "meta": 2}[kind]
    for bad in (1.5, -0.1, float("nan")):
        with pytest.raises(RejectedInputError):
            forecaster.update(bad)
    # no tree, member trees included, saw a rejected outcome
    assert trees_state(forecaster) == before
    # the rejected outcomes changed nothing: the retry matches the twin
    for y in (0.6, 0.3, 0.8):
        forecaster.update(y)
        twin.update(y)
        assert forecaster.trace() == twin.trace()
        assert forecaster.predict(x) == twin.predict(x)
    forecaster.update(0.5)
    with pytest.raises(ContractViolationError):
        forecaster.update(0.5)  # one update per predict


@pytest.mark.parametrize("kind", ["eg", "tree", "meta"])
def test_one_eg_path(kind, monkeypatch, run_log):
    # the eg forecaster and every tree leaf run eg.predict and eg.update,
    # once per leaf step each, and have no EG arithmetic of their own
    calls = {"predict": 0, "update": 0}

    def counted(name):
        inner = getattr(eg, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    monkeypatch.setattr(eg, "predict", counted("predict"))
    monkeypatch.setattr(eg, "update", counted("update"))
    rng = np.random.default_rng(4)
    T = 300
    xs = rng.random((T, 2)) if kind == "tree" else None
    log = run_log(RunConfig(kind, ABS, d=2), rng.random(T), xs)
    leaf_steps = T
    if kind == "meta":
        leaf_steps = int(log.pool.sum())
        assert leaf_steps > T  # several members per step
    assert calls == {"predict": leaf_steps, "update": leaf_steps}


@pytest.mark.parametrize("kind", ["tree", "meta"])
def test_each_point_checked_once(kind, monkeypatch, run_log):
    # harness.run checks a tree run's covariates as one array and hands the
    # tree each row through _predict, as a tuple of d Python floats; the
    # mixture checks each outcome as it enters its history, and its members
    # take the lag windows of that history unchecked.  No point is checked
    # again per step.
    checks = [0]
    check, predict = PartitionTree._check_point, PartitionTree._predict
    seen = []

    def counted(self, x):
        checks[0] += 1
        return check(self, x)

    def recorded(self, x):
        seen.append((self.d, x))
        return predict(self, x)

    monkeypatch.setattr(PartitionTree, "_check_point", counted)
    monkeypatch.setattr(PartitionTree, "_predict", recorded)
    rng = np.random.default_rng(5)
    T = 300
    xs = rng.random((T, 2)) if kind == "tree" else None
    log = run_log(RunConfig(kind, ABS, d=2), rng.random(T), xs)
    assert checks[0] == 0
    assert all(type(x) is tuple and len(x) == d and all(type(v) is float for v in x)
               for d, x in seen)
    if kind == "tree":
        assert [x for _, x in seen] == [tuple(row) for row in xs.tolist()]
    else:
        assert len(seen) == log.pool.sum()


@pytest.mark.parametrize("kind", ["eg", "tree", "meta"])
def test_traced_fields_are_named_step_columns(kind):
    # harness.run cuts its flat list of fields into columns by the names
    # of TRACED, so trace() must return exactly one value per name
    make, x = FORECASTERS[kind]
    forecaster = make()
    for y in (0.2, 0.9, 0.4):
        forecaster.predict(x)
        forecaster.update(y)
    # t, x, pred and y are the harness's own columns
    assert set(forecaster.TRACED) <= set(STEP_COLUMNS) - {"t", "x", "pred", "y"}
    assert type(forecaster.trace()) is tuple
    assert len(forecaster.trace()) == len(forecaster.TRACED)


BAD_POINTS = [[float("nan"), 0.5], [1.5, 0.5], [0.5, -0.1]]


@pytest.mark.parametrize("entry", ["predict", "route"])
@pytest.mark.parametrize("point", BAD_POINTS + [[0.5, 0.5, 0.5]])
def test_tree_entries_check_their_point(entry, point):
    tree = PartitionTree(2, ABS)
    with pytest.raises(RejectedInputError):
        getattr(tree, entry)(point)
    assert tree._pending is None


@pytest.mark.parametrize("point", BAD_POINTS)
def test_lagged_predict_checks_its_window(point):
    # the window is the last d = 2 entries of the history, so it cannot have
    # the wrong length; a shorter history is a ContractViolationError
    lagged = LaggedForecaster(d=2, start=3, loss=ABS)
    with pytest.raises(RejectedInputError):
        lagged.predict([0.2] + point)
    assert lagged.tree._pending is None


LOSSES = [ABS, LossSpec("square"), LossSpec("pinball", alpha=0.3)]


@pytest.mark.parametrize("loss", LOSSES, ids=lambda loss: loss.kind)
@pytest.mark.parametrize("effective_range", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_run_matches_the_checked_tree_path(d, effective_range, loss, run_log):
    # harness.run hands the tree its checked rows through _predict and
    # computes the losses after the loop; a hand loop through the public,
    # checking predict, update and trace must give the same columns
    rng = np.random.default_rng(30 + d)
    T = 400
    xs = rng.random((T, d))
    xs[::9] = np.round(xs[::9] * 4) / 4  # box edges, and points at 1
    ys = rng.random(T)
    log = run_log(RunConfig("tree", loss, d=d, effective_range=effective_range), ys, xs)
    steps = reference.hand_run(RunConfig("tree", loss, d=d, effective_range=effective_range),
                               ys, xs)
    for name in ("preds", "leaf_h", "leaf_i", "n_nodes", "height"):
        assert getattr(log, name).tolist() == getattr(steps, name).tolist(), name
    assert (log.x.dtype, log.x.shape, log.x.tobytes()) == (np.float64, (T, d), xs.tobytes())
    cumulative = 0.0
    for pred, y in zip(steps.preds.tolist(), ys.tolist()):
        cumulative += loss.value(pred, y)
    assert log.summary["cumulative_loss"] == cumulative
    assert log.pool.tolist() == [0] * T
    assert log.expert_preds.shape == log.expert_weights.shape == (0,)
