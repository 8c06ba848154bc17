"""Runtime wrappers that count calls and self time per public function.

Nothing under ``src/`` is edited: :func:`install` replaces the public
functions and methods of every ``egtree`` layer, at every module that
imported them by name, with wrappers that aggregate as the run goes.
Only the stage and CLI command boundaries are explicit spans; the
millions of forecaster calls of a long run are folded into two numbers
per function (calls and self time) instead of one record per call.

Self time is a call's wall time minus the wall time of the wrapped calls
made inside it, so the self times of all wrapped functions and spans add
up to the traced wall time without double counting.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

LAYERS = ("losses", "eg", "tree", "autoregressive", "oracles", "processes",
          "harness", "cli")

HARNESS_FUNCTIONS = ("run", "read_series", "read_covariates", "write_series",
                     "write_covariates", "write_run_log", "read_run_log",
                     "data_digest", "verify_bounds", "expert_regret", "report")
CLI_COMMANDS = ("simulate", "run", "verify-bounds", "report")


def function_names() -> list[str]:
    """Every function name the tracer reports, in a fixed order."""
    return ([f"losses.{m}" for m in ("value", "subgradient", "value_array")]
            + ["eg.predict", "eg.update"]
            + [f"tree.{m}" for m in ("route", "predict", "update")]
            + [f"autoregressive.{m}" for m in ("meta_predict", "meta_update",
                                               "lagged_predict", "lagged_update",
                                               "reweight")]
            + ["oracles.best_lipschitz_1d", "oracles.best_constant"]
            + ["processes.generate", "processes.generate_with_info"]
            + [f"harness.{f}" for f in HARNESS_FUNCTIONS]
            + [f"cli.main.{c}" for c in CLI_COMMANDS])


class Tracer:
    """Aggregates calls and self time per name; one instance per process."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        # wall time of wrapped calls made inside each open call; the bottom
        # entry collects time spent outside every span
        self._inner = [0.0]
        self.leaf_depth_sum = 0   # over every leaf that route() returned

    def _record(self, name: str, elapsed: float) -> None:
        inner = self._inner.pop()
        self._inner[-1] += elapsed
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - inner

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` wrapped to count under ``name``.

        ``before(args)`` runs untimed ahead of the call and ``after(result)``
        sees its result; both are for counters read off the arguments or
        results, and add nothing to any self time.
        """
        perf = time.perf_counter
        inner = self._inner
        record = self._record

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                t = perf()
                before(args)
                inner[-1] += perf() - t
            inner.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                record(name, perf() - t0)
            if after is not None:
                t = perf()
                after(result)
                inner[-1] += perf() - t
            return result

        return wrapper

    @contextmanager
    def span(self, name: str):
        """An explicit span, used at stage and CLI command level only."""
        self._inner.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._record(name, time.perf_counter() - t0)


def layer_self_s(self_s: dict) -> dict[str, float]:
    """Self time summed per layer; stage spans belong to no layer."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, s in self_s.items():
        layer = name.split(".", 1)[0]
        if layer in out:
            out[layer] += s
    return out


def install(tracer: Tracer, before_digest=None) -> None:
    """Replace every public ``egtree`` function at each of its import sites.

    ``before_digest(args)`` is handed to the ``harness.data_digest``
    wrapper; the pipeline uses it to weigh the live trees at the end of
    the forecasting loop, where ``harness.run`` digests its input.
    """
    from egtree import autoregressive, eg, harness, oracles, processes, tree
    from egtree.losses import LossSpec

    def patch(owner, attr, name, **hooks):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), **hooks))

    for m in ("value", "subgradient", "value_array"):
        patch(LossSpec, m, f"losses.{m}")
    for m in ("predict", "update"):
        patch(eg, m, f"eg.{m}")

    def count_depth(leaf):
        tracer.leaf_depth_sum += leaf.h

    patch(tree.PartitionTree, "route", "tree.route", after=count_depth)
    patch(tree.PartitionTree, "predict", "tree.predict")
    patch(tree.PartitionTree, "update", "tree.update")
    patch(tree.PartitionTree, "_split", "tree._split")
    for m in ("predict", "update"):
        patch(autoregressive.MetaForecaster, m, f"autoregressive.meta_{m}")
        patch(autoregressive.LaggedForecaster, m, f"autoregressive.lagged_{m}")
    patch(autoregressive, "reweight", "autoregressive.reweight")

    best_constant = tracer.wrap("oracles.best_constant", oracles.best_constant)
    for site in (oracles, harness, processes):
        site.best_constant = best_constant
    best_lipschitz = tracer.wrap("oracles.best_lipschitz_1d", oracles.best_lipschitz_1d)
    for site in (oracles, harness):
        site.best_lipschitz_1d = best_lipschitz

    patch(processes, "generate", "processes.generate")
    patch(processes, "generate_with_info", "processes.generate_with_info")
    for f in HARNESS_FUNCTIONS:
        patch(harness, f, f"harness.{f}",
              **({"before": before_digest} if f == "data_digest" else {}))
    # egtree.cli reaches harness, oracles and processes through module
    # attributes, so the patches above cover its calls; its own time is
    # spanned per command by the caller.
