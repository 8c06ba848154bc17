"""Online non-parametric forecasting with adaptively partitioned trees.

The package provides, bottom-up:

* :mod:`egtree.losses`          bounded convex losses on [0,1]^2
* :mod:`egtree.eg`              constant-tracking exponentiated-gradient forecaster
* :mod:`egtree.tree`            the adaptive partition tree over [0,1]^d
* :mod:`egtree.autoregressive`  the growing mixture of lag-window trees
* :mod:`egtree.oracles`         offline comparators (constant / histogram / Lipschitz)
* :mod:`egtree.processes`       seeded ergodic generators with a computable loss floor
* :mod:`egtree.harness`         experiment runner and run logs
* :mod:`egtree.verify`          the checks of a run's guarantees against its log
* :mod:`egtree.cli`             the ``egtree`` command

Every forecaster (:class:`~egtree.eg.EgTracker`, :class:`PartitionTree`,
:class:`MetaForecaster`) follows one protocol: ``predict(x) -> float``,
then exactly one ``update(y)``; a rejected ``y`` leaves the prediction
pending.  ``trace()`` then returns the step's log fields that only the
forecaster knows as a tuple, in the order of the class-level tuple
``TRACED`` of their column names (see :data:`egtree.harness.STEP_COLUMNS`).
:func:`egtree.harness.run`, the run of ``egtree run``, drives all three
through one loop that keeps ``trace()`` per step, and writes the step log
to a directory a block of steps at a time;
:func:`egtree.harness.read_run_log` reads it back as a :class:`RunLog`.
The run checks a tree run's covariates once, as an array, hands the rows
to ``PartitionTree._predict``, which checks nothing again, and writes them
as the log's ``x`` column itself; the public ``predict`` checks its point
for every other caller.  The members of a ``MetaForecaster`` are plain
``PartitionTree`` objects, one per lag order.
"""

from .autoregressive import MetaForecaster
from .eg import EgTracker
from .errors import ContractViolationError, RejectedInputError
from .harness import RunConfig, RunLog, run
from .losses import LossSpec
from .oracles import best_constant, best_histogram, best_lipschitz_1d
from .processes import ProcessSpec, generate, minimal_expected_loss
from .tree import PartitionTree
from .verify import verify_bounds

__all__ = [
    "ContractViolationError",
    "EgTracker",
    "LossSpec",
    "MetaForecaster",
    "PartitionTree",
    "ProcessSpec",
    "RejectedInputError",
    "RunConfig",
    "RunLog",
    "best_constant",
    "best_histogram",
    "best_lipschitz_1d",
    "generate",
    "minimal_expected_loss",
    "run",
    "verify_bounds",
]

__version__ = "0.1.0"
