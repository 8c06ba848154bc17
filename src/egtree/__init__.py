"""Online non-parametric forecasting with adaptively partitioned trees.

The package provides, bottom-up:

* :mod:`egtree.losses`          bounded convex losses on [0,1]^2
* :mod:`egtree.eg`              constant-tracking exponentiated-gradient forecaster
* :mod:`egtree.tree`            the adaptive partition tree over [0,1]^d
* :mod:`egtree.autoregressive`  lag-window wrappers and their growing mixture
* :mod:`egtree.oracles`         offline comparators (constant / histogram / Lipschitz)
* :mod:`egtree.processes`       seeded ergodic generators with a computable loss floor
* :mod:`egtree.harness`         experiment runner, logs, and bound verification
* :mod:`egtree.cli`             the ``egtree`` command

Every forecaster (:class:`~egtree.eg.EgTracker`, :class:`PartitionTree`,
:class:`LaggedForecaster`, :class:`MetaForecaster`) follows one protocol:
``predict(x) -> float``, then exactly one ``update(y)``; a rejected ``y``
leaves the prediction pending.  ``trace()`` then returns the log columns of
that step, by name (see :data:`egtree.harness.STEP_COLUMNS`).
"""

from .autoregressive import LaggedForecaster, MetaForecaster
from .eg import EgTracker
from .errors import ContractViolationError, RejectedInputError
from .harness import RunConfig, RunLog, run, verify_bounds
from .losses import LossSpec
from .oracles import best_constant, best_histogram, best_lipschitz_1d
from .processes import ProcessSpec, generate, minimal_expected_loss
from .tree import PartitionTree

__all__ = [
    "ContractViolationError",
    "EgTracker",
    "LaggedForecaster",
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
