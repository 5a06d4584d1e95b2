"""Adaptive mean-curve estimation with uniform confidence bands.

Estimates the mean function of a stochastic process from n noisy
discretized curves by thresholding empirical basis coefficients at
data-driven levels, selects among candidate estimators by a data
split, and builds simultaneous confidence bands whose widths adapt
to the sparsity of the mean.  A seeded simulation harness scores
estimators and bands over replicated panels.
"""

# Each module's __all__ is the one list of its public names.
from . import bands, estimator, grid_basis, metrics_bench, process_sim, selector
from .grid_basis import *  # noqa: F403
from .process_sim import *  # noqa: F403
from .estimator import *  # noqa: F403
from .selector import *  # noqa: F403
from .bands import *  # noqa: F403
from .metrics_bench import *  # noqa: F403

__version__ = "1.0.0"

__all__ = [
    *grid_basis.__all__, *process_sim.__all__, *estimator.__all__,
    *selector.__all__, *bands.__all__, *metrics_bench.__all__,
    "__version__",
]
