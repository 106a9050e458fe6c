"""Derivative-free constrained optimization on the probability simplex.

The paper optimizes the spectrum-guided objective with Powell's COBYLA [40],
a derivative-free method for inequality-constrained problems.  This
subpackage provides:

* :mod:`repro.optim.simplex` — exact Euclidean projection onto the simplex
  and the reduced feasible set the optimizer works in;
* :mod:`repro.optim.cobyla` — a from-scratch linear-interpolation
  trust-region optimizer with the same contract (derivative-free, inequality
  constraints, ``rho_end`` termination);
* :mod:`repro.optim.driver` — the :func:`minimize_on_simplex` front end
  that runs it over full weight vectors.  The test suite cross-checks it
  against scipy's COBYLA.
"""

from repro.optim.cobyla import LinearTrustRegion
from repro.optim.driver import OptimizerResult, minimize_on_simplex
from repro.optim.simplex import (
    project_to_capped_simplex,
    project_to_simplex,
    reduce_weights,
    restore_weights,
)

__all__ = [
    "LinearTrustRegion",
    "OptimizerResult",
    "minimize_on_simplex",
    "project_to_simplex",
    "project_to_capped_simplex",
    "reduce_weights",
    "restore_weights",
]
