"""scipy's COBYLA on the probability simplex: the optimizer reference.

SGLA runs the from-scratch :class:`repro.optim.cobyla.LinearTrustRegion`
through :func:`repro.optim.driver.minimize_on_simplex`.  This module runs
Powell's original COBYLA (scipy) on the same reduced problem — the first
``r - 1`` weights on the capped simplex — so the tests can cross-check the
in-tree optimizer against an independent implementation, both on plain
quadratics and on SGLA's spectral objective.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize

from repro.optim.driver import OptimizerResult
from repro.optim.simplex import (
    project_to_capped_simplex,
    reduce_weights,
    restore_weights,
)


def scipy_cobyla_on_simplex(
    func,
    r: int,
    rho_start: float = 0.25,
    rho_end: float = 1e-3,
    max_evaluations: int = 200,
) -> OptimizerResult:
    """Minimize ``func(w)`` over the simplex in ``R^r`` with scipy's COBYLA,
    from uniform weights, with :func:`minimize_on_simplex`'s contract."""
    reduced0 = project_to_capped_simplex(reduce_weights(np.full(r, 1.0 / r)))
    dim = reduced0.size
    constraints = [
        {"type": "ineq", "fun": (lambda u, i=i: u[i])} for i in range(dim)
    ]
    constraints.append({"type": "ineq", "fun": lambda u: 1.0 - float(np.sum(u))})
    history = []

    def reduced_func(u: np.ndarray) -> float:
        # COBYLA may probe slightly infeasible points; project before the
        # objective sees them so eigensolves stay well defined.
        weights = restore_weights(project_to_capped_simplex(u))
        value = float(func(weights))
        history.append((weights, value))
        return value

    result = scipy.optimize.minimize(
        reduced_func,
        reduced0,
        method="COBYLA",
        constraints=constraints,
        options={
            "rhobeg": rho_start,
            "maxiter": max_evaluations,
            "tol": rho_end,
        },
    )
    return OptimizerResult(
        weights=restore_weights(project_to_capped_simplex(result.x)),
        value=float(result.fun),
        n_evaluations=int(result.nfev),
        n_iterations=int(getattr(result, "nit", result.nfev)),
        converged=bool(result.success),
        history=history,
    )
