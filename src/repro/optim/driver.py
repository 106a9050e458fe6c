"""Front end for simplex-constrained derivative-free minimization.

:func:`minimize_on_simplex` accepts an objective over *full* weight vectors
``w in R^r`` (on the probability simplex), reduces the problem to the first
``r - 1`` coordinates, runs the from-scratch COBYLA-style optimizer
(:class:`repro.optim.cobyla.LinearTrustRegion`) on them, and restores the
full weights.  scipy's COBYLA (Powell's original algorithm) stays in the
test suite as an independent cross-check of that optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.optim.cobyla import LinearTrustRegion
from repro.optim.simplex import (
    project_to_capped_simplex,
    reduce_weights,
    restore_weights,
)
from repro.utils.errors import ValidationError


@dataclass(frozen=True)
class OptimizerResult:
    """Outcome of a simplex-constrained minimization."""

    weights: np.ndarray  # full weight vector on the simplex
    value: float  # objective value at `weights`
    n_evaluations: int
    n_iterations: int
    converged: bool
    history: List[Tuple[np.ndarray, float]]  # full-weight iterate history


def minimize_on_simplex(
    func: Callable[[np.ndarray], float],
    r: int,
    x0=None,
    rho_start: float = 0.25,
    rho_end: float = 1e-3,
    max_evaluations: int = 200,
    seed=0,
    callback: Optional[Callable[[np.ndarray, float], None]] = None,
    rho_listener: Optional[Callable[[float], None]] = None,
) -> OptimizerResult:
    """Minimize ``func(w)`` over the probability simplex in ``R^r``.

    Parameters
    ----------
    func:
        Objective taking a full weight vector (length ``r``, on the simplex).
    r:
        Number of views / weights.
    x0:
        Starting weights (defaults to uniform ``1/r``).
    rho_start, rho_end:
        Trust-region radii (``rho_end`` doubles as the paper's ``eps``
        termination criterion on weight movement).
    max_evaluations:
        Cap on objective evaluations.
    seed:
        Determinism seed for the optimizer's internals.
    callback:
        Called with ``(best_weights, best_value)`` after each improvement.
    rho_listener:
        Called with the optimizer's current trust radius ``rho`` before
        the objective evaluations that run at that radius.  This is how
        the adaptive-precision tolerance ladder sees the optimizer's
        progress (:meth:`repro.core.objective.SpectralObjective.
        set_trust_radius`).
    """
    if r < 1:
        raise ValidationError(f"r must be >= 1, got {r}")
    if x0 is None:
        x0 = np.full(r, 1.0 / r)
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    if x0.shape[0] != r:
        raise ValidationError(f"x0 must have length {r}, got {x0.shape[0]}")

    if r == 1:
        weights = np.array([1.0])
        value = float(func(weights))
        return OptimizerResult(
            weights=weights,
            value=value,
            n_evaluations=1,
            n_iterations=0,
            converged=True,
            history=[(weights.copy(), value)],
        )

    reduced0 = project_to_capped_simplex(reduce_weights(x0))
    history: List[Tuple[np.ndarray, float]] = []

    def reduced_func(u: np.ndarray) -> float:
        weights = restore_weights(u)
        value = float(func(weights))
        history.append((weights, value))
        return value

    def reduced_callback(u: np.ndarray, value: float) -> None:
        if callback is not None:
            callback(restore_weights(u), value)

    optimizer = LinearTrustRegion(
        rho_start=rho_start,
        rho_end=rho_end,
        max_evaluations=max_evaluations,
        seed=seed,
    )
    raw = optimizer.minimize(
        reduced_func,
        reduced0,
        callback=reduced_callback,
        rho_callback=rho_listener,
    )

    weights = restore_weights(raw["x"])
    return OptimizerResult(
        weights=weights,
        value=float(raw["fun"]),
        n_evaluations=int(raw["n_evaluations"]),
        n_iterations=int(raw["n_iterations"]),
        converged=bool(raw["converged"]),
        history=history,
    )

