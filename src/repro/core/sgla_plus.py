"""SGLA+ — sampling + quadratic-surrogate acceleration (paper Algorithm 2).

SGLA+ performs ``r + 1`` expensive objective evaluations (one per sampled
weight vector), fits the least-Frobenius-norm quadratic surrogate
``h_Theta*`` (Eq. 9), and minimizes the surrogate — whose evaluations cost
``O(r^2)`` instead of an eigensolve — to obtain the final view weights
``w†`` (Eq. 10).  Complexity drops from ``O(T (m + qnK))`` for SGLA to
``O(r (m + qnK))`` with a small constant.

Two safeguards extend the paper's Algorithm 2 (documented in DESIGN.md):
the surrogate's indefinite curvature is convexified before minimization,
and the returned weights are the best — by true objective value — of the
surrogate minimizer, a short projected line search along the finite-
difference gradient the samples already contain, and the sampled points
themselves.  This adds at most five extra evaluations (still ``O(r)``)
and guarantees SGLA+ never returns anything worse than its best sample.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.objective import LADDER_COARSE_TOL, SpectralObjective
from repro.core.sampling import adjusted_samples, interpolation_samples
import numpy as np

from repro.core.mvag import is_mvag_like
from repro.core.sgla import InputLike, SGLAConfig, SGLAResult, prepare_laplacians
from repro.core.surrogate import fit_surrogate
from repro.neighbors import NeighborStats
from repro.optim.driver import minimize_on_simplex
from repro.optim.simplex import project_to_simplex
from repro.shard import ShardContext, shard_scope
from repro.solvers import SolverContext
from repro.utils.errors import ValidationError


_LINE_SEARCH_STEPS = (0.3, 0.7, 1.5, 3.0)


def _gradient_candidates(samples, sample_values, r: int):
    """Projected steepest-descent candidates from the sampled scores.

    The paper's sampling scheme contains a finite-difference gradient for
    free: ``h(w_l) - h(w_0)`` estimates the directional derivative of the
    objective along ``(1_l - w_0) / 2``.  We take the negated, tangent-
    projected difference vector as a descent direction from the uniform
    point and emit a short geometric line search along it (projected back
    onto the simplex).  In high-``r`` regimes this first-order information
    is far more reliable than the curvature of a quadratic fitted from
    only ``r + 1`` points.
    """
    uniform = samples[0]
    h0 = sample_values[0]
    direction = -(np.asarray(sample_values[1 : 1 + r], dtype=np.float64) - h0)
    direction = direction - direction.mean()  # tangent to the simplex
    scale = float(np.abs(direction).max())
    if scale <= 1e-15:
        return []
    step = direction / scale * (2.0 / r)
    return [
        project_to_simplex(uniform + eta * step)
        for eta in _LINE_SEARCH_STEPS
    ]


class SGLAPlus:
    """The accelerated spectrum-guided aggregation solver (Algorithm 2).

    Parameters
    ----------
    config:
        Shared SGLA hyperparameters; ``alpha_r`` controls the surrogate
        ridge term and ``surrogate_max_evaluations`` the (cheap) surrogate
        minimization budget.
    """

    def __init__(self, config: Optional[SGLAConfig] = None, **overrides) -> None:
        if config is None:
            config = SGLAConfig(**overrides)
        elif overrides:
            raise ValidationError(
                "pass either a config object or keyword overrides, not both"
            )
        self.config = config

    def fit(
        self,
        data: InputLike,
        k: Optional[int] = None,
        delta_samples: int = 0,
        solver: Optional[SolverContext] = None,
        neighbor_stats: Optional[NeighborStats] = None,
        shard: Optional[ShardContext] = None,
    ) -> SGLAResult:
        """Run Algorithm 2.

        Parameters
        ----------
        data:
            An :class:`~repro.core.mvag.MVAG` or a sequence of view
            Laplacians.
        k:
            Cluster count (defaults to the MVAG's label count).
        delta_samples:
            Offset on the number of weight-vector samples relative to the
            paper's ``r + 1`` (the Fig. 10 sweep); 0 reproduces the paper.
        solver:
            Optional shared :class:`repro.solvers.SolverContext`; a fresh
            one is built from the config when omitted.
        neighbor_stats:
            Optional shared :class:`repro.neighbors.NeighborStats`
            accumulating the KNN-build counters (a fresh one is created
            when the input is an MVAG).
        shard:
            Optional shared :class:`repro.shard.ShardContext`; view
            builds and the sample-batch eigensolves are partitioned over
            its process pool.  A fresh one is built from the config when
            ``shard_workers`` is set, and closed before returning.
        """
        start = time.perf_counter()
        with shard_scope(self.config, shard) as scoped:
            return self._fit(
                data, k, delta_samples, solver, neighbor_stats, scoped, start
            )

    def _fit(
        self,
        data: InputLike,
        k: Optional[int],
        delta_samples: int,
        solver: Optional[SolverContext],
        neighbor_stats: Optional[NeighborStats],
        shard: Optional[ShardContext],
        start: float,
    ) -> SGLAResult:
        config = self.config
        if neighbor_stats is None and is_mvag_like(data):
            neighbor_stats = NeighborStats()
        if config.coarsen_levels > 0:
            # Lazy import: repro.coarsen imports this module at package
            # load, so the dependency must stay one-directional here.
            from repro.coarsen.ladder import multilevel_fit

            return multilevel_fit(
                data, k, config, solver, neighbor_stats, shard, start,
                plus=True, delta_samples=delta_samples,
            )
        laplacians, k = prepare_laplacians(
            data, k, config, neighbor_stats=neighbor_stats, shard=shard
        )
        solver = solver or config.make_solver()
        objective = SpectralObjective(
            laplacians,
            k=k,
            gamma=config.gamma,
            seed=config.seed,
            solver=solver,
            shard=shard,
        )
        r = objective.r

        if r == 1:
            # Single view: nothing to weight.
            weights = interpolation_samples(1)[0]
            value = objective(weights)
            return SGLAResult(
                laplacian=objective.aggregate(weights),
                weights=weights,
                objective_value=value,
                history=[(weights, value)],
                n_objective_evaluations=objective.n_evaluations,
                converged=True,
                elapsed_seconds=time.perf_counter() - start,
                solver_stats=solver.stats,
                neighbor_stats=neighbor_stats,
            )

        # Lines 1-6: sample weight vectors, evaluate the true objective.
        # The whole sample set goes through the batched fast path: one
        # GEMM aggregates every L(w_l), and consecutive eigensolves warm-
        # start each other.  With the tolerance ladder the samples only
        # feed a quadratic surrogate whose fit error dwarfs eigensolve
        # noise, so they run at the ladder's coarse rung; the candidate
        # safeguard below then runs at full precision.
        prior_tol = solver.tol
        if config.tol_ladder:
            solver.set_tolerance(LADDER_COARSE_TOL)
        if delta_samples == 0:
            samples = interpolation_samples(r)
        else:
            samples = adjusted_samples(r, delta_s=delta_samples, rng=config.seed)
        sample_components, _ = objective.evaluate_batch(samples)
        sample_values = [component.value for component in sample_components]
        history = list(zip(samples, sample_values))

        # Line 7: least-Frobenius-norm quadratic model (Eq. 9).  The raw
        # interpolant's Hessian is generally indefinite with only r + 1
        # points, so we minimize its convexification (PSD-projected
        # curvature) — see QuadraticSurrogate.convexified for rationale.
        surrogate = fit_surrogate(samples, sample_values, alpha=config.alpha_r)
        model = surrogate.convexified()

        # Lines 8-14: minimize the cheap surrogate over the simplex.
        outcome = minimize_on_simplex(
            model,
            r=r,
                rho_start=config.rho_start,
            rho_end=config.eps,
            max_evaluations=config.surrogate_max_evaluations,
            seed=config.seed,
        )

        # Line 15: aggregate the final Laplacian with the surrogate optimum,
        # safeguarded over a small candidate set (each candidate costs one
        # eigensolve, keeping the total at O(r) evaluations):
        #   1. the surrogate minimizer w-dagger;
        #   2. a short projected line search along the finite-difference
        #      gradient already contained in the samples (see
        #      _gradient_candidates);
        #   3. the best sampled point itself.
        if config.tol_ladder:
            # Candidate safeguarding compares objective values directly,
            # so it runs at full precision from here on.
            solver.set_tolerance(0.0)
        candidates = [outcome.weights]
        if delta_samples == 0:
            candidates.extend(_gradient_candidates(samples, sample_values, r))
        best_weights = None
        best_value = np.inf
        for candidate in candidates:
            value = objective(candidate)
            history.append((candidate, value))
            if value < best_value:
                best_weights = candidate
                best_value = value
        best_sample_index = int(np.argmin(sample_values))
        best_sample_value = sample_values[best_sample_index]
        if config.tol_ladder:
            # The samples were scored at the coarse rung; a ~1e-5 solve
            # error must not let one outrank an exactly-evaluated
            # candidate, so the front-runner is re-scored at full
            # precision (the tolerance-tagged cache refuses a coarse
            # entry and serves an exact dense one) before the comparison.
            best_sample_value = objective(samples[best_sample_index])
            history.append((samples[best_sample_index], best_sample_value))
        if best_sample_value < best_value:
            best_weights = samples[best_sample_index]
            best_value = best_sample_value
        weights = best_weights
        value = best_value
        if config.tol_ladder:
            # The chosen incumbent may carry a coarse cached value (e.g.
            # a sampled point); report a full-precision h(w*), then
            # hand the shared context back at the caller's configured
            # tolerance.
            value = objective.evaluate_exact(weights).value
            solver.set_tolerance(prior_tol)
        laplacian = objective.aggregate(weights)
        elapsed = time.perf_counter() - start
        return SGLAResult(
            laplacian=laplacian,
            weights=weights,
            objective_value=value,
            history=history,
            n_objective_evaluations=objective.n_evaluations,
            converged=outcome.converged,
            elapsed_seconds=elapsed,
            solver_stats=solver.stats,
            neighbor_stats=neighbor_stats,
        )
