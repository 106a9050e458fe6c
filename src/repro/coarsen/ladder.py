"""The multilevel SGLA ladder: optimize coarse, refine fine (DESIGN.md §12).

``multilevel_fit`` is the driver behind ``SGLAConfig.coarsen_levels > 0``:

1. **Coarsen** — build up to ``coarsen_levels`` rungs of landmark
   aggregation; every view Laplacian is Galerkin-projected through one
   shared prolongation per rung, so view weights keep their meaning
   downstairs.
2. **Optimize coarse** — run the *full* SGLA / SGLA+ machinery (fast path,
   tolerance ladder, sharded batches — everything the flat path has) on
   the coarsest level, where an eigensolve costs a fraction of a fine one.
3. **Refine fine** — polish the coarse optimum at full size with a
   *first-order* simplex search: since one eigensolve at ``w`` yields the
   eigenpairs of ``L(w)``, the exact gradient of ``h`` is free by
   Hellmann–Feynman (``d lambda_j / d w_i = v_j^T L_i v_j``), so a
   projected Barzilai–Borwein descent reaches the fine optimum in a
   handful of full-size eigensolves — where the derivative-free flat
   search needs tens of them.  The fine solver's warm start is seeded
   with the *prolonged coarse Ritz block* ``P_1 .. P_l V_c``
   (re-orthonormalized), so even the first full-size solve starts from
   an already-converged subspace.

The refinement matters because Galerkin coarsening stiffens each view
differently (a view whose low eigenvectors are locally smooth survives
aggregation nearly unchanged; a noisy view's spectrum is raised much
more), so the *coarse* optimum ``w*_c`` carries a systematic bias of
order 0.05–0.1 toward under-coarsening-loss views.  A derivative-free
restart would spend a flat-search-sized budget closing that gap; the
gradient polish closes it at first-order speed.

The refine stage never builds the fast-path union stack — each iterate
aggregates ``L(w)`` through the one-pass ``aggregate_laplacians`` merge —
so the multilevel path's fine-level memory footprint is one aggregated
CSR, the difference between fitting and not fitting an ``n ~ 10^6``
problem in a bounded budget (see ``benchmarks/bench_multilevel.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.coarsen.base import (
    CoarsenStats,
    aggregate_similarity,
    galerkin_project,
    prolongation_from_aggregates,
)
from repro.coarsen.landmark import landmark_aggregates
from repro.core.laplacian import aggregate_laplacians
from repro.core.objective import (
    _EIGENGAP_FLOOR,
    ladder_tolerance,
    objective_components,
)
from repro.optim.simplex import project_to_simplex
from repro.solvers import SolverContext

#: building stops once a level has at most ``max(4 (k + 1), MIN_NODES)``
#: nodes: eigensolves there are cheap enough that another rung only adds
#: projection error.
MIN_NODES = 200

#: a rung that keeps at least this share of its level's nodes has
#: stalled, and building stops.
STALL_RATIO = 0.95

#: cap on full-size eigensolves in the refinement stage.
REFINE_EVALS = 20

#: the refine stops once an accepted step moves no weight by more than
#: ``max(eps / REFINE_XTOL_DIVISOR, REFINE_XTOL_FLOOR)``.
REFINE_XTOL_DIVISOR = 20.0
REFINE_XTOL_FLOOR = 1e-7

#: BB step clamp (the simplex has unit diameter; steps outside this range
#: are either noise or a degenerate curvature estimate).
_STEP_MIN, _STEP_MAX = 1e-3, 10.0

#: step movement at or above which the refine's tolerance ladder sits on
#: its coarsest rung (the flat search's default initial trust radius).
_LADDER_MOVEMENT_START = 0.25


@dataclass
class Hierarchy:
    """A built coarsening ladder (intermediate Laplacians dropped).

    Only the prolongation chain and the *coarsest* level's Laplacians are
    retained — intermediate Laplacians are needed once, as input to the
    next rung, and holding them would defeat the memory point of
    coarsening in the first place.
    """

    prolongations: List[sp.csr_matrix]  # fine -> coarse order
    coarse_laplacians: List[sp.csr_matrix]  # at the coarsest level
    sizes: List[int]  # node counts, finest first

    @property
    def n_levels(self) -> int:
        return len(self.prolongations)


def build_hierarchy(
    laplacians: Sequence[sp.spmatrix], k: int, config
) -> Hierarchy:
    """Coarsen up to ``config.coarsen_levels`` rungs of landmark aggregation.

    A rung is rejected (and building stops) when it would leave fewer
    than ``k + 2`` nodes (the objective needs ``k + 1`` eigenvalues) or
    keeps :data:`STALL_RATIO` or more of the level's nodes; building
    also stops once the level is already at or below
    ``max(4 (k + 1), MIN_NODES)`` nodes.
    """
    min_nodes = max(4 * (k + 1), MIN_NODES)

    prolongations: List[sp.csr_matrix] = []
    current = [laplacian.tocsr() for laplacian in laplacians]
    sizes = [current[0].shape[0]]
    for _ in range(config.coarsen_levels):
        n = current[0].shape[0]
        if n <= min_nodes:
            break
        aggregates = landmark_aggregates(
            aggregate_similarity(current), seed=config.seed
        )
        prolongation = prolongation_from_aggregates(aggregates)
        n_coarse = prolongation.shape[1]
        if n_coarse <= k + 1 or n_coarse >= STALL_RATIO * n:
            break
        current = galerkin_project(current, prolongation)
        prolongations.append(prolongation)
        sizes.append(n_coarse)
    return Hierarchy(
        prolongations=prolongations,
        coarse_laplacians=current,
        sizes=sizes,
    )


def prolong_block(
    hierarchy: Hierarchy, block: Optional[np.ndarray]
) -> Optional[np.ndarray]:
    """Lift a coarse Ritz block to the finest level and re-orthonormalize.

    ``P`` has orthonormal columns so ``P V`` is already orthonormal in
    exact arithmetic; one thin QR absorbs the accumulated roundoff of the
    chained products and keeps iterative eigensolvers' block
    orthogonality assumptions intact.
    """
    if block is None:
        return None
    lifted = np.asarray(block, dtype=np.float64)
    for prolongation in reversed(hierarchy.prolongations):
        lifted = prolongation @ lifted
    q, _ = np.linalg.qr(lifted)
    return np.ascontiguousarray(q)


def spectral_gradient(
    laplacians: Sequence[sp.spmatrix],
    weights: np.ndarray,
    eigenvalues: np.ndarray,
    vectors: np.ndarray,
    k: int,
    gamma: float,
) -> np.ndarray:
    """Exact ``grad h(w)`` from one eigensolve (Hellmann–Feynman).

    For a simple eigenvalue of ``L(w) = sum_i w_i L_i`` with unit
    eigenvector ``v_j``, ``d lambda_j / d w_i = v_j^T L_i v_j`` — the
    eigenvectors the solve already produced price the whole gradient at
    ``3 r`` matvecs, no extra eigensolves.  At a crossing the formula
    returns a subgradient, which the descent's backtracking absorbs.
    """
    lambda_k = float(eigenvalues[k - 1])
    lambda_k1 = max(float(eigenvalues[k]), _EIGENGAP_FLOOR)
    # Only lambda_2, lambda_k, lambda_{k+1} enter h.
    cols = np.ascontiguousarray(vectors[:, [1, k - 1, k]])
    gradient = np.empty(len(laplacians), dtype=np.float64)
    for i, laplacian in enumerate(laplacians):
        d2, dk, dk1 = np.einsum("nj,nj->j", cols, laplacian @ cols)
        gradient[i] = (
            (lambda_k1 * dk - lambda_k * dk1) / lambda_k1**2
            - d2
            + 2.0 * gamma * weights[i]
        )
    return gradient


def gradient_refine(
    laplacians: Sequence[sp.spmatrix],
    k: int,
    gamma: float,
    solver: SolverContext,
    start_weights: np.ndarray,
    xtol: float,
    max_solves: int,
    tol_ladder: bool = False,
) -> Tuple[np.ndarray, float, List[Tuple[np.ndarray, float]], int, bool]:
    """Projected Barzilai–Borwein descent of ``h`` on the simplex.

    Each iterate costs one full-size eigensolve (value + exact gradient);
    non-descent BB steps are backtracked.  Terminates when an accepted
    step moves no coordinate by more than ``xtol``, or at ``max_solves``.
    Returns ``(weights, value, history, n_solves, converged)``.

    With ``tol_ladder`` the eigensolve tolerance follows the last
    accepted step's movement, ``ladder_tolerance(movement, 0.25,
    xtol)``: coarse before the first accepted step and after large
    ones, backend default once steps shrink toward ``xtol``.  If the
    returned weights were solved coarse, one exact re-solve replaces
    their value, so the returned ``h`` is exact either way.  The
    solver's tolerance is restored on the way out.
    """

    def solve(weights: np.ndarray):
        matrix = aggregate_laplacians(laplacians, weights)
        tol = solver.tolerance_for(matrix.shape[0], k + 1)
        eigenvalues, vectors = solver.eigenpairs(matrix, k + 1)
        value = objective_components(eigenvalues, weights, k, gamma).value
        gradient = spectral_gradient(
            laplacians, weights, eigenvalues, vectors, k, gamma
        )
        return value, gradient, tol

    def retarget(movement: float) -> None:
        if tol_ladder:
            solver.set_tolerance(
                ladder_tolerance(movement, _LADDER_MOVEMENT_START, xtol)
            )

    prior_tol = solver.tol
    retarget(_LADDER_MOVEMENT_START)
    weights = np.asarray(start_weights, dtype=np.float64).copy()
    history: List[Tuple[np.ndarray, float]] = []
    value, gradient, value_tol = solve(weights)
    n_solves = 1
    history.append((weights.copy(), value))
    previous: Optional[Tuple[np.ndarray, np.ndarray]] = None
    step = 0.5
    converged = False
    while n_solves < max_solves:
        if previous is not None:
            dw = weights - previous[0]
            dg = gradient - previous[1]
            denominator = float(dw @ dg)
            if denominator > 1e-15:
                step = float(dw @ dw) / denominator
            step = float(np.clip(step, _STEP_MIN, _STEP_MAX))
        candidate = project_to_simplex(weights - step * gradient)
        cand_value, cand_gradient, cand_tol = solve(candidate)
        n_solves += 1
        history.append((candidate.copy(), cand_value))
        while cand_value > value + 1e-12 and n_solves < max_solves:
            step *= 0.25
            candidate = project_to_simplex(weights - step * gradient)
            cand_value, cand_gradient, cand_tol = solve(candidate)
            n_solves += 1
            history.append((candidate.copy(), cand_value))
            if step < _STEP_MIN:
                break
        if cand_value > value + 1e-12:
            # Even the shortest step fails to descend: at a kink or the
            # solution; stop with the incumbent.
            converged = True
            break
        movement = float(np.abs(candidate - weights).max())
        previous = (weights, gradient)
        weights, value, gradient = candidate, cand_value, cand_gradient
        value_tol = cand_tol
        if movement < xtol:
            converged = True
            break
        retarget(movement)
    if tol_ladder and value_tol > 0:
        # The incumbent's value came from a coarse solve: report an
        # exact one.
        solver.set_tolerance(0.0)
        value, _, _ = solve(weights)
        n_solves += 1
        history.append((weights.copy(), value))
    solver.set_tolerance(prior_tol)
    return weights, value, history, n_solves, converged


def multilevel_fit(
    data,
    k: Optional[int],
    config,
    solver: Optional[SolverContext],
    neighbor_stats,
    shard,
    start: float,
    plus: bool = False,
    delta_samples: int = 0,
):
    """Run the coarse-then-refine ladder; returns an ``SGLAResult``.

    The entry point behind ``SGLA._fit`` / ``SGLAPlus._fit`` when
    ``config.coarsen_levels > 0``; parameters mirror those methods.  The
    refine runs at most :data:`REFINE_EVALS` full-size eigensolves.
    """
    from repro.core.sgla import SGLA, SGLAResult, prepare_laplacians
    from repro.core.sgla_plus import SGLAPlus

    laplacians, k = prepare_laplacians(
        data, k, config, neighbor_stats=neighbor_stats, shard=shard
    )
    solver = solver or config.make_solver()
    stats = CoarsenStats()

    hierarchy_start = time.perf_counter()
    hierarchy = build_hierarchy(laplacians, k, config)
    stats.coarsen_seconds = time.perf_counter() - hierarchy_start
    stats.levels = list(hierarchy.sizes)

    flat_config = replace(config, coarsen_levels=0)
    fitter = SGLAPlus(flat_config) if plus else SGLA(flat_config)

    if hierarchy.n_levels == 0:
        # Nothing to coarsen (tiny problem or stalled aggregation): fall
        # through to the flat path on the already-built Laplacians.
        if plus:
            result = fitter._fit(
                laplacians, k, delta_samples, solver, neighbor_stats,
                shard, start,
            )
        else:
            result = fitter._fit(
                laplacians, k, solver, neighbor_stats, shard, start
            )
        result.coarsen_stats = stats
        return result

    # ---------------- coarse stage: the full machinery, downstairs ----- #
    coarse_solver = flat_config.make_solver()
    if plus:
        coarse_result = fitter.fit(
            hierarchy.coarse_laplacians,
            k=k,
            delta_samples=delta_samples,
            solver=coarse_solver,
            shard=shard,
        )
    else:
        coarse_result = fitter.fit(
            hierarchy.coarse_laplacians, k=k, solver=coarse_solver,
            shard=shard,
        )
    stats.coarse_solves = coarse_solver.stats.solves
    # Fold the coarse counters into the shared context so the caller's
    # solver line reports the whole run.
    solver.stats.merge(coarse_solver.stats)

    # Prolonged warm start: the coarse optimizer's final Ritz block,
    # lifted through the prolongation chain, seeds the fine eigensolves.
    coarse_n = hierarchy.sizes[-1]
    solver.seed_block(
        prolong_block(hierarchy, coarse_solver.warm_block(coarse_n))
    )

    # ---------------- fine stage: first-order polish at full size ------ #
    fine_before = solver.stats.solves
    if len(laplacians) == 1:
        weights = np.asarray(coarse_result.weights, dtype=np.float64)
        matrix = aggregate_laplacians(laplacians, weights)
        value = objective_components(
            solver.eigenvalues(matrix, k + 1), weights, k, config.gamma
        ).value
        refine_history = [(weights.copy(), value)]
        n_refine = 1
        converged = True
    else:
        xtol = max(config.eps / REFINE_XTOL_DIVISOR, REFINE_XTOL_FLOOR)
        weights, value, refine_history, n_refine, converged = gradient_refine(
            laplacians,
            k,
            config.gamma,
            solver,
            np.asarray(coarse_result.weights, dtype=np.float64),
            xtol=xtol,
            max_solves=REFINE_EVALS,
            tol_ladder=config.tol_ladder,
        )
    stats.fine_solves = solver.stats.solves - fine_before
    stats.refine_evaluations = n_refine

    laplacian = aggregate_laplacians(laplacians, weights)
    return SGLAResult(
        laplacian=laplacian,
        weights=weights,
        objective_value=value,
        history=coarse_result.history + refine_history,
        n_objective_evaluations=(
            coarse_result.n_objective_evaluations + n_refine
        ),
        converged=converged,
        elapsed_seconds=time.perf_counter() - start,
        solver_stats=solver.stats,
        neighbor_stats=neighbor_stats,
        coarsen_stats=stats,
    )
