"""High-level integration front end and the Fig. 11 alternative integrators.

:func:`integrate` turns an MVAG, or its prebuilt view Laplacians, into a
single integrated Laplacian using one of six strategies:

* ``"sgla"`` / ``"sgla+"`` — the paper's solvers (full objective);
* ``"eigengap"`` / ``"connectivity"`` — single-objective ablations;
* ``"equal"`` — uniform view weights (Equal-w in Fig. 11);
* ``"graph-agg"`` — normalized Laplacian of the plain adjacency sum
  (Graph-Agg in Fig. 11); the one strategy that needs the MVAG itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core.laplacian import (
    aggregate_adjacencies,
    aggregate_laplacians,
    normalized_laplacian,
)
from repro.core.mvag import is_mvag_like
from repro.core.objective import SpectralObjective, objective_variant
from repro.core.sgla import SGLA, InputLike, SGLAConfig, prepare_laplacians
from repro.core.sgla_plus import SGLAPlus
from repro.neighbors import NeighborStats
from repro.optim.driver import minimize_on_simplex
from repro.shard import ShardContext, shard_scope
from repro.solvers import SolverContext, SolverStats
from repro.utils.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (repro.coarsen)
    from repro.coarsen.base import CoarsenStats

INTEGRATION_METHODS = (
    "sgla",
    "sgla+",
    "eigengap",
    "connectivity",
    "equal",
    "graph-agg",
)


@dataclass
class IntegrationResult:
    """An integrated MVAG Laplacian plus provenance."""

    laplacian: sp.csr_matrix
    weights: Optional[np.ndarray]  # None for graph-agg (weights undefined)
    method: str
    objective_value: Optional[float] = None
    history: List[Tuple[np.ndarray, float]] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    solver_stats: Optional[SolverStats] = None
    neighbor_stats: Optional[NeighborStats] = None
    coarsen_stats: Optional["CoarsenStats"] = None


def integrate(
    data: InputLike,
    k: Optional[int] = None,
    method: str = "sgla+",
    config: Optional[SGLAConfig] = None,
    solver: Optional[SolverContext] = None,
    neighbor_stats: Optional[NeighborStats] = None,
    shard: Optional[ShardContext] = None,
) -> IntegrationResult:
    """Integrate all views of ``data`` into one Laplacian.

    Parameters
    ----------
    data:
        The multi-view attributed graph, or its prebuilt view Laplacians
        (then every method that weighs the views by ``h(w)`` needs
        ``k``, and ``"graph-agg"``, which sums raw adjacencies, raises
        ``ValidationError``).
    k:
        Number of clusters (defaults to the MVAG's label count).
    method:
        One of :data:`INTEGRATION_METHODS`.
    config:
        Solver hyperparameters (paper defaults when omitted).
    solver:
        Optional shared :class:`repro.solvers.SolverContext` carrying
        warm-start state and statistics across pipeline stages; built
        from the config when omitted.
    neighbor_stats:
        Optional shared :class:`repro.neighbors.NeighborStats`
        accumulating the KNN-build counters of the attribute views
        (created fresh when omitted, and attached to the result).
    shard:
        Optional shared :class:`repro.shard.ShardContext` partitioning
        view builds and weight-batch eigensolves over a process pool
        (DESIGN.md §10); built from the config when omitted and
        ``config.shard_workers`` is set, and closed before returning in
        that case.
    """
    if method not in INTEGRATION_METHODS:
        raise ValidationError(
            f"method must be one of {INTEGRATION_METHODS}, got {method!r}"
        )
    if method == "graph-agg" and not is_mvag_like(data):
        raise ValidationError(
            "graph-agg sums the raw view adjacencies, so it needs the "
            "MVAG, not its view Laplacians"
        )
    config = config or SGLAConfig()
    with shard_scope(config, shard) as scoped:
        return _integrate(
            data, k, method, config, solver, neighbor_stats, scoped
        )


def _integrate(
    data: InputLike,
    k: Optional[int],
    method: str,
    config: SGLAConfig,
    solver: Optional[SolverContext],
    neighbor_stats: Optional[NeighborStats],
    shard: Optional[ShardContext],
) -> IntegrationResult:
    if neighbor_stats is None:
        neighbor_stats = NeighborStats()
    start = time.perf_counter()

    if method == "sgla":
        result = SGLA(config).fit(
            data, k=k, solver=solver, neighbor_stats=neighbor_stats,
            shard=shard,
        )
        return IntegrationResult(
            laplacian=result.laplacian,
            weights=result.weights,
            method=method,
            objective_value=result.objective_value,
            history=result.history,
            elapsed_seconds=result.elapsed_seconds,
            solver_stats=result.solver_stats,
            neighbor_stats=result.neighbor_stats,
            coarsen_stats=result.coarsen_stats,
        )
    if method == "sgla+":
        result = SGLAPlus(config).fit(
            data, k=k, solver=solver, neighbor_stats=neighbor_stats,
            shard=shard,
        )
        return IntegrationResult(
            laplacian=result.laplacian,
            weights=result.weights,
            method=method,
            objective_value=result.objective_value,
            history=result.history,
            elapsed_seconds=result.elapsed_seconds,
            solver_stats=result.solver_stats,
            neighbor_stats=result.neighbor_stats,
            coarsen_stats=result.coarsen_stats,
        )
    if method in ("eigengap", "connectivity"):
        return _single_objective(
            data, k, method, config, start, solver, neighbor_stats, shard
        )
    if method == "equal":
        # Equal weights ignore k; any count lets an unlabeled MVAG or a
        # bare Laplacian list through prepare_laplacians' check.
        laplacians, _ = prepare_laplacians(
            data, k or 2, config,
            neighbor_stats=neighbor_stats, shard=shard,
        )
        weights = np.full(len(laplacians), 1.0 / len(laplacians))
        laplacian = aggregate_laplacians(laplacians, weights)
        return IntegrationResult(
            laplacian=laplacian,
            weights=weights,
            method=method,
            elapsed_seconds=time.perf_counter() - start,
            neighbor_stats=neighbor_stats,
        )
    # graph-agg: sum raw adjacencies, then take one normalized Laplacian.
    summed = aggregate_adjacencies(
        data,
        knn_k=config.knn_k,
        knn_backend=config.knn_backend,
        knn_params=config.knn_params,
        neighbor_stats=neighbor_stats,
    )
    laplacian = normalized_laplacian(summed)
    return IntegrationResult(
        laplacian=laplacian,
        weights=None,
        method=method,
        elapsed_seconds=time.perf_counter() - start,
        neighbor_stats=neighbor_stats,
    )


def _single_objective(
    data: InputLike,
    k: Optional[int],
    variant: str,
    config: SGLAConfig,
    start: float,
    solver: Optional[SolverContext] = None,
    neighbor_stats: Optional[NeighborStats] = None,
    shard: Optional[ShardContext] = None,
) -> IntegrationResult:
    """Optimize the eigengap-only or connectivity-only objective (Fig. 11)."""
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
    func = objective_variant(objective, variant)
    outcome = minimize_on_simplex(
        func,
        r=objective.r,
        rho_start=config.rho_start,
        rho_end=config.eps,
        max_evaluations=config.t_max,
        seed=config.seed,
    )
    laplacian = objective.aggregate(outcome.weights)
    return IntegrationResult(
        laplacian=laplacian,
        weights=outcome.weights,
        method=variant,
        objective_value=outcome.value,
        history=outcome.history,
        elapsed_seconds=time.perf_counter() - start,
        solver_stats=solver.stats,
        neighbor_stats=neighbor_stats,
    )
