"""SGLA — spectrum-guided Laplacian aggregation (paper Algorithm 1).

SGLA searches the view-weight simplex for the minimizer of the spectral
objective ``h(w)`` by driving a derivative-free constrained optimizer, with
one sparse eigensolve per objective evaluation.  Defaults mirror the paper:
``gamma = 0.5``, ``eps = 1e-3``, ``T_max = 50``, ``K = 10`` for attribute
KNN graphs, uniform initial weights.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.core.laplacian import build_view_laplacians
from repro.core.mvag import MVAG, is_mvag_like

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (repro.coarsen)
    from repro.coarsen.base import CoarsenStats
from repro.core.objective import SpectralObjective
from repro.neighbors import NeighborStats
from repro.optim.driver import minimize_on_simplex
from repro.shard import ShardContext, shard_scope
from repro.solvers import SolverContext, SolverStats, available_backends
from repro.utils.errors import ValidationError

InputLike = Union[MVAG, Sequence[sp.spmatrix]]


@dataclass(frozen=True)
class SGLAConfig:
    """Hyperparameters shared by SGLA and SGLA+ (paper Section VI-A).

    Attributes
    ----------
    gamma:
        Regularization coefficient in ``h(w)`` (paper default 0.5).
    eps:
        Termination threshold on weight movement / final trust radius
        (paper default 1e-3).
    t_max:
        Maximum number of objective-evaluation iterations (paper default 50).
    alpha_r:
        Ridge coefficient of the SGLA+ surrogate fit (paper default 0.05).
    knn_k:
        Neighbors for attribute-view KNN graphs (paper default 10).
    knn_backend:
        Neighbor-search backend for attribute-view KNN graphs (any
        :mod:`repro.neighbors` registry key or ``"auto"``; DESIGN.md §9).
        ``"exact"`` (default) is the paper's exhaustive construction;
        ``"rp-forest"`` switches to O(n log n) approximate search.
    knn_params:
        Backend-specific knobs (rp-forest ``n_trees`` / ``leaf_size`` /
        ``refine_iters`` / ``refine_fanout`` / ``sketch_dim``, exact-f32
        ``tie_margin``); a key the resolved backend does not accept is
        refused with a ``ValidationError`` at the first KNN build.
    eigen_backend:
        Eigensolver dispatch: ``"auto"`` (default) or any
        :mod:`repro.solvers` registry key; any other name is rejected
        here, before the run builds or caches anything.
    solver_workers:
        Thread budget of the exact kNN builds' similarity blocks
        (``exact`` / ``exact-f32``); they thread only above one block
        (2048 nodes) and when this is ``> 1``.  ``None`` (default)
        builds serially.
    rho_start:
        Initial trust radius of the optimizer.
    surrogate_max_evaluations:
        Evaluation budget when minimizing the (cheap) SGLA+ surrogate;
        surrogate evaluations cost O(r^2), so a budget above ``t_max``
        is essentially free.
    seed:
        Determinism seed threaded through eigensolvers and optimizers.
    warm_start:
        Seed each iterative eigensolve with the previous evaluation's
        Ritz vectors; disable to isolate warm-start effects or to force
        cold starts on pathological spectra.
    tol_ladder:
        Adaptive-precision eigensolving (DESIGN.md §8), on by default:
        map the optimizer's current trust radius to the eigensolve
        tolerance — ``LADDER_COARSE_TOL`` at ``rho_start``, backend
        default as the radius reaches ``eps`` — and re-evaluate the
        incumbent at full precision at the end, so the reported
        ``h(w*)`` is exact.  Saves matvecs on the early optimizer
        iterations; ``w*`` moves by up to ~1e-6.  SGLA+ uses it for its
        sampling stage, and the multilevel refine keys it to its step
        movement (DESIGN.md §12).  Solves that resolve to ``dense`` are
        exact at any tolerance, so where the loop runs dense (``auto``
        at n <= 300, or ``eigen_backend="dense"``) the ladder changes
        nothing.  ``False`` runs every solve at the backend
        default: the fixed-tolerance reference.
    shard_workers:
        Process budget of the sharded execution subsystem (DESIGN.md
        §10).  ``None`` / ``0`` disables sharding entirely (the classic
        in-process pipeline); ``1`` selects the shard execution plan but
        runs it serially in-process (the determinism reference); ``>= 2``
        fans view Laplacian builds and SGLA+ weight-batch eigensolves
        out over a persistent process pool with shared-memory payload
        transfer.  Results are bit-identical for every value ``>= 1``.
    shard_retries:
        Retry attempts beyond the first for failed or timed-out shards
        (DESIGN.md §11; default 2 = three attempts).  Each retry
        re-dispatches only the still-pending items, onto a freshly
        forked pool if the old one died or hung.
    shard_deadline:
        Per-attempt shard deadline in seconds (``None`` waits
        indefinitely).  Each retry gets a fresh budget; once the
        retries are exhausted the dispatch raises a structured
        :class:`~repro.utils.errors.ShardError`.
    coarsen_levels:
        Depth of the multilevel ladder (DESIGN.md §12).  ``0`` (default)
        is the flat path — bit-identical to configurations that predate
        coarsening.  ``>= 1`` Galerkin-coarsens the view Laplacians up
        to that many levels by landmark aggregation, optimizes ``w`` at
        the coarsest level with the full SGLA / SGLA+ machinery, then
        refines at full size from the coarse optimum with prolonged
        warm-start blocks.  The ladder's other settings are constants
        of :mod:`repro.coarsen` (DESIGN.md §12).
    """

    gamma: float = 0.5
    eps: float = 1e-3
    t_max: int = 50
    alpha_r: float = 0.05
    knn_k: int = 10
    knn_backend: str = "exact"
    knn_params: Optional[dict] = None
    eigen_backend: str = "auto"
    solver_workers: Optional[int] = None
    rho_start: float = 0.25
    surrogate_max_evaluations: int = 200
    seed: int = 0
    warm_start: bool = True
    tol_ladder: bool = True
    shard_workers: Optional[int] = None
    shard_retries: int = 2
    shard_deadline: Optional[float] = None
    coarsen_levels: int = 0

    def __post_init__(self) -> None:
        if self.eps <= 0:
            raise ValidationError(f"eps must be positive, got {self.eps}")
        if self.t_max < 1:
            raise ValidationError(f"t_max must be >= 1, got {self.t_max}")
        if self.alpha_r < 0:
            raise ValidationError(f"alpha_r must be >= 0, got {self.alpha_r}")
        if self.knn_k < 1:
            raise ValidationError(f"knn_k must be >= 1, got {self.knn_k}")
        eigen_backends = ("auto",) + available_backends()
        if self.eigen_backend not in eigen_backends:
            raise ValidationError(
                f"unknown eigen_backend {self.eigen_backend!r}; "
                f"available: {', '.join(eigen_backends)}"
            )
        if self.shard_workers is not None and self.shard_workers < 0:
            raise ValidationError(
                f"shard_workers must be >= 0, got {self.shard_workers}"
            )
        if self.shard_retries < 0:
            raise ValidationError(
                f"shard_retries must be >= 0, got {self.shard_retries}"
            )
        if self.shard_deadline is not None and self.shard_deadline <= 0:
            raise ValidationError(
                f"shard_deadline must be positive, "
                f"got {self.shard_deadline}"
            )
        if self.coarsen_levels < 0:
            raise ValidationError(
                f"coarsen_levels must be >= 0, got {self.coarsen_levels}"
            )

    def make_solver(self) -> SolverContext:
        """A fresh :class:`repro.solvers.SolverContext` for one run."""
        return SolverContext(
            method=self.eigen_backend,
            seed=self.seed,
            warm_start=self.warm_start,
        )

    def make_shard(self) -> Optional[ShardContext]:
        """A fresh :class:`repro.shard.ShardContext` for one run.

        ``None`` when sharding is disabled (``shard_workers`` unset or
        0); the caller that creates the context owns its :meth:`~repro.
        shard.ShardContext.close` (the pipeline entry points do this
        automatically when no context is passed in).
        """
        if not self.shard_workers:
            return None
        return ShardContext(
            workers=self.shard_workers,
            retries=self.shard_retries,
            timeout=self.shard_deadline,
        )


@dataclass
class SGLAResult:
    """Output of an SGLA / SGLA+ run.

    Attributes
    ----------
    laplacian:
        The integrated MVAG Laplacian ``L(w*)``.
    weights:
        The selected view weights ``w*`` on the simplex.
    objective_value:
        ``h(w*)``.
    history:
        Chronological ``(weights, objective_value)`` evaluations — the
        convergence trace used for the paper's Fig. 7.
    n_objective_evaluations:
        Distinct expensive (eigensolve) objective evaluations performed.
    converged:
        Whether the eps-termination criterion was met within ``t_max``.
    elapsed_seconds:
        Wall-clock time of ``fit``.
    solver_stats:
        Eigensolve counters of the run's :class:`~repro.solvers.
        SolverContext` (``None`` for paths that performed no solves).
    neighbor_stats:
        KNN-build counters of the run (``None`` when the input was a
        pre-built Laplacian sequence, which performs no graph builds).
    coarsen_stats:
        Multilevel-ladder counters (``None`` on the flat path, i.e.
        ``coarsen_levels == 0``).
    """

    laplacian: sp.csr_matrix
    weights: np.ndarray
    objective_value: float
    history: List[Tuple[np.ndarray, float]] = field(default_factory=list)
    n_objective_evaluations: int = 0
    converged: bool = False
    elapsed_seconds: float = 0.0
    solver_stats: Optional[SolverStats] = None
    neighbor_stats: Optional[NeighborStats] = None
    coarsen_stats: Optional["CoarsenStats"] = None


def prepare_laplacians(
    data: InputLike,
    k: Optional[int],
    config: SGLAConfig,
    neighbor_stats: Optional[NeighborStats] = None,
    shard: Optional[ShardContext] = None,
) -> Tuple[List[sp.csr_matrix], int]:
    """Normalize solver input into (view Laplacians, cluster count).

    ``data`` may be an :class:`MVAG` (views are converted to Laplacians
    using ``config.knn_k`` through the ``config.knn_backend`` neighbor
    search, with build counters recorded into ``neighbor_stats``) or a
    pre-built sequence of view Laplacians.  ``k`` defaults to the MVAG's
    label count when available.  With a ``shard`` context the per-view
    builds are partitioned over its process pool (bit-identical output).
    """
    if is_mvag_like(data):
        laplacians = build_view_laplacians(
            data,
            knn_k=config.knn_k,
            workers=config.solver_workers,
            knn_backend=config.knn_backend,
            knn_params=config.knn_params,
            neighbor_stats=neighbor_stats,
            shard=shard,
        )
        if k is None:
            k = data.n_classes
        if k is None:
            raise ValidationError(
                "k must be given when the MVAG has no ground-truth labels"
            )
        return laplacians, int(k)
    laplacians = list(data)
    if not laplacians:
        raise ValidationError("need at least one view Laplacian")
    if k is None:
        raise ValidationError("k must be given when passing raw Laplacians")
    return laplacians, int(k)


class SGLA:
    """The base spectrum-guided Laplacian aggregation solver (Algorithm 1).

    Example
    -------
    >>> from repro.datasets import generate_mvag
    >>> mvag = generate_mvag(n_nodes=60, n_clusters=2, seed=1,
    ...                      graph_view_strengths=[0.8, 0.2])
    >>> result = SGLA().fit(mvag)
    >>> result.weights.shape
    (3,)
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
        solver: Optional[SolverContext] = None,
        neighbor_stats: Optional[NeighborStats] = None,
        shard: Optional[ShardContext] = None,
    ) -> SGLAResult:
        """Run Algorithm 1 and return the integrated Laplacian and weights.

        ``solver`` optionally shares a :class:`repro.solvers.SolverContext`
        (warm-start blocks + statistics) with the caller; by default a
        fresh context is built from the config.  ``neighbor_stats``
        likewise shares the KNN-build counters (a fresh one is created
        when the input is an MVAG).  ``shard`` optionally shares a
        :class:`repro.shard.ShardContext` (persistent process pool +
        dispatch stats); by default one is built from the config when
        ``shard_workers`` is set, and closed before returning.
        """
        start = time.perf_counter()
        with shard_scope(self.config, shard) as scoped:
            return self._fit(data, k, solver, neighbor_stats, scoped, start)

    def _fit(
        self,
        data: InputLike,
        k: Optional[int],
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
                data, k, config, solver, neighbor_stats, shard, start
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
        use_ladder = config.tol_ladder
        prior_tol = solver.tol
        if use_ladder:
            objective.enable_tolerance_ladder(config.rho_start, config.eps)
        outcome = minimize_on_simplex(
            objective,
            r=objective.r,
            rho_start=config.rho_start,
            rho_end=config.eps,
            max_evaluations=config.t_max,
            seed=config.seed,
            rho_listener=(
                objective.set_trust_radius if use_ladder else None
            ),
        )
        value = outcome.value
        if use_ladder:
            # Exactness guarantee: the search may have run coarse, but the
            # reported optimum is a full-precision evaluation (a cached
            # exact value, or a re-solve of a coarse one); the
            # shared solver context is then restored to the caller's
            # configured tolerance (the default 0 = full precision) for
            # the clustering / embedding stages that follow.
            value = objective.evaluate_exact(outcome.weights).value
            solver.set_tolerance(prior_tol)
        laplacian = objective.aggregate(outcome.weights)
        elapsed = time.perf_counter() - start
        return SGLAResult(
            laplacian=laplacian,
            weights=outcome.weights,
            objective_value=value,
            history=outcome.history,
            n_objective_evaluations=objective.n_evaluations,
            converged=outcome.converged,
            elapsed_seconds=elapsed,
            solver_stats=solver.stats,
            neighbor_stats=neighbor_stats,
        )
