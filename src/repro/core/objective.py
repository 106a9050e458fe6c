"""The spectrum-guided objective ``h(w)`` (paper Section IV).

The full objective (Eq. 5) combines:

* the **eigengap objective** ``g_k(L) = lambda_k(L) / lambda_{k+1}(L)``
  (Eq. 2) — small when the aggregated Laplacian exhibits ``k`` well-formed
  clusters (higher-order Cheeger, Corollary 1.1);
* the **connectivity objective** ``lambda_2(L)`` — large when the
  aggregation has no connectivity bottleneck (Cheeger bound, Eq. 4); it
  enters with a negative sign because ``h`` is minimized;
* a regularizer ``gamma * sum_i w_i^2`` that discourages collapsing all
  weight onto a single view.

:class:`SpectralObjective` evaluates ``h`` for candidate view weights,
caching repeated evaluations (derivative-free optimizers frequently revisit
points) and counting the *distinct* expensive eigensolves performed — the
quantity SGLA+ is designed to reduce.

Evaluation runs on the **fast path** (DESIGN.md §6): the view Laplacians
are stacked once on their union sparsity pattern
(:class:`repro.core.fastpath.StackedLaplacians`), each ``L(w)`` is produced
by a single GEMV into a preallocated CSR, and iterative eigensolves are
warm-started from the previous evaluation's Ritz vectors (optimizer steps
move weights slightly, so consecutive spectra are close).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core.fastpath import StackedLaplacians
from repro.shard.api import shard_objective_batch
from repro.solvers import SolverContext
from repro.utils.errors import ValidationError
from repro.utils.validation import check_weights

# Guard against division by a numerically-zero lambda_{k+1} (e.g. a graph
# with more than k connected components under some weighting).
_EIGENGAP_FLOOR = 1e-12

#: ladder tolerances at or below this are snapped to the backend default
#: (0 = machine precision where supported).
LADDER_TIGHT_TOL = 1e-8

#: eigensolve tolerance of the ladder's coarsest rung (at ``rho_start``).
LADDER_COARSE_TOL = 1e-5


def ladder_tolerance(
    rho: float,
    rho_start: float,
    rho_end: float,
    coarse_tol: float = LADDER_COARSE_TOL,
    tight_tol: float = LADDER_TIGHT_TOL,
) -> float:
    """Map a trust radius to an eigensolve tolerance (the rho→tol rung).

    Geometric interpolation on the log scale: ``coarse_tol`` at
    ``rho_start``, tightening as the radius contracts, snapping to the
    backend default (0) once the interpolant reaches ``tight_tol`` —
    i.e. as ``rho → rho_end`` (the paper's ``eps``).  Rationale: a
    trust-region step is accepted on an objective *difference* of order
    ``rho * |gradient|``, so while the radius is large an eigensolve
    error well below that difference cannot change the accept/reject
    decision — precision beyond it is wasted matvecs.
    """
    if rho_end <= 0 or rho_start <= rho_end:
        return 0.0
    if rho >= rho_start:
        return float(coarse_tol)
    if rho <= rho_end:
        return 0.0
    frac = (np.log(rho) - np.log(rho_end)) / (
        np.log(rho_start) - np.log(rho_end)
    )
    tol = tight_tol * (coarse_tol / tight_tol) ** frac
    return float(tol) if tol > tight_tol else 0.0


@dataclass(frozen=True)
class ObjectiveComponents:
    """Breakdown of one objective evaluation."""

    eigengap: float  # g_k(L) = lambda_k / lambda_{k+1}
    connectivity: float  # lambda_2(L)
    regularization: float  # gamma * sum w_i^2
    value: float  # h(w) = eigengap - connectivity + regularization
    eigenvalues: np.ndarray  # bottom k+1 eigenvalues of L(w)


def objective_components(
    eigenvalues: np.ndarray, weights: np.ndarray, k: int, gamma: float
) -> ObjectiveComponents:
    """``h(w)`` and its parts from the bottom ``k + 1`` eigenvalues of
    ``L(w)`` — the one formula behind :class:`SpectralObjective` and the
    multilevel refine (:mod:`repro.coarsen.ladder`)."""
    lambda_2 = float(eigenvalues[1]) if eigenvalues.size > 1 else 0.0
    lambda_k = float(eigenvalues[k - 1])
    lambda_k1 = float(eigenvalues[k])
    eigengap = lambda_k / max(lambda_k1, _EIGENGAP_FLOOR)
    regularization = gamma * float(np.dot(weights, weights))
    value = eigengap - lambda_2 + regularization
    return ObjectiveComponents(
        eigengap=eigengap,
        connectivity=lambda_2,
        regularization=regularization,
        value=value,
        eigenvalues=eigenvalues,
    )


class SpectralObjective:
    """Evaluator of the full objective ``h(w)`` over fixed view Laplacians.

    Parameters
    ----------
    laplacians:
        The ``r`` view Laplacians ``L_1..L_r`` (sparse, spectrum in [0,2]).
    k:
        Number of clusters/classes (drives which eigengap is measured).
    gamma:
        Regularization coefficient (paper default 0.5).
    eigen_method:
        Backend key resolved through the :mod:`repro.solvers` registry
        (ignored when an explicit ``solver`` context is supplied).
    cache:
        Whether to memoize evaluations by (rounded) weight vector.
    seed:
        Seed for iterative eigensolver start vectors (determinism).
    warm_start:
        Seed each iterative eigensolve with the previous evaluation's
        Ritz vectors.
    solver:
        Optional shared :class:`repro.solvers.SolverContext`.  When given
        it owns backend choice, warm-start blocks, and statistics (the
        ``eigen_method`` / ``warm_start`` arguments are then ignored);
        when omitted a private context is built from those arguments.
    shard:
        Optional :class:`repro.shard.ShardContext`.  When given,
        :meth:`evaluate_batch` partitions its distinct eigensolves over
        the context's process pool, every row seeded from the first
        row's Ritz block (DESIGN.md §10) — bit-identical for every
        worker count, including the in-process serial fallback.  Single
        evaluations are never sharded.
    """

    def __init__(
        self,
        laplacians: Sequence[sp.spmatrix],
        k: int,
        gamma: float = 0.5,
        eigen_method: str = "auto",
        cache: bool = True,
        seed=0,
        warm_start: bool = True,
        solver: Optional[SolverContext] = None,
        shard=None,
    ) -> None:
        if len(laplacians) == 0:
            raise ValidationError("need at least one view Laplacian")
        n = laplacians[0].shape[0]
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        if k + 1 > n:
            raise ValidationError(
                f"k + 1 = {k + 1} eigenvalues requested but graph has {n} nodes"
            )
        self.laplacians = list(laplacians)
        self.k = int(k)
        self.gamma = float(gamma)
        self.seed = seed
        if solver is None:
            solver = SolverContext(
                method=eigen_method, seed=seed, warm_start=warm_start
            )
        self.solver = solver
        self.shard = shard
        self.eigen_method = solver.method
        self.warm_start = solver.warm_start
        self._cache_enabled = bool(cache)
        # key -> (eigensolve tolerance the entry was computed at, value);
        # entries are only served when at least as tight as the current
        # target, so the ladder never reuses stale coarse values after
        # the trust region has tightened (see _cache_lookup).  Dense
        # solves are exact at any target and are tagged 0.
        self._cache: Dict[
            Tuple[int, ...], Tuple[float, ObjectiveComponents]
        ] = {}
        self._stack: Optional[StackedLaplacians] = None
        self._ladder: Optional[Tuple[float, float, float]] = None
        self.n_evaluations = 0  # distinct (uncached) eigensolve evaluations

    @property
    def r(self) -> int:
        """Number of views."""
        return len(self.laplacians)

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self.laplacians[0].shape[0]

    # ------------------------------------------------------------------ #
    # Fast-path plumbing
    # ------------------------------------------------------------------ #

    @property
    def stack(self) -> StackedLaplacians:
        """The shared-pattern Laplacian stack (built lazily, once)."""
        if self._stack is None:
            self._stack = StackedLaplacians(self.laplacians)
        return self._stack

    def _resolved_eigen_method(self) -> str:
        """The backend the solver context will dispatch to."""
        return self.solver.resolve(self.n, self.k + 1)

    def _solve(self, weights: np.ndarray) -> np.ndarray:
        """One eigensolve for ``L(w)``; the hot inner call."""
        return self._solve_prepared(
            self.stack.combine(weights), self._resolved_eigen_method()
        )

    def _solve_prepared(self, laplacian, method: str) -> np.ndarray:
        """Eigenvalues of an already-aggregated ``L(w)`` on ``method``.

        A dense solve computes values only (it ignores start vectors, so
        it neither reads nor refreshes a warm block); an iterative one
        takes the context's warm-start Ritz block and refreshes it from
        its vectors when warm starting is enabled.
        """
        if method == "dense":
            return self.solver.eigenvalues(
                laplacian, self.k + 1, method="dense", warm=False
            )
        return self.solver.eigenvalues(laplacian, self.k + 1, method=method)

    # ------------------------------------------------------------------ #
    # Adaptive-precision tolerance ladder (DESIGN.md §8)
    # ------------------------------------------------------------------ #

    def enable_tolerance_ladder(
        self,
        rho_start: float,
        rho_end: float,
        coarse_tol: float = LADDER_COARSE_TOL,
    ) -> None:
        """Couple this objective's eigensolve tolerance to the optimizer.

        Once enabled, :meth:`set_trust_radius` (wired as the optimizer's
        ``rho_listener``) retargets the shared solver context through
        :func:`ladder_tolerance` — coarse at ``rho_start``, backend
        default as ``rho → rho_end``.  Callers must finish a ladder run
        with :meth:`evaluate_exact` on the incumbent so the reported
        optimum is computed at full precision.
        """
        self._ladder = (float(rho_start), float(rho_end), float(coarse_tol))
        self.solver.set_tolerance(
            ladder_tolerance(rho_start, *self._ladder)
        )

    def set_trust_radius(self, rho: float) -> None:
        """Optimizer hook: adapt eigensolve precision to the radius.

        No-op unless :meth:`enable_tolerance_ladder` was called, so it is
        always safe to wire as ``rho_listener``.
        """
        if self._ladder is None:
            return
        self.solver.set_tolerance(ladder_tolerance(rho, *self._ladder))

    def evaluate_exact(self, weights) -> ObjectiveComponents:
        """Evaluate ``h(w)`` at the backend-default (full) precision.

        Leaves the solver context at full precision, so everything
        downstream of the optimizer — the final aggregation, clustering,
        embedding — runs exact.  This is the ladder's exactness
        guarantee: whatever precision the search ran at, the reported
        ``h(w*)`` comes from a full-precision eigensolve.  A cached
        value that is already exact (tagged 0, e.g. every dense solve)
        is served as is; a coarse one is refused by the
        tolerance-tagged cache and re-solved.
        """
        weights = check_weights(weights, r=self.r)
        self.solver.set_tolerance(0.0)
        return self.components(weights)

    # ------------------------------------------------------------------ #

    def aggregate(self, weights) -> sp.csr_matrix:
        """The MVAG Laplacian ``L(w)`` for the given weights (Eq. 1)."""
        return self.stack.aggregate(check_weights(weights, r=self.r))

    def _cache_lookup(self, key) -> Optional[ObjectiveComponents]:
        """A cached value, but only if computed at least as tight as the
        current solver tolerance (0 = machine precision, the tightest).

        Serving a coarse entry after the ladder has tightened would pit
        stale 1e-5-error values against fresh near-exact ones in the
        optimizer's accept/reject comparisons; instead such entries are
        recomputed (and overwritten) at the tighter target.
        """
        if not self._cache_enabled:
            return None
        entry = self._cache.get(key)
        if entry is None:
            return None
        entry_tol, components = entry
        current = self.solver.tol
        if entry_tol == 0.0 or (current > 0.0 and entry_tol <= current):
            return components
        return None

    def _cache_store(self, key, components: ObjectiveComponents) -> None:
        if self._cache_enabled:
            tol = self.solver.tolerance_for(self.n, self.k + 1)
            self._cache[key] = (tol, components)

    def components(self, weights) -> ObjectiveComponents:
        """Evaluate ``h(w)`` and return the full component breakdown."""
        weights = check_weights(weights, r=self.r)
        key = self._cache_key(weights)
        cached = self._cache_lookup(key)
        if cached is not None:
            self.solver.note_saved()
            return cached

        eigenvalues = self._solve(weights)
        self.n_evaluations += 1
        result = objective_components(
            eigenvalues, weights, self.k, self.gamma
        )
        self._cache_store(key, result)
        return result

    def evaluate_batch(
        self, batch: Sequence
    ) -> Tuple[List[ObjectiveComponents], int]:
        """Evaluate many weight vectors at once.

        Deduplicates points by cache key, aggregates the distinct ``L(w)``
        data rows chunk-by-chunk with one GEMM per chunk
        (:meth:`repro.core.fastpath.StackedLaplacians.combine_many`,
        chunk size from :meth:`~repro.core.fastpath.StackedLaplacians.
        batch_rows` so peak memory stays bounded and each chunk's rows are
        solved before the next is materialized), and warm-starts each
        eigensolve from the previous point in the batch (adjacent points —
        e.g. neighboring grid nodes of a surface sweep — have nearby
        spectra), on the backend :meth:`components` would use.  With a
        shard context the distinct rows are partitioned over its process
        pool instead (:func:`repro.shard.api.shard_objective_batch`).

        Returns ``(components, n_eigensolves)`` where ``n_eigensolves`` is
        the number of eigensolves actually performed for this batch (cache
        hits and duplicates cost none).
        """
        points = [check_weights(w, r=self.r) for w in batch]
        results: List[Optional[ObjectiveComponents]] = [None] * len(points)
        pending: Dict[Tuple[int, ...], List[int]] = {}
        for i, weights in enumerate(points):
            key = self._cache_key(weights)
            cached = self._cache_lookup(key)
            if cached is not None:
                results[i] = cached
            else:
                pending.setdefault(key, []).append(i)

        n_solves = 0
        if pending:
            unique = list(pending.items())
            weight_rows = np.asarray([points[ids[0]] for _, ids in unique])
            method = self._resolved_eigen_method()
            if self.shard is not None:
                # Sharded batch (DESIGN.md §10): the seed row is solved
                # in-parent and its Ritz block seeds every other row, so
                # each row is an independent problem dispatched over the
                # shard context and the values are bit-identical for
                # every worker count.
                # Chunking, seeding, and per-solve stats recording
                # happen in :func:`repro.shard.api.shard_objective_batch`.
                value_rows = shard_objective_batch(
                    self.stack, weight_rows, self.k + 1, method,
                    self.solver, self.shard,
                )
                n_solves += self._store_solved_rows(
                    value_rows, unique, points, results
                )
            else:
                chunk = self.stack.batch_rows()
                for start in range(0, len(unique), chunk):
                    data_rows = self.stack.combine_many(
                        weight_rows[start : start + chunk]
                    )
                    value_rows = [
                        self._solve_prepared(self.stack.with_data(row), method)
                        for row in data_rows
                    ]
                    n_solves += self._store_solved_rows(
                        value_rows, unique[start : start + chunk], points,
                        results,
                    )
        self.solver.note_saved(len(points) - n_solves)
        return list(results), n_solves

    def _store_solved_rows(
        self, value_rows, items, points, results
    ) -> int:
        """Fold solved eigenvalue rows into components, cache, results.

        The single accounting point shared by the sharded and
        in-process batch branches: one ``n_evaluations`` tick, one
        tolerance-tagged cache store, and the duplicate fan-out per
        distinct weight vector.  Returns the number of rows absorbed.
        """
        for eigenvalues, (key, indices) in zip(value_rows, items):
            weights = points[indices[0]]
            self.n_evaluations += 1
            component = objective_components(
                eigenvalues, weights, self.k, self.gamma
            )
            self._cache_store(key, component)
            for i in indices:
                results[i] = component
        return len(value_rows)

    def __call__(self, weights) -> float:
        """Evaluate ``h(w)`` (Eq. 5)."""
        return self.components(weights).value

    # ------------------------------------------------------------------ #
    # Single-objective variants (the Fig. 11 ablations)
    # ------------------------------------------------------------------ #

    def eigengap_only(self, weights) -> float:
        """``g_k(L) + gamma * |w|^2`` — the eigengap-only ablation."""
        parts = self.components(weights)
        return parts.eigengap + parts.regularization

    def connectivity_only(self, weights) -> float:
        """``-lambda_2(L) + gamma * |w|^2`` — the connectivity-only ablation."""
        parts = self.components(weights)
        return -parts.connectivity + parts.regularization

    # ------------------------------------------------------------------ #

    def clear_cache(self) -> None:
        """Forget memoized evaluations (keeps the evaluation counter)."""
        self._cache.clear()

    @staticmethod
    def _cache_key(weights: np.ndarray) -> Tuple[int, ...]:
        # Round to 1e-12 resolution: distinct enough for optimization,
        # coarse enough to absorb floating-point noise in revisits.
        return tuple(np.round(weights * 1e12).astype(np.int64).tolist())


def objective_variant(
    objective: SpectralObjective, variant: str
):
    """Return a callable ``w -> value`` for a named objective variant.

    ``variant`` is one of ``"full"``, ``"eigengap"``, ``"connectivity"``.
    """
    if variant == "full":
        return objective
    if variant == "eigengap":
        return objective.eigengap_only
    if variant == "connectivity":
        return objective.connectivity_only
    raise ValidationError(f"unknown objective variant {variant!r}")


def _variant_value(parts: ObjectiveComponents, variant: str) -> float:
    """The scalar a named variant would return, from a solved breakdown."""
    if variant == "full":
        return parts.value
    if variant == "eigengap":
        return parts.eigengap + parts.regularization
    if variant == "connectivity":
        return -parts.connectivity + parts.regularization
    raise ValidationError(f"unknown objective variant {variant!r}")


def objective_surface(
    objective: SpectralObjective,
    resolution: float = 0.05,
    variant: str = "full",
) -> Optional[dict]:
    """Dense sweep of ``h`` over the simplex for 2- or 3-view MVAGs.

    Reproduces the data behind the paper's Fig. 2b (r=2 table) and Fig. 3a
    (r=3 surface).  Returns ``None`` for r > 3 (not plottable).

    The whole grid is evaluated as one batch through the stacked fast
    path (one GEMM aggregates every grid point's Laplacian data); the
    returned dict reports ``n_eigensolves`` actually performed and
    ``n_eigensolves_saved`` relative to the naive one-solve-per-point
    sweep (duplicate and previously-cached grid points are free).
    """
    objective_variant(objective, variant)  # reject unknown variants early
    r = objective.r
    grid = np.arange(0.0, 1.0 + 1e-9, resolution)
    if r == 2:
        points = [np.array([w1, 1.0 - w1]) for w1 in grid]
    elif r == 3:
        points = [
            np.array([w1, w2, 1.0 - w1 - w2])
            for w1 in grid
            for w2 in grid
            if w1 + w2 <= 1.0 + 1e-9
        ]
    else:
        return None
    points = [np.clip(p, 0.0, None) for p in points]
    components, n_solves = objective.evaluate_batch(points)
    values = np.array([_variant_value(c, variant) for c in components])
    return {
        "points": np.asarray(points),
        "values": values,
        "n_eigensolves": n_solves,
        "n_eigensolves_saved": len(points) - n_solves,
    }
