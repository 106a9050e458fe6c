"""SolverContext — per-run solver state: warm starts, policy, statistics.

A :class:`SolverContext` is what call sites thread through the pipeline
instead of ad-hoc backend strings.  It owns the three things a bare
registry lookup cannot:

* **warm-start Ritz blocks**, keyed by problem size, reused across every
  solve the context performs (optimizer steps move weights slightly, so
  consecutive spectra are close — the blocks cut iteration counts);
* **dispatch policy** — the backend choice, resolved per ``(n, t)``
  through the one shared :func:`repro.solvers.registry.resolve_method`
  rule;
* **statistics** — eigensolves performed and saved, warm/cold split, and
  matvec counts, so warm-start benefits are measurable end to end.

One context is meant to live for one logical run (one ``fit``, one
pipeline invocation) and may be shared across its stages: the objective's
final solve near ``w*`` leaves a Ritz block that then warm-starts the
clustering/embedding eigensolve on ``L(w*)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.solvers.api import validate_operand
from repro.solvers.base import EigenProblem, EigenResult
from repro.solvers.registry import get_backend, resolve_method
from repro.utils.counters import Counters
from repro.utils.errors import ValidationError


def solve_tolerance(backend: str, tol: float) -> float:
    """The tolerance a solve on ``backend`` runs at, given target ``tol``.

    The dense backend (LAPACK ``eigh``) is exact whatever the target, so
    its solves run at 0; every other backend runs at ``tol`` (0 = the
    backend default).  The one rule behind both the coarse-solve count
    (:attr:`SolverStats.coarse_solves`) and the tolerance tag of cached
    objective values (:class:`repro.core.objective.SpectralObjective`).
    """
    return 0.0 if backend == "dense" else float(tol)


@dataclass
class SolverStats(Counters):
    """Counters accumulated by one :class:`SolverContext`.

    ``saved`` counts eigensolves that *would* have run but were avoided by
    a caller-side cache or dedup (callers report them via
    :meth:`SolverContext.note_saved`); ``matvecs`` aggregates operator
    applications across iterative solves, the quantity warm starting
    actually reduces.  ``batched_solves`` counts the solves of sharded
    weight batches (:func:`repro.shard.api.shard_objective_batch`), which
    fold per-worker stats back in item order with :meth:`merge`.
    """

    solves: int = 0
    saved: int = 0
    warm_solves: int = 0
    cold_solves: int = 0
    batched_solves: int = 0
    matvecs: int = 0
    #: solves that ran at a relaxed (> 0) tolerance — the ladder's
    #: coarse stages (see :func:`solve_tolerance`; dense solves are
    #: exact); the complement ran at the backend default.
    coarse_solves: int = 0
    #: tolerance changes applied via SolverContext.set_tolerance.
    tolerance_updates: int = 0
    by_backend: Dict[str, int] = field(default_factory=dict)

    def record(
        self,
        result: EigenResult,
        warm: bool,
        batched: bool = False,
        coarse: bool = False,
    ) -> None:
        self.solves += 1
        self.matvecs += result.matvecs
        if warm:
            self.warm_solves += 1
        else:
            self.cold_solves += 1
        if batched:
            self.batched_solves += 1
        if coarse:
            self.coarse_solves += 1
        self.by_backend[result.backend] = (
            self.by_backend.get(result.backend, 0) + 1
        )

    def summary(self) -> str:
        """One-line human-readable digest (used by the CLI)."""
        backends = ", ".join(
            f"{name}={count}" for name, count in sorted(self.by_backend.items())
        )
        coarse = (
            f", {self.coarse_solves} coarse" if self.coarse_solves else ""
        )
        return (
            f"{self.solves} eigensolves ({self.saved} saved, "
            f"{self.warm_solves} warm-started{coarse}, "
            f"{self.matvecs} matvecs; {backends or 'none'})"
        )


class SolverContext:
    """Shared spectral-solver state for one run.

    Parameters
    ----------
    method:
        ``"auto"`` or a registered backend key; each problem is still
        dispatched through the shared rule (``auto`` by ``(n, t)``,
        ARPACK's size constraint).
    tol, seed:
        Passed to every solve (determinism comes from ``seed``).
    warm_start:
        Reuse each solve's Ritz block to seed the next solve of the same
        problem size.  Never changes tolerances, so accuracy is identical
        to cold starts.
    """

    def __init__(
        self,
        method: str = "auto",
        tol: float = 0.0,
        seed=0,
        warm_start: bool = True,
    ) -> None:
        self.method = method
        self.tol = float(tol)
        self.seed = seed
        self.warm_start = bool(warm_start)
        self.stats = SolverStats()
        self._warm_blocks: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # Policy
    # ------------------------------------------------------------------ #

    def resolve(self, n: int, t: int, method: Optional[str] = None) -> str:
        """The backend this context will run for an ``(n, t)`` problem."""
        return resolve_method(n, t, method or self.method)

    def tolerance_for(
        self, n: int, t: int, method: Optional[str] = None
    ) -> float:
        """The tolerance an ``(n, t)`` solve through this context runs at
        (:func:`solve_tolerance` of the resolved backend)."""
        return solve_tolerance(self.resolve(n, t, method=method), self.tol)

    # ------------------------------------------------------------------ #
    # Warm-start blocks
    # ------------------------------------------------------------------ #

    def warm_block(self, n: int) -> Optional[np.ndarray]:
        """The cached Ritz block for problems of size ``n`` (or None)."""
        return self._warm_blocks.get(n)

    def seed_block(self, vectors: Optional[np.ndarray]) -> None:
        """Install an externally computed Ritz block as the warm start.

        Lets callers that solved outside the context (e.g. an exact cold
        solve at machine precision) donate the block that subsequent
        context solves warm-start from.  No-op when warm starting is off.
        """
        if vectors is None or not self.warm_start:
            return
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim == 2 and vectors.shape[0] >= 1:
            self._warm_blocks[vectors.shape[0]] = vectors

    # ------------------------------------------------------------------ #
    # Target tolerance (the trust-region ladder's knob)
    # ------------------------------------------------------------------ #

    def set_tolerance(self, tol: float) -> None:
        """Retarget every subsequent solve to tolerance ``tol``.

        ``0`` restores the backend default (machine precision where
        supported).  This is the mutable knob the trust-region tolerance
        ladder turns as the optimizer's radius shrinks: coarse solves far
        from convergence, backend-default solves near it.  Solves that
        resolve to ``dense`` stay exact at any target.  Warm-start
        blocks are kept — a block converged at a loose tolerance is still
        an excellent start for a tighter solve of the same operator.
        """
        tol = float(tol)
        if tol < 0:
            raise ValidationError(f"tolerance must be >= 0, got {tol}")
        if tol != self.tol:
            self.tol = tol
            self.stats.tolerance_updates += 1

    def note_saved(self, count: int = 1) -> None:
        """Record ``count`` eigensolves avoided by a caller-side cache."""
        self.stats.saved += int(count)

    # ------------------------------------------------------------------ #
    # Solves
    # ------------------------------------------------------------------ #

    def _problem(
        self, operand, t: int, want_vectors: bool, warm: bool
    ) -> Tuple[EigenProblem, bool]:
        v0 = self._warm_blocks.get(operand.shape[0]) if warm else None
        problem = EigenProblem(
            operand,
            t,
            tol=self.tol,
            seed=self.seed,
            v0=v0,
            want_vectors=want_vectors,
        )
        return problem, v0 is not None

    def _finish(self, result: EigenResult, warm_used: bool) -> EigenResult:
        """Keep the result's Ritz block and record it in the stats."""
        block = result.vectors
        if block is not None and self.warm_start:
            self._warm_blocks[block.shape[0]] = block
        coarse = solve_tolerance(result.backend, self.tol) > 0
        self.stats.record(result, warm=warm_used, coarse=coarse)
        return result

    def _one_solve(
        self,
        laplacian,
        t: int,
        method: Optional[str],
        *,
        want_vectors: Optional[bool] = None,
        warm: Optional[bool] = None,
    ) -> EigenResult:
        """Single derivation point for the warm/want_vectors coupling.

        ``want_vectors=None`` means "only if a warm block will be
        refreshed": warm-starting solves assemble Ritz vectors so the
        *next* solve is cheap, everything else may use the backend's
        values-only path.
        """
        operand, n, t = validate_operand(laplacian, t)
        resolved = self.resolve(n, t, method=method)
        use_warm = self.warm_start if warm is None else bool(warm)
        if want_vectors is None:
            want_vectors = use_warm
        # The dense backend ignores start vectors entirely; don't fetch a
        # block for it (and never count such a solve as warm-started).
        use_warm = use_warm and resolved != "dense"
        problem, warm_used = self._problem(operand, t, want_vectors, use_warm)
        return self._finish(get_backend(resolved).solve(problem), warm_used)

    def eigenpairs(
        self,
        laplacian,
        t: int,
        method: Optional[str] = None,
        warm: Optional[bool] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Bottom ``t`` eigenpairs, warm-started from this context's state."""
        result = self._one_solve(
            laplacian, t, method, want_vectors=True, warm=warm
        )
        return result.values, result.vectors

    def eigenvalues(
        self,
        laplacian,
        t: int,
        method: Optional[str] = None,
        warm: Optional[bool] = None,
    ) -> np.ndarray:
        """Bottom ``t`` eigenvalues (Ritz vectors are still assembled when
        they will refresh the warm block — see :meth:`_one_solve`)."""
        return self._one_solve(laplacian, t, method, warm=warm).values

    def fiedler_value(self, laplacian, method: Optional[str] = None) -> float:
        """``lambda_2`` through this context (eigenvalues-only path)."""
        values = self.eigenvalues(laplacian, 2, method=method, warm=False)
        if values.shape[0] < 2:
            return 0.0
        return float(values[1])

    def solve_many(
        self,
        laplacians: Sequence,
        t: int,
        method: Optional[str] = None,
        want_vectors: bool = True,
    ) -> List[Tuple[np.ndarray, Optional[np.ndarray]]]:
        """Solve a list of related Laplacians in order, each warm-started
        from the one before (:meth:`eigenpairs` / :meth:`eigenvalues`)."""
        if want_vectors:
            return [
                self.eigenpairs(laplacian, t, method=method)
                for laplacian in laplacians
            ]
        return [
            (self.eigenvalues(laplacian, t, method=method), None)
            for laplacian in laplacians
        ]
