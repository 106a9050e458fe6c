"""Threaded batch backend: many related eigenproblems, one call.

The optimizer workloads in this repository rarely need *one* eigensolve —
SGLA+ evaluates ``r + 1`` sampled weight vectors up front,
``objective_surface`` sweeps a whole grid, and benchmark tables solve the
same sizes repeatedly.  Those problems are (a) independent and (b)
spectrally *related*: every ``L(w)`` is a convex combination of the same
view Laplacians, so one solve's Ritz block is an excellent starting
subspace for all the others.

:class:`BatchedBackend` exploits both properties:

* **shared warm-start seeding** — the first problem is solved eagerly and
  its Ritz block seeds every remaining problem (unless a caller already
  supplied its own ``v0``), cutting per-problem iteration counts;
* **thread-level parallelism** — the remaining problems run concurrently
  on a ``ThreadPoolExecutor``; scipy's ARPACK/LAPACK/SpMV kernels release
  the GIL, so on multi-core hosts the solves genuinely overlap (on a
  single-core host the win reduces to the seeding alone).  Concurrent
  ``eigsh`` calls rely on the re-entrant C ARPACK of scipy >= 1.15, the
  declared floor.

Determinism: each follower's result depends only on its own problem and
the shared seed block — never on thread scheduling — so batch output is
bitwise identical run-to-run and identical to ``max_workers=1``.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import List, Optional

from repro.solvers.base import EigenBackend, EigenProblem, EigenResult
from repro.solvers.registry import get_backend, register_backend


def default_workers() -> int:
    """Thread count used when the caller does not pin one."""
    return max(1, os.cpu_count() or 1)


class BatchedBackend(EigenBackend):
    """Concurrent solver for lists of related eigenproblems.

    Parameters
    ----------
    inner:
        Registry key of the per-problem backend (default ``lanczos``).
    max_workers:
        Thread-pool width; defaults to the host core count.
    """

    name = "batch"

    def __init__(
        self, inner: str = "lanczos", max_workers: Optional[int] = None
    ) -> None:
        self.inner = inner
        self.max_workers = max_workers

    def _inner_backend(self) -> EigenBackend:
        return get_backend(self.inner)

    def solve(self, problem: EigenProblem) -> EigenResult:
        """A single problem simply runs on the inner backend."""
        return self._inner_backend().solve(problem)

    def solve_many(
        self,
        problems: List[EigenProblem],
        max_workers: Optional[int] = None,
        share_seed: bool = True,
    ) -> List[EigenResult]:
        """Solve every problem; seeded, threaded, deterministic.

        With ``share_seed`` (default) the first problem is solved eagerly
        — forcing Ritz vectors even for a values-only request — and its
        block seeds every follower; its result therefore always carries
        vectors so callers holding a warm-start cache
        (:class:`repro.solvers.context.SolverContext`) can keep the
        block.  ``share_seed=False`` disables all cross-problem seeding
        (pure thread-level parallelism), which warm-start ablations need.
        """
        if not problems:
            return []
        inner = self._inner_backend()
        if not share_seed:
            first = inner.solve(problems[0])
            rest = list(problems[1:])
        else:
            first = inner.solve(replace(problems[0], want_vectors=True))
            rest = [problem.with_v0(first.vectors) for problem in problems[1:]]
        results: List[EigenResult] = [first]
        if not rest:
            return results
        workers = max_workers or self.max_workers or default_workers()
        if workers <= 1 or len(rest) == 1:
            results.extend(inner.solve(problem) for problem in rest)
            return results
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results.extend(pool.map(inner.solve, rest))
        return results


register_backend(BatchedBackend())
