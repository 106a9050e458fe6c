"""The built-in spectral-solver backends.

All backends compute the *bottom* of a symmetric PSD spectrum contained in
``[0, 2]`` (normalized Laplacians and convex combinations thereof):

* ``dense``   — ``scipy.linalg.eigh`` on the materialized matrix,
  restricted to the bottom ``t`` pairs; exact at any requested
  tolerance, the ground truth for small ``n`` and in tests;
* ``lanczos`` — implicitly-restarted Lanczos (``eigsh``) on the
  complement ``2I - L`` (largest-of-complement converges without any
  sparse factorization).

This is the only module in the repository allowed to call
``scipy.linalg.eigh`` / ``eigsh`` directly — everything else goes through
the registry (:mod:`repro.solvers.registry`), whose ``auto`` rule picks
between the two by problem size and pair count.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from repro.solvers.base import (
    SPECTRUM_UPPER_BOUND,
    EigenBackend,
    EigenProblem,
    EigenResult,
    MatvecCounter,
)
from repro.solvers.registry import register_backend
from repro.utils.random import check_random_state
from repro.utils.sparse import ensure_csr, sparse_identity


def _complement(operand, n: int):
    """``2I - L``, whose largest eigenpairs are ``L``'s smallest."""
    return (SPECTRUM_UPPER_BOUND * sparse_identity(n)) - operand


def _collapse_warm_start(v0, n: int) -> Optional[np.ndarray]:
    """Reduce a warm-start block to one Lanczos start vector (or None)."""
    if v0 is None:
        return None
    v0 = np.asarray(v0, dtype=np.float64)
    if v0.ndim == 2:
        # A sum of (near-orthonormal) Ritz vectors has components along
        # every wanted eigendirection — the ideal Krylov seed.
        v0 = v0.sum(axis=1)
    if v0.shape != (n,):
        return None
    norm = float(np.linalg.norm(v0))
    if not np.isfinite(norm) or norm < 1e-12:
        return None
    return v0 / norm


def _rng(problem: EigenProblem) -> np.random.Generator:
    """The problem's seeded generator (an unset seed means 0)."""
    return check_random_state(problem.seed if problem.seed is not None else 0)


def _start_vector(problem: EigenProblem) -> np.ndarray:
    """Warm start collapsed to one vector, else the seeded random start."""
    start = _collapse_warm_start(problem.v0, problem.n)
    if start is None:
        start = _rng(problem).standard_normal(problem.n)
    return start


def _eigsh_with_salvage(problem: EigenProblem, operand, **eigsh_kwargs):
    """One ``eigsh`` call shared by the ARPACK-based backends.

    Honors ``want_vectors`` and salvages partial results from
    ``ArpackNoConvergence`` when enough pairs converged; returns the raw
    ``(values, vectors_or_None)`` for the caller to order and clip.

    ARPACK draws a fresh start vector whenever it finds an invariant
    subspace (e.g. a graph with more than ``t`` connected components);
    ``rng`` seeds those draws so such solves repeat bit for bit instead
    of reading OS entropy.
    """
    vectors = None
    try:
        result = spla.eigsh(
            operand,
            k=problem.t,
            tol=problem.tol,
            v0=_start_vector(problem),
            return_eigenvectors=problem.want_vectors,
            rng=_rng(problem),
            **eigsh_kwargs,
        )
        values, vectors = result if problem.want_vectors else (result, None)
    except spla.ArpackNoConvergence as exc:  # pragma: no cover - rare
        if exc.eigenvalues is not None and len(exc.eigenvalues) >= problem.t:
            values = exc.eigenvalues[: problem.t]
            if problem.want_vectors:
                vectors = exc.eigenvectors[:, : problem.t]
        else:
            raise
    return values, vectors


class DenseBackend(EigenBackend):
    """Exact dense solver (LAPACK ``eigh``); matvec-free.

    Computes only the wanted bottom ``t`` pairs (``subset_by_index``),
    never the whole spectrum.  Exact whatever ``problem.tol`` asks for.
    """

    name = "dense"

    def solve(self, problem: EigenProblem) -> EigenResult:
        matrix = ensure_csr(problem.operand).toarray()
        wanted = (0, problem.t - 1)
        if not problem.want_vectors:
            values = scipy.linalg.eigh(
                matrix, eigvals_only=True, subset_by_index=wanted
            )
            return EigenResult(values, None, self.name)
        values, vectors = scipy.linalg.eigh(matrix, subset_by_index=wanted)
        return EigenResult(values, vectors, self.name)


class LanczosBackend(EigenBackend):
    """Implicitly-restarted Lanczos on the complement ``2I - L``."""

    name = "lanczos"

    def solve(self, problem: EigenProblem) -> EigenResult:
        counter = MatvecCounter(_complement(problem.operand, problem.n))
        values, vectors = _eigsh_with_salvage(problem, counter, which="LA")
        # Largest of (2I - L) descending == smallest of L ascending.
        order = np.argsort(-values)
        values = np.clip(
            SPECTRUM_UPPER_BOUND - values[order], 0.0, SPECTRUM_UPPER_BOUND
        )
        if vectors is not None:
            vectors = vectors[:, order]
        return EigenResult(values, vectors, self.name, matvecs=counter.count)


register_backend(DenseBackend())
register_backend(LanczosBackend())
