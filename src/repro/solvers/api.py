"""Stateless entry points over the backend registry.

One-shot solves with no cross-call state.  Callers that evaluate many
related problems (optimizer loops, weight-batch sweeps) should hold a
:class:`repro.solvers.context.SolverContext` instead, which layers
warm-start reuse and statistics on top of the same registry.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import scipy.sparse.linalg as spla

import repro.solvers.backends  # noqa: F401  — registers the built-ins
from repro.solvers.base import EigenProblem
from repro.solvers.registry import get_backend, resolve_method
from repro.utils.errors import ValidationError
from repro.utils.sparse import ensure_csr


def validate_operand(laplacian, t: int):
    """Shared validation for every solve entry point (no dispatch).

    Returns ``(operand, n, t)`` where ``operand`` is CSR and ``t`` is
    clamped to ``n``.
    """
    if isinstance(laplacian, spla.LinearOperator):
        raise ValidationError(
            "matrix-free LinearOperator operands are not supported; "
            "pass the assembled (sparse or dense) Laplacian"
        )
    laplacian = ensure_csr(laplacian)
    if laplacian.shape[0] != laplacian.shape[1]:
        raise ValidationError(f"laplacian must be square, got {laplacian.shape}")
    n = laplacian.shape[0]
    if t < 1:
        raise ValidationError(f"t must be >= 1, got {t}")
    t = min(t, n)
    return laplacian, n, t


def prepare(laplacian, t: int, method: str):
    """Validation + dispatch for the stateless entry points.

    Returns ``(operand, n, t, method)`` with ``method`` resolved through
    the shared policy.  Context-bound solves use :func:`validate_operand`
    plus :meth:`SolverContext.resolve` instead, so the dispatch rule is
    applied exactly once either way.
    """
    operand, n, t = validate_operand(laplacian, t)
    return operand, n, t, resolve_method(n, t, method)


def bottom_eigenpairs(
    laplacian,
    t: int,
    method: str = "auto",
    tol: float = 0.0,
    seed=None,
    v0: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Return the ``t`` smallest eigenvalues and eigenvectors of ``laplacian``.

    Parameters
    ----------
    laplacian:
        Symmetric PSD matrix with spectrum in ``[0, 2]`` (a normalized
        Laplacian or convex combination thereof).
    t:
        Number of requested eigenpairs (clamped to ``n``).
    method:
        ``"auto"`` or any registered backend key
        (:func:`repro.solvers.registry.available_backends`).
    tol:
        Solver tolerance (0 means machine precision where supported).
    seed:
        Seed for the deterministic starting vector of iterative solvers.
    v0:
        Optional warm start: an ``(n,)`` vector or ``(n, m)`` block of Ritz
        vectors from a previous, nearby solve.

    Returns
    -------
    (eigenvalues, eigenvectors):
        Eigenvalues ascending, shape ``(t,)``; eigenvectors column-aligned,
        shape ``(n, t)``.
    """
    operand, _, t, method = prepare(laplacian, t, method)
    result = get_backend(method).solve(
        EigenProblem(operand, t, tol=tol, seed=seed, v0=v0)
    )
    return result.values, result.vectors


def bottom_eigenvalues(
    laplacian,
    t: int,
    method: str = "auto",
    tol: float = 0.0,
    seed=None,
) -> np.ndarray:
    """Eigenvalues-only variant of :func:`bottom_eigenpairs`.

    Backends skip Ritz-vector assembly where they can (``eigvals_only``
    for dense, ``return_eigenvectors=False`` for ARPACK).  Callers that do
    not warm-start (e.g. :func:`fiedler_value`) should prefer this entry
    point.
    """
    operand, _, t, method = prepare(laplacian, t, method)
    result = get_backend(method).solve(
        EigenProblem(operand, t, tol=tol, seed=seed, want_vectors=False)
    )
    return result.values


def solve_bottom(
    laplacian,
    t: int,
    solver=None,
    method: str = "auto",
    seed=None,
    warm: Optional[bool] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Bottom eigenpairs through an optional shared context.

    The one idiom every pipeline call site needs: route through the
    caller-supplied :class:`repro.solvers.context.SolverContext` when one
    is given (its backend policy and warm-start blocks apply; ``warm``
    optionally overrides its warm-start setting), else fall back to the
    stateless one-shot path with ``method``/``seed``.
    """
    if solver is not None:
        return solver.eigenpairs(laplacian, t, warm=warm)
    return bottom_eigenpairs(laplacian, t, method=method, seed=seed)


def solve_bottom_values(
    laplacian,
    t: int,
    solver=None,
    method: str = "auto",
    seed=None,
    warm: Optional[bool] = None,
) -> np.ndarray:
    """Eigenvalues-only variant of :func:`solve_bottom`."""
    if solver is not None:
        return solver.eigenvalues(laplacian, t, warm=warm)
    return bottom_eigenvalues(laplacian, t, method=method, seed=seed)


def fiedler_value(laplacian, method: str = "auto", seed=None) -> float:
    """The second-smallest eigenvalue ``lambda_2`` (connectivity objective).

    Uses the eigenvalues-only solver path — no eigenvectors are computed.
    """
    values = bottom_eigenvalues(laplacian, t=2, method=method, seed=seed)
    if values.shape[0] < 2:
        return 0.0
    return float(values[1])
