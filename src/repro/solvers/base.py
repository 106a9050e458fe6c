"""Problem/result model shared by every spectral-solver backend.

A backend receives a fully *prepared* :class:`EigenProblem` — the operand
has already been validated (square CSR), ``t`` clamped, and the backend
choice settled by the dispatch policy
(:func:`repro.solvers.registry.resolve_method`).  Backends therefore only
implement numerics; validation and routing live in one place.

Iterative backends wrap their operand in :class:`MatvecCounter` so every
solve reports how many operator applications it consumed.  The counter
performs the *same* floating-point operations scipy would (``A @ x``), so
wrapping never changes results — it only makes warm-start savings and
backend comparisons measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse.linalg as spla

SPECTRUM_UPPER_BOUND = 2.0


@dataclass
class EigenProblem:
    """One bottom-eigenpair solve request.

    Attributes
    ----------
    operand:
        The (validated) symmetric PSD CSR matrix with spectrum in
        ``[0, 2]``.
    t:
        Number of requested eigenpairs (already clamped to ``n``).
    tol:
        Solver tolerance (0 means machine precision where supported).
    seed:
        Seed for deterministic iterative start vectors.
    v0:
        Optional warm start: an ``(n,)`` vector or ``(n, m)`` Ritz block
        from a previous, nearby solve.
    want_vectors:
        When ``False`` the backend may skip Ritz-vector assembly and
        return ``vectors=None``.
    """

    operand: object
    t: int
    tol: float = 0.0
    seed: object = None
    v0: Optional[np.ndarray] = None
    want_vectors: bool = True

    @property
    def n(self) -> int:
        """Problem dimension."""
        return self.operand.shape[0]


@dataclass
class EigenResult:
    """Outcome of one backend solve.

    ``values`` are the bottom eigenvalues ascending, clipped to the
    Laplacian spectrum range; ``vectors`` are column-aligned (or ``None``
    for values-only solves); ``matvecs`` counts operator applications
    (0 for direct solvers).
    """

    values: np.ndarray
    vectors: Optional[np.ndarray]
    backend: str
    matvecs: int = 0


def canonicalize_signs(vectors: np.ndarray) -> np.ndarray:
    """Fix each eigenvector's sign so its largest-|entry| is positive.

    Eigenvectors are only defined up to sign, and which sign a solver
    returns depends on its start vector — so two runs that differ only in
    warm-start history (e.g. a tolerance-ladder run vs a fixed-tolerance
    run reaching the same ``L(w*)``) would otherwise hand downstream
    consumers (discretization, k-means, embedding files) differently
    reflected columns.  Canonicalizing makes each column a function of
    the eigenspace alone (up to exact |entry| ties).
    """
    columns = np.arange(vectors.shape[1])
    anchor = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[anchor, columns])
    signs[signs == 0] = 1.0
    return vectors * signs


class MatvecCounter(spla.LinearOperator):
    """Transparent operator wrapper counting matvec-equivalents.

    Block applications of width ``m`` count as ``m`` matvecs, so counts
    stay comparable whichever way a solver applies the operator.
    """

    def __init__(self, operand) -> None:
        super().__init__(dtype=np.float64, shape=operand.shape)
        self._operand = operand
        self.count = 0

    def _matvec(self, x):
        self.count += 1
        return self._operand @ x

    def _rmatvec(self, x):
        self.count += 1
        return self._operand @ x  # symmetric operands throughout

    def _matmat(self, x):
        self.count += int(x.shape[1])
        return self._operand @ x


class EigenBackend:
    """Base class for registered spectral-solver backends.

    Subclasses set ``name`` and implement :meth:`solve`.  Backends must be
    stateless with respect to individual solves (safe to share across
    threads); per-run state such as warm-start blocks belongs to
    :class:`repro.solvers.context.SolverContext`.
    """

    #: registry key; subclasses override.
    name: str = ""

    def solve(self, problem: EigenProblem) -> EigenResult:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"
