"""Pluggable spectral-solver subsystem (DESIGN.md §7–8).

Every eigensolve in the repository routes through this package: a
string-keyed **backend registry** (``dense``, ``lanczos``), a shared
dispatch policy over problem size and pair count (:func:`resolve_method`,
the measured dense/Lanczos crossover), stateless one-shot entry
points (:func:`bottom_eigenpairs` / :func:`bottom_eigenvalues` /
:func:`fiedler_value`), and a :class:`SolverContext` that carries
warm-start Ritz blocks and solve statistics across the calls of one run.

Adding a backend::

    from repro.solvers import EigenBackend, EigenProblem, EigenResult, register_backend

    class MyBackend(EigenBackend):
        name = "my-solver"
        def solve(self, problem: EigenProblem) -> EigenResult:
            ...

    register_backend(MyBackend())

after which ``SGLAConfig(eigen_backend="my-solver")``, the CLI's
``--eigen-backend my-solver``, and every ``method="my-solver"`` call site
reach it with no further changes.
"""

from repro.solvers.api import (
    bottom_eigenpairs,
    bottom_eigenvalues,
    fiedler_value,
    prepare,
    solve_bottom,
    solve_bottom_values,
    validate_operand,
)
from repro.solvers.base import (
    SPECTRUM_UPPER_BOUND,
    EigenBackend,
    EigenProblem,
    EigenResult,
    MatvecCounter,
    canonicalize_signs,
)
from repro.solvers.context import SolverContext, SolverStats
from repro.solvers.registry import (
    available_backends,
    get_backend,
    register_backend,
    resolve_method,
    unregister_backend,
)

__all__ = [
    "EigenBackend",
    "EigenProblem",
    "EigenResult",
    "MatvecCounter",
    "SPECTRUM_UPPER_BOUND",
    "SolverContext",
    "SolverStats",
    "available_backends",
    "bottom_eigenpairs",
    "bottom_eigenvalues",
    "canonicalize_signs",
    "fiedler_value",
    "get_backend",
    "prepare",
    "register_backend",
    "resolve_method",
    "solve_bottom",
    "solve_bottom_values",
    "unregister_backend",
    "validate_operand",
]
