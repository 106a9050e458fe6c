"""The eigensolver backend registry and the single dispatch policy.

Every eigensolve in the repository routes through this registry: call
sites name a backend (``"dense"``, ``"lanczos"``, ``"batch"``, or
``"auto"``), and :func:`resolve_method` settles what actually runs for a
given problem size.  Adding a solver is one :func:`register_backend`
call; no call site changes.

Dispatch rules (single source of truth — callers that plan around the
dispatch must use :func:`resolve_method` rather than re-deriving it):

* ``"auto"`` picks ``dense`` at or below :data:`DENSE_CUTOFF`, else
  ``lanczos``;
* iterative methods fall back to ``dense`` when ARPACK's ``t < n - 1``
  requirement is violated.
"""

from __future__ import annotations

from repro.solvers.base import EigenBackend
from repro.utils.registry import Registry

#: "auto" uses the exact dense solver at or below this many nodes.
DENSE_CUTOFF = 600

#: methods that run an iterative solver (directly or via an inner backend).
_ITERATIVE = ("lanczos", "batch")

_BACKENDS: Registry[EigenBackend] = Registry("eigensolver backend")
register_backend = _BACKENDS.register
unregister_backend = _BACKENDS.unregister
get_backend = _BACKENDS.get
available_backends = _BACKENDS.available


def resolve_method(n: int, t: int, method: str) -> str:
    """The backend actually used for an ``n x n`` problem with ``t`` pairs.

    Accepts any registered backend name plus ``"auto"``; unknown names
    pass through so :func:`get_backend` can report them with the list of
    alternatives.
    """
    if method == "auto":
        method = "dense" if n <= DENSE_CUTOFF else "lanczos"
    # eigsh requires t < n; fall back to the exact dense path otherwise.
    if method in _ITERATIVE and t >= n - 1:
        method = "dense"
    return method
