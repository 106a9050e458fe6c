"""The eigensolver backend registry and the single dispatch policy.

Every eigensolve in the repository routes through this registry: call
sites name a backend (``"dense"``, ``"lanczos"``, or ``"auto"``), and
:func:`resolve_method` settles what actually runs for a given problem
size ``n`` and pair count ``t``.  Adding a solver is one
:func:`register_backend` call; no call site changes.

Dispatch rules (single source of truth — callers that plan around the
dispatch must use :func:`resolve_method` rather than re-deriving it):

* ``"auto"`` picks ``dense`` when ``n <= DENSE_SMALL_N``, or when
  ``n <= DENSE_MAX_N`` and ``t`` is at least ``DENSE_T_PERCENT`` percent
  of ``n``; else ``lanczos``.  The thresholds are the measured crossover
  between the two backends (DESIGN.md §7): Lanczos wins the warm
  ``t = k + 1`` optimizer loop above a few hundred nodes, dense wins
  once ``t`` is a sizeable share of ``n`` (NetMF's rank-256 embedding
  solves);
* ``lanczos`` falls back to ``dense`` when ARPACK's ``t < n - 1``
  requirement is violated.
"""

from __future__ import annotations

from repro.solvers.base import EigenBackend
from repro.utils.registry import Registry

#: "auto" runs dense at or below this many nodes, whatever ``t`` is.
DENSE_SMALL_N = 300

#: above it, "auto" runs dense once ``t`` reaches this percentage of ``n``
#: (integer arithmetic, so the boundary is exact) ...
DENSE_T_PERCENT = 7

#: ... up to this many nodes (the dense operand is ``8 n^2`` bytes).
DENSE_MAX_N = 8000

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
        wide = n <= DENSE_MAX_N and 100 * t >= DENSE_T_PERCENT * n
        method = "dense" if n <= DENSE_SMALL_N or wide else "lanczos"
    # eigsh requires t < n; fall back to the exact dense path otherwise.
    if method == "lanczos" and t >= n - 1:
        method = "dense"
    return method
