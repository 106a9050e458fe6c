"""The neighbor-backend registry and the shared dispatch policy.

Every KNN-graph build in the repository routes through this registry:
call sites name a backend (``"exact"``, ``"exact-f32"``, ``"rp-forest"``,
or ``"auto"``) and :func:`resolve_backend` settles what actually runs for
a given problem size — the same single-source-of-truth pattern as
``repro.solvers.registry.resolve_method``.  Adding a neighbor search — a
GPU re-rank, an HNSW wrapper, a sharded remote index — is one
:func:`register_backend` call; no call site changes.

Dispatch rules:

* ``"auto"`` uses exhaustive ``exact`` search at or below
  :data:`EXACT_CUTOFF` nodes and ``rp-forest`` above it;
* ``rp-forest`` falls back to ``exact`` when approximation cannot help:
  ``k`` reaches ``n - 1`` (every node is a neighbor), the problem is
  smaller than a couple of leaves, or ``k`` is not safely below the leaf
  size (a single leaf could not even supply ``k`` candidates).
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.neighbors.base import NeighborBackend
from repro.utils.registry import Registry

#: "auto" switches from exhaustive search to rp-forest above this size.
EXACT_CUTOFF = 4096

#: rp-forest needs at least this many nodes to beat brute force.
RP_FOREST_MIN_N = 512

_BACKENDS: Registry[NeighborBackend] = Registry("neighbor backend")
register_backend = _BACKENDS.register
unregister_backend = _BACKENDS.unregister
get_backend = _BACKENDS.get
available_backends = _BACKENDS.available


def resolve_backend(
    n: int,
    effective_k: int,
    backend: str,
    params: Optional[Mapping[str, Any]] = None,
) -> str:
    """The backend actually used for an ``n``-node, ``k``-neighbor build.

    Accepts any registered backend name plus ``"auto"``; unknown names
    pass through so :func:`get_backend` can report them with the list of
    alternatives.
    """
    if backend == "auto":
        backend = "exact" if n <= EXACT_CUTOFF else "rp-forest"
    if backend == "rp-forest":
        # Local import avoids a cycle (rp_forest registers itself here).
        from repro.neighbors.rp_forest import DEFAULT_LEAF_SIZE

        leaf_size = int((params or {}).get("leaf_size", DEFAULT_LEAF_SIZE))
        too_small = n <= max(RP_FOREST_MIN_N, 2 * leaf_size)
        # A leaf supplies at most leaf_size - 1 candidates per node; if k
        # is not safely below that, the forest cannot reach high recall.
        k_too_large = effective_k >= leaf_size or effective_k >= n - 1
        if too_small or k_too_large:
            backend = "exact"
    return backend
