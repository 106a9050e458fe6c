"""Pluggable neighbor-search subsystem (DESIGN.md §9).

Every cosine KNN-graph build in the repository routes through this
package: a string-keyed **backend registry** (``exact`` — the paper's
exhaustive blocked-GEMM construction, ``exact-f32`` — float32 similarity
blocks with a float64 re-rank parity guard, ``rp-forest`` — O(n log n)
random-projection-forest approximate search), a shared dispatch policy
(:func:`resolve_backend`), and a :class:`NeighborStats` counter that call
sites thread through the pipeline next to
:class:`repro.solvers.SolverStats`.

Adding a backend::

    from repro.neighbors import (
        NeighborBackend, NeighborRequest, NeighborResult, register_backend,
    )

    class MyIndex(NeighborBackend):
        name = "my-index"
        accepted_params = ("ef",)  # backend_params keys it reads
        def neighbors(self, request: NeighborRequest) -> NeighborResult:
            ...

    register_backend(MyIndex())

after which ``knn_graph(backend="my-index")``,
``SGLAConfig(knn_backend="my-index")``, and the CLI's
``--knn-backend my-index`` all reach it with no further changes.
"""

from repro.neighbors.base import (
    NeighborBackend,
    NeighborRequest,
    NeighborResult,
    NeighborStats,
    normalize_rows,
)
from repro.neighbors.exact import (
    ExactF32NeighborBackend,
    ExactNeighborBackend,
)
from repro.neighbors.registry import (
    EXACT_CUTOFF,
    RP_FOREST_MIN_N,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
    unregister_backend,
)
from repro.neighbors.rp_forest import (
    DEFAULT_LEAF_SIZE,
    DEFAULT_N_TREES,
    DEFAULT_REFINE_ITERS,
    RPForest,
    RPForestNeighborBackend,
)

__all__ = [
    "DEFAULT_LEAF_SIZE",
    "DEFAULT_N_TREES",
    "DEFAULT_REFINE_ITERS",
    "EXACT_CUTOFF",
    "ExactF32NeighborBackend",
    "ExactNeighborBackend",
    "NeighborBackend",
    "NeighborRequest",
    "NeighborResult",
    "NeighborStats",
    "RPForest",
    "RPForestNeighborBackend",
    "RP_FOREST_MIN_N",
    "available_backends",
    "get_backend",
    "normalize_rows",
    "register_backend",
    "resolve_backend",
    "unregister_backend",
]
