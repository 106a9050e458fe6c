"""Graph coarsening for multilevel SGLA (DESIGN.md §12).

Importing the package registers the built-in backends (``heavy-edge``,
``landmark``) and exposes the ladder driver used by
``SGLAConfig.coarsen_levels``.
"""

from repro.coarsen.base import (
    CoarsenBackend,
    CoarsenLevel,
    CoarsenStats,
    aggregate_similarity,
    available_backends,
    galerkin_project,
    get_backend,
    prolongation_from_aggregates,
    register_backend,
    unregister_backend,
)
from repro.coarsen.heavy_edge import HeavyEdgeBackend, heavy_edge_matching
from repro.coarsen.landmark import LandmarkBackend, landmark_aggregates
from repro.coarsen.ladder import (
    Hierarchy,
    build_hierarchy,
    gradient_refine,
    multilevel_fit,
    prolong_block,
    spectral_gradient,
)

__all__ = [
    "CoarsenBackend",
    "CoarsenLevel",
    "CoarsenStats",
    "Hierarchy",
    "HeavyEdgeBackend",
    "LandmarkBackend",
    "aggregate_similarity",
    "available_backends",
    "build_hierarchy",
    "galerkin_project",
    "get_backend",
    "gradient_refine",
    "heavy_edge_matching",
    "landmark_aggregates",
    "multilevel_fit",
    "prolong_block",
    "prolongation_from_aggregates",
    "register_backend",
    "spectral_gradient",
    "unregister_backend",
]
