"""Graph coarsening for multilevel SGLA (DESIGN.md §12).

Landmark aggregation (:func:`landmark_aggregates`) is the one coarsener;
:func:`build_hierarchy` calls it once per rung, and
:func:`multilevel_fit` is the ladder driver behind
``SGLAConfig.coarsen_levels``.
"""

from repro.coarsen.base import (
    CoarsenStats,
    aggregate_similarity,
    galerkin_project,
    prolongation_from_aggregates,
)
from repro.coarsen.landmark import landmark_aggregates
from repro.coarsen.ladder import (
    Hierarchy,
    build_hierarchy,
    gradient_refine,
    multilevel_fit,
    prolong_block,
    spectral_gradient,
)

__all__ = [
    "CoarsenStats",
    "Hierarchy",
    "aggregate_similarity",
    "build_hierarchy",
    "galerkin_project",
    "gradient_refine",
    "landmark_aggregates",
    "multilevel_fit",
    "prolong_block",
    "prolongation_from_aggregates",
    "spectral_gradient",
]
