"""Graph-coarsening primitives: prolongation operators and Galerkin projection.

One coarsening step maps an ``n``-node multi-view problem onto an
``n_c``-node one (``n_c < n``) through a **prolongation matrix**
``P in R^{n x n_c}`` whose columns are the indicator vectors of node
aggregates, normalized to unit length (``P^T P = I``).  Every view
Laplacian is projected through the *same* ``P`` (Galerkin projection,
``L_i^c = P^T L_i P``), so the coarse problem has the same number of views
and the view weights ``w`` keep their meaning across levels — the property
the multilevel SGLA ladder relies on (DESIGN.md §12).

Because ``P`` has orthonormal columns, each ``L_i^c`` is a Rayleigh–Ritz
restriction of ``L_i``: it stays symmetric PSD and its eigenvalues bound
the fine ones from above (``lambda_j(P^T L P) >= lambda_j(L)``), so the
coarse spectral objective is a faithful — if slightly stiffened —
surrogate of the fine one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np
import scipy.sparse as sp

from repro.utils.errors import ValidationError


@dataclass
class CoarsenStats:
    """Counters of one multilevel run (surfaced by the CLI and benches).

    Attributes
    ----------
    levels:
        Node counts per level, finest first (``[n, n_1, .., n_coarsest]``).
    coarse_solves:
        Eigensolves performed at coarse levels (the cheap ones).
    fine_solves:
        Eigensolves performed at the finest (full-size) level.
    coarsen_seconds:
        Wall-clock spent building the hierarchy (aggregation + projection).
    refine_evaluations:
        Objective evaluations of the full-size refinement stage.
    """

    levels: List[int] = field(default_factory=list)
    coarse_solves: int = 0
    fine_solves: int = 0
    coarsen_seconds: float = 0.0
    refine_evaluations: int = 0

    def summary(self) -> str:
        """One-line human-readable digest (used by the CLI)."""
        ladder = " -> ".join(str(n) for n in self.levels) or "flat"
        return (
            f"[{ladder}] "
            f"{self.coarse_solves} coarse / {self.fine_solves} fine "
            f"eigensolves, hierarchy {self.coarsen_seconds:.3f}s"
        )


def aggregate_similarity(laplacians: Sequence[sp.spmatrix]) -> sp.csr_matrix:
    """Node-similarity graph driving the aggregation choice.

    The negated off-diagonal of ``sum_i L_i``: for normalized Laplacians
    this is the sum of the normalized adjacencies, so edge weight measures
    how strongly two nodes are coupled *across all views at once* — the
    right notion when one shared ``P`` must serve every view.
    """
    if len(laplacians) == 0:
        raise ValidationError("need at least one Laplacian to coarsen")
    total = laplacians[0].tocsr().copy()
    for laplacian in laplacians[1:]:
        total = total + laplacian.tocsr()
    similarity = -total
    similarity.setdiag(0.0)
    similarity.eliminate_zeros()
    # Numerical noise can leave tiny negative couplings; clip them so
    # aggregation never follows an anti-edge.
    similarity.data[similarity.data < 0] = 0.0
    similarity.eliminate_zeros()
    return similarity.tocsr()


def prolongation_from_aggregates(aggregates: np.ndarray) -> sp.csr_matrix:
    """Column-orthonormal prolongation from an aggregate assignment.

    ``aggregates[i]`` names node ``i``'s coarse node (0-based, dense).
    Each column is the normalized indicator ``1_A / sqrt(|A|)`` of one
    aggregate, so ``P^T P = I`` and Galerkin projection is a Rayleigh–Ritz
    restriction.
    """
    aggregates = np.asarray(aggregates, dtype=np.int64)
    n = aggregates.shape[0]
    if n == 0:
        raise ValidationError("cannot build a prolongation over zero nodes")
    if aggregates.min() < 0:
        raise ValidationError("aggregate assignment has unassigned nodes")
    n_coarse = int(aggregates.max()) + 1
    sizes = np.bincount(aggregates, minlength=n_coarse)
    if (sizes == 0).any():
        raise ValidationError("aggregate assignment skips coarse indices")
    data = 1.0 / np.sqrt(sizes[aggregates].astype(np.float64))
    indptr = np.arange(n + 1, dtype=np.int64)
    return sp.csr_matrix(
        (data, aggregates, indptr), shape=(n, n_coarse)
    )


def galerkin_project(
    laplacians: Sequence[sp.spmatrix], prolongation: sp.csr_matrix
) -> List[sp.csr_matrix]:
    """``[P^T L_i P]`` — the coarse view Laplacians under one shared ``P``."""
    restriction = prolongation.T.tocsr()
    coarse = []
    for laplacian in laplacians:
        projected = restriction @ laplacian.tocsr() @ prolongation
        projected = projected.tocsr()
        # Round-trip through the symmetric average: P^T L P is symmetric
        # in exact arithmetic; sparse matmul noise breaks it at ~1e-17.
        projected = ((projected + projected.T) * 0.5).tocsr()
        projected.sort_indices()
        coarse.append(projected)
    return coarse
