"""Heavy-edge matching coarsening (the multigrid classic).

Nodes are paired along their heaviest cross-view coupling: a pair merges
when each is the other's strongest neighbor (*mutual* heaviest-edge
matching — deterministic, no traversal-order dependence), repeated for a
few rounds on the still-unmatched subgraph; whatever remains unmatched
survives as singletons.  Every step is vectorized (lexsort + first-per-row
selection over the COO triplets), so matching a ten-million-edge level
costs a couple of array passes instead of a Python loop over edges.

One round of mutual matching removes at most half the nodes; two to three
rounds land near the classic ~0.55–0.65 per-level ratio on kNN-like
graphs.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.coarsen.base import (
    CoarsenBackend,
    aggregate_similarity,
    register_backend,
)

#: rounds of matching on the residual unmatched subgraph.
DEFAULT_ROUNDS = 3


def _heaviest_neighbors(similarity: sp.csr_matrix) -> np.ndarray:
    """Per-row strongest neighbor (ties to the lowest column), -1 if none."""
    n = similarity.shape[0]
    heavy = np.full(n, -1, dtype=np.int64)
    coo = similarity.tocoo()
    if coo.nnz == 0:
        return heavy
    # lexsort: primary row, then descending weight, then ascending column
    # — the first entry per row is the deterministic heaviest neighbor.
    order = np.lexsort((coo.col, -coo.data, coo.row))
    rows = coo.row[order]
    _, first = np.unique(rows, return_index=True)
    heavy[rows[first]] = coo.col[order][first]
    return heavy


def heavy_edge_matching(
    similarity: sp.csr_matrix, rounds: int = DEFAULT_ROUNDS
) -> np.ndarray:
    """Aggregate assignment from rounds of mutual heaviest-edge matching.

    Returns ``aggregates`` with dense 0-based coarse indices; matched
    pairs share an index, unmatched nodes keep singletons.  Aggregate
    indices are ordered by each aggregate's lowest member, so the output
    is independent of matching internals.
    """
    n = similarity.shape[0]
    partner = np.full(n, -1, dtype=np.int64)
    active = similarity.tocsr()
    alive = np.arange(n, dtype=np.int64)
    for _ in range(max(1, rounds)):
        heavy = _heaviest_neighbors(active)
        local = np.arange(active.shape[0], dtype=np.int64)
        has_neighbor = heavy >= 0
        # Mutual pairs only — heavy[heavy[u]] == u — counted once (u < v).
        mutual = (
            has_neighbor
            & (heavy[np.clip(heavy, 0, None)] == local)
            & (local < heavy)
        )
        left = local[mutual]
        if left.size == 0:
            break
        right = heavy[mutual]
        partner[alive[left]] = alive[right]
        partner[alive[right]] = alive[left]
        unmatched = np.flatnonzero(partner[alive] < 0)
        if unmatched.size == 0:
            break
        active = active[unmatched][:, unmatched].tocsr()
        alive = alive[unmatched]

    nodes = np.arange(n, dtype=np.int64)
    representatives = np.where(
        (partner < 0) | (nodes < partner), nodes, partner
    )
    return np.searchsorted(np.unique(representatives), representatives)


class HeavyEdgeBackend(CoarsenBackend):
    """Mutual heaviest-edge matching over the cross-view similarity.

    ``params``:

    * ``rounds`` — matching rounds on the residual subgraph (default 3).
    """

    name = "heavy-edge"

    def coarsen(
        self,
        laplacians: Sequence[sp.spmatrix],
        seed: int = 0,
        params: Optional[Mapping[str, Any]] = None,
    ) -> sp.csr_matrix:
        from repro.coarsen.base import prolongation_from_aggregates

        rounds = int((params or {}).get("rounds", DEFAULT_ROUNDS))
        similarity = aggregate_similarity(laplacians)
        aggregates = heavy_edge_matching(similarity, rounds=rounds)
        return prolongation_from_aggregates(aggregates)


register_backend(HeavyEdgeBackend())
