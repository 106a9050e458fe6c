"""Landmark (Nyström-style) aggregation: the ladder's one coarsener.

A small landmark set seeds the coarse level directly: ``m = ceil(ratio
* n)`` landmarks are drawn (uniformly, seeded), each becomes one
aggregate, and the remaining nodes adopt the aggregate of their
strongest already-assigned neighbor over a few propagation sweeps —
the assignment analogue of Nyström column sampling, where the landmark
subspace stands in for the full operator.  Nodes no sweep can reach (deep
in a region with no assigned neighbor, or isolated) survive as singleton
aggregates so the prolongation always spans every node.

The coarse size is *directly* controlled by ``ratio``: one rung goes
from ``n`` to about ``ratio * n`` nodes, where pairwise matching would
need several rungs.  The aggregates are landmark Voronoi cells, lumpier
than balanced pairs; the ladder's full-size refine polishes away the
bias that leaves in ``w`` (DESIGN.md §12).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.utils.errors import ValidationError
from repro.utils.random import check_random_state

#: coarse-to-fine node ratio per level.
DEFAULT_RATIO = 0.25

#: assignment-propagation sweeps per level.
DEFAULT_SWEEPS = 3


def landmark_aggregates(
    similarity: sp.csr_matrix,
    ratio: float = DEFAULT_RATIO,
    sweeps: int = DEFAULT_SWEEPS,
    seed=0,
) -> np.ndarray:
    """Aggregate assignment from seeded landmark propagation."""
    if not 0.0 < ratio < 1.0:
        raise ValidationError(f"ratio must be in (0, 1), got {ratio}")
    n = similarity.shape[0]
    m = max(1, int(np.ceil(ratio * n)))
    rng = check_random_state(seed)
    landmarks = np.sort(rng.choice(n, size=m, replace=False))

    aggregates = np.full(n, -1, dtype=np.int64)
    aggregates[landmarks] = np.arange(m, dtype=np.int64)

    coo = similarity.tocoo()
    for _ in range(max(1, sweeps)):
        unassigned = aggregates < 0
        if not unassigned.any():
            break
        # Edges from an unassigned row into assigned territory; the
        # strongest one (ties to the lowest column) decides the adoption.
        frontier = unassigned[coo.row] & (aggregates[coo.col] >= 0)
        if not frontier.any():
            break
        rows = coo.row[frontier]
        cols = coo.col[frontier]
        data = coo.data[frontier]
        order = np.lexsort((cols, -data, rows))
        rows = rows[order]
        _, first = np.unique(rows, return_index=True)
        aggregates[rows[first]] = aggregates[cols[order][first]]

    leftover = np.flatnonzero(aggregates < 0)
    if leftover.size:
        aggregates[leftover] = m + np.arange(leftover.size, dtype=np.int64)
    return aggregates
