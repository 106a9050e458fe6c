"""Landmark (Nyström-style) aggregation coarsening.

Instead of pairing nodes, a small landmark set seeds the coarse level
directly: ``m = ceil(ratio * n)`` landmarks are drawn (uniformly, seeded),
each becomes one aggregate, and the remaining nodes adopt the aggregate of
their strongest already-assigned neighbor over a few propagation sweeps —
the assignment analogue of Nyström column sampling, where the landmark
subspace stands in for the full operator.  Nodes no sweep can reach (deep
in a region with no assigned neighbor, or isolated) survive as singleton
aggregates so the prolongation always spans every node.

Compared to ``heavy-edge``, the coarse size is *directly* controlled by
``ratio`` — one level can jump from ``n`` to ``0.1 n``, where matching
needs several — at the price of lumpier aggregates (landmark Voronoi
cells instead of balanced pairs).  DESIGN.md §12 discusses when each
wins.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.coarsen.base import (
    CoarsenBackend,
    aggregate_similarity,
    prolongation_from_aggregates,
    register_backend,
)
from repro.utils.errors import ValidationError
from repro.utils.random import check_random_state

#: default coarse-to-fine node ratio per level.
DEFAULT_RATIO = 0.25

#: default assignment-propagation sweeps.
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


class LandmarkBackend(CoarsenBackend):
    """Seeded landmark aggregation with strongest-neighbor propagation.

    ``params``:

    * ``ratio`` — coarse/fine node ratio per level (default 0.25);
    * ``sweeps`` — assignment propagation sweeps (default 3).
    """

    name = "landmark"

    def coarsen(
        self,
        laplacians: Sequence[sp.spmatrix],
        seed: int = 0,
        params: Optional[Mapping[str, Any]] = None,
    ) -> sp.csr_matrix:
        params = dict(params or {})
        ratio = float(params.get("ratio", DEFAULT_RATIO))
        sweeps = int(params.get("sweeps", DEFAULT_SWEEPS))
        similarity = aggregate_similarity(laplacians)
        aggregates = landmark_aggregates(
            similarity, ratio=ratio, sweeps=sweeps, seed=seed
        )
        return prolongation_from_aggregates(aggregates)


register_backend(LandmarkBackend())
