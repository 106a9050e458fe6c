"""MAGC — multi-view attributed graph clustering with adaptive weights [15].

Lin et al. (TKDE'23) combine graph-filtered representations into a
consensus graph with *adaptively learned view weights* (views whose
similarity structure matches the consensus get up-weighted), alternating
between consensus construction and weight refitting.  Our reconstruction
keeps the alternating scheme and the dense ``O(n^2)`` consensus — the
scaling behaviour the paper's Figure 5 demonstrates.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import filtered_view_features
from repro.cluster.spectral import spectral_clustering
from repro.core.laplacian import normalized_laplacian
from repro.neighbors import normalize_rows
from repro.utils.errors import ValidationError

import scipy.sparse as sp

_NODE_LIMIT = 12000


def magc_cluster(
    mvag,
    k: int,
    filter_order: int = 2,
    n_rounds: int = 3,
    knn_k: int = 10,
    seed=0,
) -> np.ndarray:
    """Cluster via an adaptively-weighted dense consensus graph."""
    if mvag.n_nodes > _NODE_LIMIT:
        raise MemoryError(
            f"MAGC materializes an n x n consensus graph; n={mvag.n_nodes} "
            f"exceeds the {_NODE_LIMIT} limit (matches the paper's OOM rows)"
        )
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if n_rounds < 1:
        raise ValidationError(f"n_rounds must be >= 1, got {n_rounds}")

    view_features = filtered_view_features(
        mvag, order=filter_order, knn_k=knn_k, seed=seed
    )
    similarities = []
    for features in view_features:
        normalized = normalize_rows(features)
        similarity = normalized @ normalized.T
        np.clip(similarity, 0.0, None, out=similarity)
        similarities.append(similarity)

    r = len(similarities)
    weights = np.full(r, 1.0 / r)
    consensus = None
    for _ in range(n_rounds):
        consensus = sum(w * s for w, s in zip(weights, similarities))
        losses = np.array(
            [np.linalg.norm(consensus - s) for s in similarities]
        )
        scale = losses.mean() if losses.mean() > 0 else 1.0
        raw = np.exp(-losses / scale)
        weights = raw / raw.sum()

    np.fill_diagonal(consensus, 0.0)
    graph = sp.csr_matrix(np.where(consensus > 0, consensus, 0.0))
    return spectral_clustering(normalized_laplacian(graph), k, seed=seed)
