"""MCGC — multi-view consensus-graph clustering [14], reimplemented.

Pan & Kang (NeurIPS'21) learn a dense consensus graph ``S`` that agrees
with the graph-filtered representation of every view, plus a contrastive
regularizer.  Our reconstruction keeps the quadratic consensus pipeline:
low-pass-filter features per view, build the dense similarity of each
view's smoothed features, average into a consensus, sparsify to a top-K
graph, and spectrally cluster it.

Complexity is deliberately ``O(n^2 d)`` with an ``n x n`` dense
intermediate — this is the scaling wall the paper's Figure 5 exposes for
consensus-graph methods, and we preserve it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.baselines.common import filtered_view_features
from repro.cluster.spectral import spectral_clustering
from repro.core.laplacian import normalized_laplacian
from repro.neighbors import normalize_rows
from repro.utils.errors import ValidationError

# Consensus-graph methods materialize n x n matrices; past this size the
# original implementations run out of memory in the paper's experiments.
_NODE_LIMIT = 12000


def _consensus_similarity(view_features) -> np.ndarray:
    n = view_features[0].shape[0]
    consensus = np.zeros((n, n))
    for features in view_features:
        normalized = normalize_rows(features)
        consensus += normalized @ normalized.T
    consensus /= len(view_features)
    np.clip(consensus, 0.0, None, out=consensus)
    return consensus


def _sparsify_top_k(similarity: np.ndarray, top_k: int) -> sp.csr_matrix:
    n = similarity.shape[0]
    np.fill_diagonal(similarity, -np.inf)
    top_k = min(top_k, n - 1)
    columns = np.argpartition(similarity, -top_k, axis=1)[:, -top_k:]
    rows = np.repeat(np.arange(n), top_k)
    values = similarity[rows, columns.ravel()]
    keep = np.isfinite(values) & (values > 0)
    graph = sp.csr_matrix(
        (values[keep], (rows[keep], columns.ravel()[keep])), shape=(n, n)
    )
    return graph.maximum(graph.T).tocsr()


def mcgc_cluster(
    mvag,
    k: int,
    filter_order: int = 3,
    top_k: int = 20,
    knn_k: int = 10,
    seed=0,
) -> np.ndarray:
    """Cluster an MVAG via a dense consensus similarity graph."""
    if mvag.n_nodes > _NODE_LIMIT:
        raise MemoryError(
            f"MCGC materializes an n x n consensus graph; n={mvag.n_nodes} "
            f"exceeds the {_NODE_LIMIT} limit (matches the paper's OOM rows)"
        )
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    view_features = filtered_view_features(
        mvag, order=filter_order, knn_k=knn_k, seed=seed
    )
    consensus = _consensus_similarity(view_features)
    graph = _sparsify_top_k(consensus, top_k)
    return spectral_clustering(normalized_laplacian(graph), k, seed=seed)
