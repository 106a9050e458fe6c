"""MvAGC — graph-filter multi-view clustering with anchors [21].

Lin & Kang (IJCAI'21) reach linear time by (1) low-pass graph filtering of
node features per view and (2) learning per-view *anchor graphs*: each node
is expressed over ``m << n`` sampled anchor nodes with a closed-form ridge
solve, and the averaged anchor graph is clustered through its SVD.  Our
reconstruction follows that recipe; anchor sampling is degree-proportional
(the paper's importance sampling).

The paper's Table III shows MvAGC as the only baseline scaling to MAG-*,
with a quality gap to SGLA — both properties carry over here.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import filtered_view_features
from repro.cluster.kmeans import kmeans
from repro.core.mvag import MVAG
from repro.neighbors import normalize_rows
from repro.utils.errors import ValidationError
from repro.utils.random import check_random_state
from repro.utils.sparse import degree_vector


def _sample_anchors(mvag: MVAG, n_anchors: int, rng) -> np.ndarray:
    """Degree-proportional anchor sampling over the summed graph views."""
    n = mvag.n_nodes
    degrees = np.zeros(n)
    for adjacency in mvag.graph_views:
        degrees += degree_vector(adjacency)
    if degrees.sum() <= 0:
        degrees = np.ones(n)
    probabilities = degrees / degrees.sum()
    n_anchors = min(n_anchors, n)
    return rng.choice(n, size=n_anchors, replace=False, p=probabilities)


def mvagc_cluster(
    mvag: MVAG,
    k: int,
    n_anchors: int = 0,
    filter_order: int = 2,
    ridge: float = 1.0,
    knn_k: int = 10,
    seed=0,
) -> np.ndarray:
    """Cluster an MVAG with per-view anchor graphs (linear time).

    Parameters
    ----------
    n_anchors:
        Anchor count ``m`` (0 picks ``max(10 k, 100)`` capped at ``n``).
    filter_order:
        Low-pass filter order ``t``.
    ridge:
        Regularization of the closed-form anchor-graph solve.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    rng = check_random_state(seed)
    if n_anchors <= 0:
        n_anchors = min(max(10 * k, 100), mvag.n_nodes)
    anchors = _sample_anchors(mvag, n_anchors, rng)

    view_features = filtered_view_features(
        mvag, order=filter_order, knn_k=knn_k, seed=seed
    )
    anchor_graphs = []
    for features in view_features:
        features = normalize_rows(features)
        anchor_block = features[anchors]  # (m, d)
        gram = anchor_block @ anchor_block.T
        gram += ridge * np.eye(gram.shape[0])
        # Z = argmin ||F - Z B||^2 + ridge ||Z||^2  (closed form).
        weights = np.linalg.solve(gram, anchor_block @ features.T).T
        anchor_graphs.append(np.clip(weights, 0.0, None))
    combined = np.mean(anchor_graphs, axis=0)

    # Spectral clustering through the anchor graph's left singular vectors.
    row_sums = combined.sum(axis=1)
    row_sums[row_sums == 0] = 1.0
    combined = combined / row_sums[:, None]
    u, _, _ = np.linalg.svd(combined, full_matrices=False)
    basis = u[:, :k]
    norms = np.linalg.norm(basis, axis=1)
    norms[norms == 0] = 1.0
    return kmeans(basis / norms[:, None], k, seed=seed).labels
