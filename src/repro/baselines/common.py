"""Shared building blocks for the reimplemented baselines.

Most multi-view baselines operate on (a) a per-view node-feature matrix,
(b) low-pass *graph-filtered* features, and (c) some aggregate adjacency.
These helpers centralize those constructions so each baseline module stays
focused on its own algorithmic idea.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from repro.core.knn import knn_graph
from repro.core.mvag import MVAG
from repro.neighbors import normalize_rows
from repro.nn.autoencoder import renormalized_adjacency
from repro.utils.errors import ValidationError
from repro.utils.random import check_random_state
from repro.utils.sparse import ensure_csr


def random_projection(features, dim: int, seed=0) -> np.ndarray:
    """Gaussian random projection to ``dim`` columns (dense output).

    Johnson–Lindenstrauss style dimensionality cap used to keep the dense
    linear algebra of baselines bounded when attribute views are very wide.
    """
    if dim < 1:
        raise ValidationError(f"dim must be >= 1, got {dim}")
    rng = check_random_state(seed)
    d = features.shape[1]
    if d <= dim:
        if sp.issparse(features):
            return np.asarray(features.todense(), dtype=np.float64)
        return np.asarray(features, dtype=np.float64)
    projector = rng.standard_normal((d, dim)) / np.sqrt(dim)
    projected = features @ projector
    return np.asarray(projected, dtype=np.float64)


def concatenated_attributes(
    mvag: MVAG, target_dim: int = 256, seed=0
) -> Optional[np.ndarray]:
    """All attribute views concatenated and capped at ``target_dim`` columns.

    Returns ``None`` when the MVAG has no attribute views (callers fall
    back to structural features).
    """
    if mvag.n_attribute_views == 0:
        return None
    blocks = []
    per_view_dim = max(8, target_dim // mvag.n_attribute_views)
    for j, view in enumerate(mvag.attribute_views):
        blocks.append(random_projection(view, per_view_dim, seed=(seed or 0) + j))
    return normalize_rows(np.hstack(blocks))


def structural_features(mvag: MVAG, dim: int = 64, seed=0) -> np.ndarray:
    """Random-projected rows of the summed adjacency (attribute-free MVAGs)."""
    n = mvag.n_nodes
    total = sp.csr_matrix((n, n), dtype=np.float64)
    for adjacency in mvag.graph_views:
        total = total + adjacency
    rng = check_random_state(seed)
    projector = rng.standard_normal((n, dim)) / np.sqrt(dim)
    return normalize_rows(np.asarray(total @ projector))


def feature_matrix(mvag: MVAG, target_dim: int = 256, seed=0) -> np.ndarray:
    """A dense node-feature matrix for baselines: attributes if available,
    otherwise structural features."""
    features = concatenated_attributes(mvag, target_dim=target_dim, seed=seed)
    if features is None:
        features = structural_features(mvag, dim=min(target_dim, 64), seed=seed)
    return features


def low_pass_filter(
    adjacency, features: np.ndarray, order: int = 2
) -> np.ndarray:
    """Graph-filtered features ``((I + A_hat) / 2)^order @ X``.

    The low-pass filter shared by the graph-filtering baselines (MvAGC,
    MAGC, MCGC): repeated smoothing with the renormalized adjacency.
    """
    if order < 0:
        raise ValidationError(f"order must be >= 0, got {order}")
    a_hat = renormalized_adjacency(ensure_csr(adjacency))
    smoothed = np.asarray(features, dtype=np.float64)
    for _ in range(order):
        smoothed = 0.5 * (smoothed + np.asarray(a_hat @ smoothed))
    return smoothed


def all_view_adjacencies(mvag: MVAG, knn_k: int = 10) -> List[sp.csr_matrix]:
    """Adjacency per view: graph views as-is, attribute views as KNN graphs."""
    adjacencies = list(mvag.graph_views)
    adjacencies.extend(
        knn_graph(view, k=knn_k) for view in mvag.attribute_views
    )
    return adjacencies


def filtered_view_features(
    mvag: MVAG,
    target_dim: int = 256,
    order: int = 2,
    knn_k: int = 10,
    seed=0,
) -> List[np.ndarray]:
    """One low-pass-filtered feature matrix per view.

    Graph views smooth the shared feature matrix over their own topology;
    attribute views smooth their own (projected) features over their KNN
    graph — the construction used by the graph-filtering baseline family.
    """
    shared = feature_matrix(mvag, target_dim=target_dim, seed=seed)
    outputs = [
        low_pass_filter(adjacency, shared, order=order)
        for adjacency in mvag.graph_views
    ]
    for j, view in enumerate(mvag.attribute_views):
        projected = normalize_rows(
            random_projection(view, target_dim, seed=(seed or 0) + 100 + j)
        )
        graph = knn_graph(view, k=knn_k)
        outputs.append(low_pass_filter(graph, projected, order=order))
    return outputs
