"""LMGEC — linear multi-view graph embedding and clustering [27].

Fettal et al. (WSDM'23) is a *linear* method: propagate features one hop
per view, weight views with an inertia-based attention (views whose
representation clusters tightly get larger weight via a softmax over
negative k-means inertias), combine, and read both the embedding and the
k-means clustering off the combined representation.  This reconstruction
follows the published pipeline closely; it is the fastest baseline family
in the paper and remains so here.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.baselines.common import filtered_view_features
from repro.cluster.kmeans import kmeans
from repro.core.mvag import MVAG
from repro.embedding.svd import randomized_svd
from repro.neighbors import normalize_rows
from repro.utils.errors import ValidationError


def _view_representations(
    mvag: MVAG, dim: int, knn_k: int, seed
) -> list:
    features = filtered_view_features(mvag, order=1, knn_k=knn_k, seed=seed)
    representations = []
    for index, block in enumerate(features):
        block = normalize_rows(block)
        rank = min(dim, block.shape[1], block.shape[0] - 1)
        u, s, _ = randomized_svd(block, rank=rank, seed=(seed or 0) + index)
        rep = u * s[None, :]
        if rep.shape[1] < dim:
            rep = np.hstack([rep, np.zeros((rep.shape[0], dim - rep.shape[1]))])
        representations.append(rep)
    return representations


def _attention_weights(
    representations, k: int, temperature: float, seed
) -> np.ndarray:
    inertias = []
    for index, rep in enumerate(representations):
        result = kmeans(rep, k, n_init=2, max_iter=50, seed=(seed or 0) + index)
        scale = float(np.linalg.norm(rep)) ** 2 or 1.0
        inertias.append(result.inertia / scale)
    inertias = np.asarray(inertias)
    logits = -inertias / max(temperature, 1e-12)
    logits -= logits.max()
    weights = np.exp(logits)
    return weights / weights.sum()


def lmgec_embed_and_cluster(
    mvag: MVAG,
    k: int,
    dim: int = 64,
    temperature: float = 0.1,
    knn_k: int = 10,
    seed=0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Joint LMGEC embedding + clustering.

    Returns
    -------
    (embedding, labels):
        ``(n, dim)`` combined representation and k-means labels on it.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    representations = _view_representations(mvag, dim, knn_k, seed)
    weights = _attention_weights(representations, k, temperature, seed)
    combined = sum(w * rep for w, rep in zip(weights, representations))
    labels = kmeans(combined, k, seed=seed).labels
    return combined, labels


def lmgec_cluster(mvag: MVAG, k: int, knn_k: int = 10, seed=0) -> np.ndarray:
    """Clustering entry point (labels only)."""
    _, labels = lmgec_embed_and_cluster(mvag, k, knn_k=knn_k, seed=seed)
    return labels


def lmgec_embedding(
    mvag: MVAG, dim: int = 64, k: int = None, knn_k: int = 10, seed=0
) -> np.ndarray:
    """Embedding entry point (``k`` defaults to the label count or 8)."""
    if k is None:
        k = mvag.n_classes or 8
    embedding, _ = lmgec_embed_and_cluster(mvag, k, dim=dim, knn_k=knn_k, seed=seed)
    return embedding
