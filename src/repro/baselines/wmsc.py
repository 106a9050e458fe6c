"""WMSC — weighted multi-view spectral clustering [10], reimplemented.

Zong et al. (AAAI'18) weight views by a spectral-perturbation argument:
views whose spectral embeddings agree should dominate, outliers should be
down-weighted.  Our reconstruction keeps that core: compute a per-view
spectral embedding, measure pairwise subspace affinity with the projection
Frobenius inner product ``||U_i^T U_j||_F^2 / k`` (one minus the average
squared canonical angle cosine gap), weight views by the principal
eigenvector of the affinity matrix, and cluster the weighted concatenation.

Note: WMSC ignores attribute semantics beyond their KNN structure — the
paper's Table III shows it trailing on attribute-rich MVAGs, which this
reconstruction preserves.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cluster.kmeans import kmeans
from repro.cluster.spectral import spectral_embedding_matrix
from repro.core.laplacian import build_view_laplacians
from repro.core.mvag import MVAG
from repro.embedding.svd import randomized_svd
from repro.solvers import SolverContext
from repro.utils.errors import ValidationError


def _principal_eigenvector(matrix: np.ndarray, n_iter: int = 100) -> np.ndarray:
    vector = np.full(matrix.shape[0], 1.0 / matrix.shape[0])
    for _ in range(n_iter):
        updated = matrix @ vector
        norm = np.linalg.norm(updated)
        if norm == 0:
            break
        updated /= norm
        if np.linalg.norm(updated - vector) < 1e-12:
            vector = updated
            break
        vector = updated
    vector = np.abs(vector)
    total = vector.sum()
    return vector / total if total > 0 else np.full_like(vector, 1.0 / vector.size)


def wmsc_cluster(
    mvag: MVAG,
    k: int,
    knn_k: int = 10,
    seed=0,
    solver: Optional[SolverContext] = None,
) -> np.ndarray:
    """Cluster an MVAG with spectral-perturbation view weighting.

    ``solver`` optionally routes the per-view eigensolves through a shared
    :class:`repro.solvers.SolverContext` (its backend policy, warm-start
    blocks and statistics).
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    laplacians = build_view_laplacians(mvag, knn_k=knn_k)
    embeddings = [
        spectral_embedding_matrix(laplacian, k, seed=seed, solver=solver)
        for laplacian in laplacians
    ]
    r = len(embeddings)

    affinity = np.eye(r)
    for i in range(r):
        for j in range(i + 1, r):
            overlap = embeddings[i].T @ embeddings[j]
            affinity[i, j] = affinity[j, i] = float(
                (overlap * overlap).sum()
            ) / float(k)
    weights = _principal_eigenvector(affinity)

    stacked = np.hstack(
        [np.sqrt(weight) * emb for weight, emb in zip(weights, embeddings)]
    )
    basis, _, _ = randomized_svd(stacked, rank=k, seed=seed)
    norms = np.linalg.norm(basis, axis=1)
    norms[norms == 0] = 1.0
    return kmeans(basis / norms[:, None], k, seed=seed).labels
