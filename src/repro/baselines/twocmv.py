"""2CMV — consensus + complementary multi-view factorization [26].

Luong & Nayak (ICDE'20) factorize each view's similarity matrix as
``K_v ~ H (C + D_v) H^T`` where ``H`` is a shared nonnegative node-factor
matrix, ``C`` a consensus core shared by all views, and ``D_v`` per-view
complementary cores.  We reconstruct this with multiplicative NMF updates
on dense view similarities (quadratic, like the original), and read
clusters off the dominant factor per node.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import filtered_view_features
from repro.neighbors import normalize_rows
from repro.utils.errors import ValidationError
from repro.utils.random import check_random_state

_NODE_LIMIT = 12000
_EPS = 1e-10


def twocmv_cluster(
    mvag,
    k: int,
    n_iterations: int = 40,
    filter_order: int = 2,
    knn_k: int = 10,
    seed=0,
) -> np.ndarray:
    """Cluster via consensus+complementary tri-factorization."""
    if mvag.n_nodes > _NODE_LIMIT:
        raise MemoryError(
            f"2CMV materializes n x n similarities; n={mvag.n_nodes} "
            f"exceeds the {_NODE_LIMIT} limit (matches the paper's OOM rows)"
        )
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    rng = check_random_state(seed)

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
    n = similarities[0].shape[0]

    factor = np.abs(rng.standard_normal((n, k))) + 0.1  # H
    consensus_core = np.eye(k)  # C
    complementary = [0.1 * np.eye(k) for _ in range(r)]  # D_v

    for _ in range(n_iterations):
        # Update H with all views' cores fixed.
        numerator = np.zeros((n, k))
        denominator = np.zeros((n, k))
        for similarity, extra in zip(similarities, complementary):
            core = consensus_core + extra
            numerator += similarity @ factor @ core.T
            denominator += factor @ (
                core @ (factor.T @ factor) @ core.T
            )
        factor *= numerator / np.maximum(denominator, _EPS)

        # Update the shared consensus core and per-view complements.
        gram = factor.T @ factor
        projected = [factor.T @ s @ factor for s in similarities]
        core_numerator = sum(projected)
        core_denominator = sum(
            gram @ (consensus_core + extra) @ gram for extra in complementary
        )
        consensus_core *= core_numerator / np.maximum(core_denominator, _EPS)
        for v in range(r):
            extra_numerator = projected[v]
            extra_denominator = gram @ (consensus_core + complementary[v]) @ gram
            complementary[v] *= extra_numerator / np.maximum(
                extra_denominator, _EPS
            )

    return np.argmax(factor, axis=1).astype(np.int64)
