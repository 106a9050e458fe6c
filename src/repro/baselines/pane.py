"""PANE — scalable attributed network embedding [18], reimplemented.

Yang et al. (VLDB) embed attributed graphs from random-walk-with-restart
affinities between nodes and attributes, factorized jointly.  Our
reconstruction computes the forward affinity ``F = sum_t alpha (1-alpha)^t
P^t X`` (``P`` the row-stochastic transition matrix, ``X`` row-normalized
attributes) with sparse matrix powers, then takes the node factors of a
truncated SVD of ``F`` — the same affinity-then-factorize structure at the
same near-linear cost.

As in the paper, PANE is applied to an MVAG by *aggregating* the graph
views' adjacency matrices and *concatenating* the attribute views.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.baselines.common import feature_matrix
from repro.core.mvag import MVAG
from repro.embedding.svd import randomized_svd
from repro.neighbors import normalize_rows
from repro.utils.errors import ValidationError
from repro.utils.sparse import degree_vector
from repro.utils.validation import check_embedding_dim


def pane_embedding(
    mvag: MVAG,
    dim: int = 64,
    alpha: float = 0.5,
    n_hops: int = 10,
    target_dim: int = 256,
    seed=0,
) -> np.ndarray:
    """PANE-style node embedding of an MVAG.

    Parameters
    ----------
    alpha:
        Restart probability of the random walk.
    n_hops:
        Truncation length of the RWR series.
    target_dim:
        Cap on the concatenated-attribute width before propagation.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValidationError(f"alpha must be in (0, 1], got {alpha}")
    n = mvag.n_nodes
    dim = check_embedding_dim(dim, n)

    aggregated = sp.csr_matrix((n, n), dtype=np.float64)
    for adjacency in mvag.graph_views:
        aggregated = aggregated + adjacency
    degrees = degree_vector(aggregated)
    inv_deg = np.zeros_like(degrees)
    positive = degrees > 0
    inv_deg[positive] = 1.0 / degrees[positive]
    transition = sp.diags(inv_deg).dot(aggregated).tocsr()

    features = normalize_rows(
        feature_matrix(mvag, target_dim=target_dim, seed=seed)
    )
    affinity = alpha * features.copy()
    propagated = features
    decay = alpha
    for _ in range(n_hops):
        propagated = np.asarray(transition @ propagated)
        decay *= 1.0 - alpha
        affinity += decay * propagated

    u, s, _ = randomized_svd(affinity, rank=dim, seed=seed)
    embedding = u * np.sqrt(s)[None, :]
    if embedding.shape[1] < dim:
        embedding = np.hstack(
            [embedding, np.zeros((n, dim - embedding.shape[1]))]
        )
    return embedding
