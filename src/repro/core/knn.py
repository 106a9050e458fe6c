"""Cosine K-nearest-neighbor graph construction for attribute views.

The paper (Section III-B) turns each attribute view ``X_j`` into a KNN
graph ``G_K(X_j)``: every node connects to its ``K`` most cosine-similar
neighbors and each edge is weighted by that similarity.  The resulting
adjacency is symmetrized so the view Laplacian is well defined.

Neighbor *search* is delegated to the pluggable backends of
:mod:`repro.neighbors` (DESIGN.md §9): ``exact`` reproduces the original
blocked-GEMM construction bit-identically, ``exact-f32`` halves the
similarity-sweep bandwidth, and ``rp-forest`` replaces the O(n^2 d)
sweep with an O(n log n) random-projection forest plus exact re-rank.
This module owns what all backends share: row normalization, the
clip/weight policy, symmetrization, and the sampled recall estimate
recorded into :class:`repro.neighbors.NeighborStats`.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Union

import numpy as np
import scipy.sparse as sp

from repro.neighbors import (
    NeighborRequest,
    NeighborStats,
    get_backend,
    normalize_rows,
    resolve_backend,
)
from repro.utils.errors import ValidationError
from repro.utils.sparse import symmetrize
from repro.utils.validation import check_finite


def knn_graph(
    features: Union[np.ndarray, sp.spmatrix],
    k: int = 10,
    block_size: int = 2048,
    weighted: bool = True,
    workers: Optional[int] = None,
    backend: str = "exact",
    backend_params: Optional[Mapping[str, Any]] = None,
    seed: int = 0,
    stats: Optional[NeighborStats] = None,
    assume_normalized: bool = False,
) -> sp.csr_matrix:
    """Build the symmetric cosine KNN graph of an attribute view.

    Parameters
    ----------
    features:
        ``n x d`` attribute matrix (dense or sparse).
    k:
        Number of neighbors per node (``K`` in the paper; default 10,
        matching the paper's default setting).
    block_size:
        Rows per similarity block for the exact backends; bounds peak
        memory at ``block_size * n`` floats per in-flight block.
    weighted:
        If True (paper behaviour) edges carry the cosine similarity,
        clipped at zero; if False, edges have unit weight.
    workers:
        Thread count for concurrent similarity blocks (``None`` or
        ``<= 1`` keeps the serial path).  Peak memory grows to
        ``workers`` blocks in flight, which is why concurrency is
        opt-in — callers thread it from ``SGLAConfig.solver_workers``.
        Output is bit-identical to the serial path.
    backend:
        Neighbor-search backend key from the :mod:`repro.neighbors`
        registry (``"exact"`` — default, the paper's exhaustive search;
        ``"exact-f32"``; ``"rp-forest"``) or ``"auto"`` (exact up to
        :data:`repro.neighbors.EXACT_CUTOFF` nodes, rp-forest above).
        Small problems fall back to ``exact`` per
        :func:`repro.neighbors.resolve_backend`.
    backend_params:
        Knobs of the *requested* backend, its ``accepted_params``
        (rp-forest — also what ``"auto"`` accepts: ``n_trees``,
        ``leaf_size``, ``refine_iters``, ``refine_fanout``,
        ``sketch_dim``; exact-f32: ``tie_margin``; exact: none).  Any
        other key raises :class:`~repro.utils.errors.ValidationError`.
        The check is against the requested backend, so an rp-forest
        request that falls back to ``exact`` stays valid.
    seed:
        Determinism seed for randomized backends and recall sampling.
    stats:
        Optional :class:`repro.neighbors.NeighborStats` accumulating
        build counters and (for approximate backends) a sampled recall
        estimate across calls.
    assume_normalized:
        ``features`` are already row-normalized to unit L2 norm; skips
        the normalization pass (used by the streaming layer, which
        caches normalized views).

    Returns
    -------
    scipy.sparse.csr_matrix
        Symmetric ``n x n`` adjacency with zero diagonal.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if backend_params:
        _check_backend_params(backend, backend_params)
    check_finite(features, name="attribute view")
    n = features.shape[0]
    if n < 2:
        return sp.csr_matrix((n, n), dtype=np.float64)

    if assume_normalized:
        if sp.issparse(features):
            normalized = features.tocsr().astype(np.float64)
        else:
            normalized = np.asarray(features, dtype=np.float64)
    else:
        normalized = normalize_rows(features)

    effective_k = min(k, n - 1)
    resolved = resolve_backend(n, effective_k, backend, backend_params)
    request = NeighborRequest(
        normalized=normalized,
        k=effective_k,
        block_size=block_size,
        workers=workers,
        seed=seed,
        params=dict(backend_params or {}),
    )
    result = get_backend(resolved).neighbors(request)
    rows, cols, vals = result.rows, result.cols, result.vals

    if stats is not None:
        stats.record_build(resolved, n, result.candidate_pairs)
        if not result.exact and stats.recall_sample > 0:
            hits, total = _sampled_recall(
                normalized, rows, cols, effective_k, stats.recall_sample, seed
            )
            stats.record_recall(hits, total)

    # Cosine similarity can be negative for dissimilar nodes that were still
    # among the top-k (e.g. tiny n); negative edge weights would break the
    # normalized-Laplacian spectrum bound, so clip at zero.
    finite = np.isfinite(vals)
    rows, cols, vals = rows[finite], cols[finite], vals[finite]
    vals = np.clip(vals, 0.0, None)
    if not weighted:
        vals = (vals > 0).astype(np.float64)

    adjacency = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    adjacency = symmetrize(adjacency, mode="max")
    adjacency.setdiag(0.0)
    adjacency.eliminate_zeros()
    return adjacency


def _check_backend_params(backend: str, params: Mapping[str, Any]) -> None:
    """Refuse keys the requested backend does not read (``"auto"``
    requests accept rp-forest's keys)."""
    requested = "rp-forest" if backend == "auto" else backend
    accepted = get_backend(requested).accepted_params
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ValidationError(
            f"neighbor backend {backend!r} does not accept "
            f"{', '.join(map(repr, unknown))}; accepted: "
            f"{', '.join(accepted) or 'no params'}"
        )


def _sampled_recall(
    normalized,
    rows: np.ndarray,
    cols: np.ndarray,
    k: int,
    sample_size: int,
    seed: int,
) -> tuple:
    """Recall of the directed top-k lists on a brute-forced row sample.

    One ``sample x n`` GEMM against the normalized features gives the
    exact neighbor sets of ``sample_size`` rows; recall is the fraction
    of those ground-truth neighbors present in the approximate lists.
    Ties at the k-th similarity make this a slightly pessimistic
    estimate, which is the safe direction for a gate.
    """
    n = normalized.shape[0]
    rng = np.random.default_rng(seed)
    sample = rng.choice(n, size=min(sample_size, n), replace=False)
    sample.sort()
    block = normalized[sample].dot(normalized.T)
    if sp.issparse(block):
        block = block.toarray()
    block[np.arange(sample.size), sample] = -np.inf
    exact_idx = np.argpartition(block, -k, axis=1)[:, -k:]

    hits = 0
    total = sample.size * k
    for position, node in enumerate(sample):
        approx = cols[rows == node]
        hits += np.intersect1d(exact_idx[position], approx).size
    return hits, total
