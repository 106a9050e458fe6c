"""Normalized Laplacians, view Laplacians, and weighted aggregation.

Implements the spectral substrate of the paper's Section III:

* ``normalized_laplacian`` — ``L(G) = I - D^{-1/2} A D^{-1/2}``;
* ``build_view_laplacians`` — one Laplacian per view of an MVAG (graph
  views directly, attribute views via their cosine KNN graph);
* ``aggregate_laplacians`` — the MVAG Laplacian ``L = sum_i w_i L_i``
  of Eq. (1).

Isolated nodes (zero degree) keep a diagonal entry of 1 in the normalized
Laplacian, which preserves the ``[0, 2]`` spectrum bound and matches the
convention of treating them as their own trivial component.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from typing import List, Sequence

import numpy as np
import scipy.sparse as sp

from repro.core.knn import knn_graph
from repro.core.mvag import MVAG
from repro.neighbors import normalize_rows
from repro.utils.errors import ShapeError, ValidationError
from repro.utils.sparse import degree_vector, ensure_csr, sparse_identity
from repro.utils.validation import check_weights


def _inverse_sqrt_degrees(adjacency: sp.csr_matrix) -> np.ndarray:
    degrees = degree_vector(adjacency)
    inv_sqrt = np.zeros_like(degrees)
    positive = degrees > 0
    inv_sqrt[positive] = 1.0 / np.sqrt(degrees[positive])
    return inv_sqrt


def normalized_adjacency(adjacency) -> sp.csr_matrix:
    """Symmetrically normalized adjacency ``D^{-1/2} A D^{-1/2}``."""
    adjacency = ensure_csr(adjacency)
    if adjacency.shape[0] != adjacency.shape[1]:
        raise ShapeError(f"adjacency must be square, got {adjacency.shape}")
    inv_sqrt = _inverse_sqrt_degrees(adjacency)
    scaling = sp.diags(inv_sqrt)
    return scaling.dot(adjacency).dot(scaling).tocsr()


def normalized_laplacian(adjacency) -> sp.csr_matrix:
    """Normalized Laplacian ``I - D^{-1/2} A D^{-1/2}`` of a simple graph.

    The input adjacency must be square and nonnegative; it is not required
    to be symmetric here (MVAG canonicalizes its views), but the spectral
    guarantees of the paper assume symmetry.
    """
    adjacency = ensure_csr(adjacency)
    n = adjacency.shape[0]
    return (sparse_identity(n) - normalized_adjacency(adjacency)).tocsr()


_STREAM_CHUNK_ROWS = 65536


@contextmanager
def _streamed_normalized(features: np.memmap, chunk_rows: int = _STREAM_CHUNK_ROWS):
    """Disk-backed row-normalized copy of a memmapped dense view.

    :func:`repro.neighbors.normalize_rows` normalizes one
    ``chunk_rows x d`` block at a time, so no more than one block sits
    in anonymous memory: the normalized matrix lands in a temporary
    ``.npy`` memmap, which the KNN backends then read through the page
    cache.  The temp file is removed on exit.
    """
    handle, temp_path = tempfile.mkstemp(suffix=".npy")
    os.close(handle)
    try:
        normalized = np.lib.format.open_memmap(
            temp_path, mode="w+", dtype=np.float64, shape=features.shape
        )
        for start in range(0, features.shape[0], chunk_rows):
            stop = start + chunk_rows
            normalized[start:stop] = normalize_rows(features[start:stop])
        normalized.flush()
        yield normalized
        del normalized
    finally:
        os.unlink(temp_path)


def build_view_laplacians(
    mvag: MVAG,
    knn_k: int = 10,
    knn_block_size: int = 2048,
    workers=None,
    knn_backend: str = "exact",
    knn_params=None,
    neighbor_stats=None,
    shard=None,
) -> List[sp.csr_matrix]:
    """Compute the ``r`` view Laplacians of an MVAG (paper Section III-B).

    Graph views map to their normalized Laplacian; attribute views map to
    the normalized Laplacian of their cosine KNN graph with ``K = knn_k``
    neighbors.  ``workers`` (from ``SGLAConfig.solver_workers``) enables
    the KNN build's concurrent similarity blocks — bit-identical output.
    ``knn_backend`` / ``knn_params`` select the neighbor-search backend
    from the :mod:`repro.neighbors` registry (DESIGN.md §9), and
    ``neighbor_stats`` optionally accumulates build counters and the
    sampled recall estimate across the attribute views.  ``shard``
    optionally names a :class:`repro.shard.ShardContext` (DESIGN.md §10)
    that partitions the per-view builds over its process pool — output
    and stats are bit-identical to the in-process path for every worker
    count.

    Returns the Laplacians in paper order: graph views first, then
    attribute views.
    """
    if shard is not None:
        # Local import: repro.shard.tasks reaches back into this module
        # from its worker functions.
        from repro.shard.api import shard_view_laplacians

        return shard_view_laplacians(
            mvag,
            shard,
            knn_k=knn_k,
            knn_block_size=knn_block_size,
            workers=workers,
            knn_backend=knn_backend,
            knn_params=knn_params,
            neighbor_stats=neighbor_stats,
        )
    laplacians = [normalized_laplacian(a) for a in mvag.graph_views]
    for features in mvag.attribute_views:
        if isinstance(features, np.memmap):
            # Out-of-core view (MemmapMVAG): stream the normalization
            # through a bounded chunk buffer instead of materializing a
            # dense n x d copy, then let the backend read the normalized
            # memmap directly.
            with _streamed_normalized(features) as normalized:
                graph = knn_graph(
                    normalized,
                    k=knn_k,
                    block_size=knn_block_size,
                    workers=workers,
                    backend=knn_backend,
                    backend_params=knn_params,
                    stats=neighbor_stats,
                    assume_normalized=True,
                )
        else:
            graph = knn_graph(
                features,
                k=knn_k,
                block_size=knn_block_size,
                workers=workers,
                backend=knn_backend,
                backend_params=knn_params,
                stats=neighbor_stats,
            )
        laplacians.append(normalized_laplacian(graph))
    return laplacians


def aggregate_laplacians(
    laplacians: Sequence[sp.spmatrix], weights
) -> sp.csr_matrix:
    """The MVAG Laplacian ``L = sum_i w_i L_i`` of Eq. (1).

    ``weights`` must lie on the probability simplex (checked).

    The sum is built in a single coalescing pass: all nonzero-weight terms'
    COO triplets are concatenated once and merged by one ``tocsr`` (which
    sums duplicates), instead of ``r`` incremental CSR additions that each
    reallocate and re-merge the partial result.  For repeated evaluations
    over *fixed* Laplacians, prefer
    :class:`repro.core.fastpath.StackedLaplacians`, which hoists even this
    single merge out of the loop.
    """
    if len(laplacians) == 0:
        raise ValidationError("need at least one Laplacian to aggregate")
    weights = check_weights(weights, r=len(laplacians))
    n = laplacians[0].shape[0]
    terms = []
    for weight, laplacian in zip(weights, laplacians):
        if laplacian.shape != (n, n):
            raise ShapeError(
                f"Laplacian shape {laplacian.shape} != expected {(n, n)}"
            )
        if weight != 0.0:
            terms.append((weight, ensure_csr(laplacian)))
    if not terms:
        return sp.csr_matrix((n, n), dtype=np.float64)
    if len(terms) == 1:
        weight, laplacian = terms[0]
        result = (laplacian * weight).tocsr()
        result.sum_duplicates()  # canonicalize, matching the summed branches
        return result
    rows = np.concatenate(
        [
            np.repeat(np.arange(n, dtype=np.int64), np.diff(term.indptr))
            for _, term in terms
        ]
    )
    cols = np.concatenate([term.indices for _, term in terms])
    data = np.concatenate([weight * term.data for weight, term in terms])
    result = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    result.sort_indices()
    return result


def aggregate_adjacencies(
    mvag: MVAG,
    knn_k: int = 10,
    knn_backend: str = "exact",
    knn_params=None,
    neighbor_stats=None,
) -> sp.csr_matrix:
    """Plain (unnormalized) adjacency aggregation — the "Graph-Agg" ablation.

    Sums raw adjacency matrices of graph views and KNN graphs of attribute
    views with equal weights, without Laplacian normalization.  Used as a
    Fig. 11 alternative-integration baseline.
    """
    n = mvag.n_nodes
    total = sp.csr_matrix((n, n), dtype=np.float64)
    for adjacency in mvag.graph_views:
        total = total + adjacency
    for features in mvag.attribute_views:
        total = total + knn_graph(
            features,
            k=knn_k,
            backend=knn_backend,
            backend_params=knn_params,
            stats=neighbor_stats,
        )
    return total.tocsr()
