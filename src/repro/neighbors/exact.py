"""Exhaustive blocked-GEMM neighbor backends: ``exact`` and ``exact-f32``.

``exact`` is the original ``knn_graph`` inner loop extracted verbatim —
every pairwise cosine similarity in row blocks, top-``k`` per row via
``argpartition`` — and is kept **bit-identical** to the pre-subsystem
output (regression-tested).  Two micro-optimizations preserve that
guarantee: the serial path reuses one preallocated block buffer (same
BLAS call, no per-block allocation), and when ``k >= n - 1`` the top-k
selection is skipped entirely because every off-diagonal entry is a
neighbor (same GEMM values, same final graph).

``exact-f32`` runs the ``O(n^2 d)`` similarity blocks in float32 — about
half the memory bandwidth and footprint of the float64 blocks, which is
what the quadratic stage is bound by — then re-ranks in float64.  The
parity guard: selection takes the top ``k + tie_margin`` candidates per
row in float32, re-scores exactly those pairs in float64, and keeps the
float64 top-``k``, so a float32 rounding flip near the k-th boundary
must beat the margin to change the graph and edge weights are always
full-precision cosines.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.neighbors.base import (
    NeighborBackend,
    NeighborRequest,
    NeighborResult,
)
from repro.neighbors.registry import register_backend

#: exact-f32 over-selects this many extra candidates per row so float32
#: rounding at the k-th boundary cannot change the float64 top-k.
DEFAULT_TIE_MARGIN = 8

#: row budget per float64 re-rank chunk (bounds the gather to ~64 MB).
_RERANK_CHUNK_FLOATS = 8_000_000


def _top_k_from_block(
    similarities: np.ndarray, row_offset: int, k: int
) -> tuple:
    """Indices/weights of the top-``k`` neighbors per row, excluding self."""
    block_size, n = similarities.shape
    rows_local = np.arange(block_size)
    self_columns = row_offset + rows_local
    valid = self_columns < n
    similarities[rows_local[valid], self_columns[valid]] = -np.inf

    k = min(k, n - 1)
    # argpartition gives the k largest in arbitrary order, which is all we
    # need — edge weights carry the actual similarity values.
    top_idx = np.argpartition(similarities, -k, axis=1)[:, -k:]
    top_val = np.take_along_axis(similarities, top_idx, axis=1)
    return top_idx, top_val


def _all_pairs_from_block(
    similarities: np.ndarray, row_offset: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every off-diagonal entry of the block — the ``k >= n - 1`` case."""
    block_size, n = similarities.shape
    keep = np.ones((block_size, n), dtype=bool)
    rows_local = np.arange(block_size)
    self_columns = row_offset + rows_local
    valid = self_columns < n
    keep[rows_local[valid], self_columns[valid]] = False
    rows = np.repeat(np.arange(row_offset, row_offset + block_size), keep.sum(axis=1))
    cols = np.broadcast_to(np.arange(n), (block_size, n))[keep]
    return rows, cols, similarities[keep]


def _similarity_block(
    normalized, start: int, stop: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """One dense row-block of the similarity matrix, optionally into ``out``.

    The buffered and unbuffered paths issue the same GEMM, so values are
    bit-identical; ``out`` only removes the per-block allocation.
    """
    if sp.issparse(normalized):
        product = normalized[start:stop].dot(normalized.T)
        if out is None:
            return product.toarray()
        view = out[: stop - start]
        product.toarray(out=view)
        return view
    if out is None:
        return normalized[start:stop].dot(normalized.T)
    view = out[: stop - start]
    np.dot(normalized[start:stop], normalized.T, out=view)
    return view


class ExactNeighborBackend(NeighborBackend):
    """Exhaustive blocked cosine search (the paper's construction)."""

    name = "exact"

    def neighbors(self, request: NeighborRequest) -> NeighborResult:
        normalized = request.normalized
        n = normalized.shape[0]
        k = min(request.k, n - 1)
        block_size = request.block_size
        full_graph = k >= n - 1

        def block_triplets(start: int, out: Optional[np.ndarray] = None):
            stop = min(start + block_size, n)
            block = _similarity_block(normalized, start, stop, out=out)
            if full_graph:
                return _all_pairs_from_block(block, start)
            top_idx, top_val = _top_k_from_block(block, start, k)
            block_rows = np.repeat(np.arange(start, stop), top_idx.shape[1])
            return block_rows, top_idx.ravel(), top_val.ravel()

        starts = range(0, n, block_size)
        workers = request.workers
        if workers is not None and workers > 1 and n > block_size:
            # Concurrent blocks each own their buffer; results assemble in
            # block order, so output stays bit-identical to serial.
            with ThreadPoolExecutor(max_workers=workers) as pool:
                blocks = list(pool.map(block_triplets, starts))
        else:
            buffer = np.empty((min(block_size, n), n), dtype=np.float64)
            blocks = [block_triplets(start, buffer) for start in starts]

        rows = np.concatenate([rows for rows, _, _ in blocks])
        cols = np.concatenate([cols for _, cols, _ in blocks])
        vals = np.concatenate([vals for _, _, vals in blocks])
        return NeighborResult(
            rows=rows,
            cols=cols,
            vals=vals,
            candidate_pairs=n * (n - 1),
            exact=True,
        )


class ExactF32NeighborBackend(NeighborBackend):
    """Float32 similarity blocks with a float64 re-rank parity guard."""

    name = "exact-f32"
    accepted_params = ("tie_margin",)

    def neighbors(self, request: NeighborRequest) -> NeighborResult:
        normalized = request.normalized
        n = normalized.shape[0]
        k = min(request.k, n - 1)
        tie_margin = int(request.params.get("tie_margin", DEFAULT_TIE_MARGIN))
        select = min(k + max(tie_margin, 0), n - 1)
        block_size = request.block_size
        low = normalized.astype(np.float32)

        def block_triplets(start: int, out: Optional[np.ndarray] = None):
            stop = min(start + block_size, n)
            block = _similarity_block(low, start, stop, out=out)
            cand_idx, _ = _top_k_from_block(block, start, select)
            cand_vals = _rerank_float64(normalized, start, stop, cand_idx)
            top = np.argpartition(cand_vals, -k, axis=1)[:, -k:]
            top_idx = np.take_along_axis(cand_idx, top, axis=1)
            top_val = np.take_along_axis(cand_vals, top, axis=1)
            block_rows = np.repeat(np.arange(start, stop), k)
            return block_rows, top_idx.ravel(), top_val.ravel()

        starts = range(0, n, block_size)
        workers = request.workers
        if workers is not None and workers > 1 and n > block_size:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                blocks = list(pool.map(block_triplets, starts))
        else:
            buffer = np.empty((min(block_size, n), n), dtype=np.float32)
            blocks = [block_triplets(start, buffer) for start in starts]

        rows = np.concatenate([rows for rows, _, _ in blocks])
        cols = np.concatenate([cols for _, cols, _ in blocks])
        vals = np.concatenate([vals for _, _, vals in blocks])
        # The f32 blocks score every pair; the f64 re-rank adds n * select
        # exact evaluations on top (not double-counted: the headline cost
        # of this backend is still the exhaustive quadratic sweep).
        return NeighborResult(
            rows=rows,
            cols=cols,
            vals=vals,
            candidate_pairs=n * (n - 1),
            exact=True,
        )


def _rerank_float64(
    normalized, start: int, stop: int, cand_idx: np.ndarray
) -> np.ndarray:
    """Exact float64 cosines of the selected candidates, chunked by rows."""
    block_rows = stop - start
    select = cand_idx.shape[1]
    if sp.issparse(normalized):
        dim = normalized.shape[1]
        chunk = max(1, _RERANK_CHUNK_FLOATS // max(select * dim, 1))
        out = np.empty((block_rows, select), dtype=np.float64)
        for offset in range(0, block_rows, chunk):
            end = min(offset + chunk, block_rows)
            repeat_rows = np.repeat(np.arange(start + offset, start + end), select)
            flat_cols = cand_idx[offset:end].ravel()
            products = normalized[repeat_rows].multiply(normalized[flat_cols])
            out[offset:end] = np.asarray(products.sum(axis=1)).reshape(
                end - offset, select
            )
        return out
    dim = normalized.shape[1]
    chunk = max(1, _RERANK_CHUNK_FLOATS // max(select * dim, 1))
    out = np.empty((block_rows, select), dtype=np.float64)
    for offset in range(0, block_rows, chunk):
        end = min(offset + chunk, block_rows)
        gathered = normalized[cand_idx[offset:end].ravel()]
        gathered = gathered.reshape(end - offset, select, dim)
        out[offset:end] = np.einsum(
            "rd,rsd->rs", normalized[start + offset : start + end], gathered
        )
    return out


register_backend(ExactNeighborBackend())
register_backend(ExactF32NeighborBackend())
