"""Fast evaluation path for the objective hot loop (DESIGN.md §6).

Every evaluation of the spectral objective ``h(w)`` needs the aggregated
Laplacian ``L(w) = sum_i w_i L_i``.  Building it from scratch
(:func:`repro.core.laplacian.aggregate_laplacians`) merges the views'
sparsity patterns on every call.  Because the view Laplacians are *fixed*
for the whole optimization, all of that structural work can be hoisted out
of the loop:

:class:`StackedLaplacians` computes the **union sparsity pattern** of
``L_1..L_r`` once, scatters each view's data into a row of an ``(r, nnz)``
dense stack, and then produces ``L(w)`` with a single BLAS GEMV
(``weights @ data_stack``) written into a preallocated CSR buffer — no
per-evaluation sparse allocations at all.

The CSRs from :meth:`~StackedLaplacians.combine` /
:meth:`~StackedLaplacians.with_data` feed directly into the
spectral-solver registry (DESIGN.md §7): the objective hands them to its
:class:`repro.solvers.SolverContext`, and batched callers aggregate whole
chunks with :meth:`~StackedLaplacians.combine_many` and solve them row by
row, in-process or over a shard context.

Zero weights are handled naturally by the GEMV (their rows contribute
nothing); the union pattern therefore contains explicit zeros for entries
only present in zero-weighted views, which is harmless for eigensolvers.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np
import scipy.sparse as sp

from repro.utils.errors import ShapeError, ValidationError
from repro.utils.sparse import ensure_csr

# Cap on the dense block materialized by one chunk of combine_many, in bytes.
_BATCH_BLOCK_BYTES = 64 * 1024 * 1024


class StackedLaplacians:
    """Row-aligned dense stack of ``r`` sparse Laplacians on a shared pattern.

    Parameters
    ----------
    laplacians:
        The fixed view Laplacians ``L_1..L_r`` (square, identical shapes).

    Attributes
    ----------
    indptr, indices:
        The CSR structure of the union sparsity pattern (shared, read-only
        by convention, by every matrix this object hands out).
    data_stack:
        ``(r, nnz)`` C-contiguous array; row ``i`` holds ``L_i``'s data
        scattered into union positions (zeros elsewhere).
    """

    def __init__(self, laplacians: Sequence[sp.spmatrix]) -> None:
        if len(laplacians) == 0:
            raise ValidationError("need at least one Laplacian to stack")
        views: List[sp.csr_matrix] = []
        shape = None
        for laplacian in laplacians:
            csr = ensure_csr(laplacian)
            if csr.shape[0] != csr.shape[1]:
                raise ShapeError(
                    f"Laplacian must be square, got {csr.shape}"
                )
            if shape is None:
                shape = csr.shape
            elif csr.shape != shape:
                raise ShapeError(
                    f"Laplacian shape {csr.shape} != expected {shape}"
                )
            if not csr.has_canonical_format:
                # The scatter below writes one slot per (row, col) entry, so
                # duplicates must be coalesced first (copy: don't mutate the
                # caller's matrix).
                csr = csr.copy()
                csr.sum_duplicates()
            views.append(csr)
        self.shape = shape
        n = shape[0]

        # Union sparsity pattern: concatenate every view's coordinates once
        # and let a single tocsr() coalesce them (not r incremental merges).
        all_rows = np.concatenate(
            [
                np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.indptr))
                for csr in views
            ]
        )
        all_cols = np.concatenate([csr.indices for csr in views])
        pattern = sp.coo_matrix(
            (np.ones(all_rows.shape[0]), (all_rows, all_cols)), shape=shape
        ).tocsr()
        pattern.sort_indices()
        self.indptr = pattern.indptr
        self.indices = pattern.indices
        nnz = int(self.indices.shape[0])

        # Scatter each view into the union positions via a sorted-key merge:
        # flat key row * n + col is strictly increasing over canonical CSR.
        union_rows = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(self.indptr)
        )
        union_keys = union_rows * n + self.indices.astype(np.int64)
        self.data_stack = np.zeros((len(views), nnz), dtype=np.float64)
        for i, csr in enumerate(views):
            view_rows = np.repeat(
                np.arange(n, dtype=np.int64), np.diff(csr.indptr)
            )
            view_keys = view_rows * n + csr.indices.astype(np.int64)
            positions = np.searchsorted(union_keys, view_keys)
            self.data_stack[i, positions] = csr.data

        # Preallocated output: one CSR whose data buffer is rewritten in
        # place by combine(); never allocated again.
        self._matrix = sp.csr_matrix(
            (np.zeros(nnz), self.indices, self.indptr), shape=shape
        )

    # ------------------------------------------------------------------ #

    @property
    def r(self) -> int:
        """Number of stacked views."""
        return self.data_stack.shape[0]

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self.shape[0]

    @property
    def nnz(self) -> int:
        """Size of the union sparsity pattern."""
        return self.data_stack.shape[1]

    def _check_weights(self, weights) -> np.ndarray:
        weights = np.asarray(weights, dtype=np.float64).ravel()
        if weights.shape[0] != self.r:
            raise ShapeError(
                f"expected {self.r} weights, got {weights.shape[0]}"
            )
        return weights

    # ------------------------------------------------------------------ #

    def combine(self, weights) -> sp.csr_matrix:
        """``L(w)`` via one GEMV, written into the shared preallocated CSR.

        The returned matrix is **reused** by subsequent ``combine`` calls —
        it is valid until the next call and must not be stored by callers
        (use :meth:`aggregate` for a persistent copy).
        """
        weights = self._check_weights(weights)
        np.matmul(weights, self.data_stack, out=self._matrix.data)
        return self._matrix

    def aggregate(self, weights) -> sp.csr_matrix:
        """``L(w)`` as a fresh CSR safe for callers to keep."""
        weights = self._check_weights(weights)
        data = weights @ self.data_stack
        return sp.csr_matrix(
            (data, self.indices.copy(), self.indptr.copy()), shape=self.shape
        )

    def with_data(self, data: np.ndarray) -> sp.csr_matrix:
        """Wrap a precomputed ``(nnz,)`` data row in the union pattern.

        Used by batched evaluation: one GEMM produces many data rows at
        once, each of which becomes a CSR without copying the structure.
        """
        data = np.ascontiguousarray(data, dtype=np.float64)
        if data.shape != (self.nnz,):
            raise ShapeError(
                f"expected data of shape {(self.nnz,)}, got {data.shape}"
            )
        return sp.csr_matrix(
            (data, self.indices, self.indptr), shape=self.shape
        )

    def batch_rows(self) -> int:
        """How many weight rows :meth:`combine_many` should take per call
        to keep the materialized dense block under the batch byte cap."""
        return max(1, _BATCH_BLOCK_BYTES // (8 * max(self.nnz, 1)))

    def combine_many(self, weight_rows: np.ndarray) -> np.ndarray:
        """Data rows of ``L(w)`` for a batch of weight vectors.

        Materializes the full ``(m, nnz)`` block — callers wanting bounded
        memory should feed at most :meth:`batch_rows` rows per call.

        Rows are computed one GEMV at a time (the same kernel as
        :meth:`combine`) rather than as a single ``(m, r) @ (r, nnz)``
        GEMM: BLAS GEMM kernels round differently depending on the block
        height, which would make a row's data depend on *what else
        happened to share its batch*.  Row-stable aggregation is what the
        batched-equals-sequential bit-identity contract rests on (the
        sharded batch path and the serving daemon's cross-request
        batching both assert it), and the loop is as memory-bound as the
        GEMM at the small ``r`` this library sees.
        """
        weight_rows = np.asarray(weight_rows, dtype=np.float64)
        if weight_rows.ndim != 2 or weight_rows.shape[1] != self.r:
            raise ShapeError(
                f"expected (m, {self.r}) weight rows, got {weight_rows.shape}"
            )
        block = np.empty((weight_rows.shape[0], self.nnz), dtype=np.float64)
        for index in range(weight_rows.shape[0]):
            np.matmul(weight_rows[index], self.data_stack, out=block[index])
        return block
