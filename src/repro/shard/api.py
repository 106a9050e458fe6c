"""High-level sharded entry points used by the core pipeline.

Two workloads are partitioned (ISSUE/DESIGN.md §10):

* **by view** — :func:`shard_view_laplacians` builds every view
  Laplacian of an MVAG (graph normalization + attribute KNN builds) with
  one task per view, cost-balanced so a huge attribute view does not
  serialize the dispatch.  Output is bit-identical to the in-process
  :func:`repro.core.laplacian.build_view_laplacians` for every worker
  count, because each view's build is already an independent
  deterministic computation.
* **by weight batch** — :func:`shard_objective_batch` solves the
  eigenproblems of a batch of aggregated Laplacians ``L(w_1..w_m)``
  (the SGLA+ sample stage, surface sweeps) with shared seeding: the
  first row is solved in the parent (warm-started from the solver
  context's block when one exists) and its Ritz block seeds every other
  row, making each row an independent problem whose result cannot
  depend on the partition — the determinism contract's second half.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional

import numpy as np
import scipy.sparse as sp

from repro.shard.context import ShardContext
from repro.shard.shm import inline_spec
from repro.shard.tasks import (
    csr_from_payload,
    csr_payload,
    eigensolve_task,
    view_laplacian_task,
)
from repro.solvers.base import EigenProblem
from repro.solvers.context import SolverContext, solve_tolerance
from repro.solvers.registry import get_backend as get_eigen_backend


def _share(shard: ShardContext, array: np.ndarray, dispatch: bool):
    return shard.share(array, inline=not dispatch)


def _matrix_payload(
    shard: ShardContext, matrix, dispatch: bool
) -> Dict[str, Any]:
    """Item payload (specs) for one dense or sparse view matrix."""
    if sp.issparse(matrix):
        csr = csr_payload(matrix)
        return {
            "kind": "csr",
            "data": _share(shard, csr["data"], dispatch),
            "indices": _share(shard, csr["indices"], dispatch),
            "indptr": _share(shard, csr["indptr"], dispatch),
            "shape": csr["shape"],
        }
    return {
        "kind": "dense",
        "array": _share(shard, np.asarray(matrix), dispatch),
    }


def _payload_bytes(matrix) -> int:
    if sp.issparse(matrix):
        csr = matrix.tocsr()
        return csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
    return np.asarray(matrix).nbytes


def _knn_common(
    knn_k, knn_block_size, workers, knn_backend, knn_params, neighbor_stats
) -> Dict[str, Any]:
    """The KNN-build parameters every view task shares (one pickle)."""
    return {
        "knn_k": knn_k,
        "knn_block_size": knn_block_size,
        "workers": workers,
        "knn_backend": knn_backend,
        "knn_params": dict(knn_params) if knn_params else None,
        "recall_sample": (
            neighbor_stats.recall_sample if neighbor_stats is not None else 0
        ),
    }


def _run_view_tasks(
    shard: ShardContext,
    items: List[Dict[str, Any]],
    costs: List[float],
    dispatch: bool,
    common: Dict[str, Any],
    neighbor_stats,
) -> List[sp.csr_matrix]:
    """Dispatch view-Laplacian tasks; rebuild CSRs, merge stats in order."""
    results = shard.run(
        view_laplacian_task, items, common, costs=costs, dispatch=dispatch
    )
    laplacians: List[sp.csr_matrix] = []
    for result in results:
        laplacians.append(csr_from_payload(result["laplacian"]))
        if neighbor_stats is not None and "stats" in result:
            neighbor_stats.merge(result["stats"])
    return laplacians


def shard_view_laplacians(
    mvag,
    shard: ShardContext,
    knn_k: int = 10,
    knn_block_size: int = 2048,
    workers=None,
    knn_backend: str = "exact",
    knn_params=None,
    neighbor_stats=None,
) -> List[sp.csr_matrix]:
    """Sharded equivalent of :func:`repro.core.laplacian.
    build_view_laplacians` — one task per view, paper order preserved.

    Per-view :class:`~repro.neighbors.NeighborStats` are merged into
    ``neighbor_stats`` in view order, so the counters equal the
    in-process path's exactly.
    """
    graph_views = mvag.graph_views
    attribute_views = mvag.attribute_views
    n_items = len(graph_views) + len(attribute_views)
    total_bytes = sum(
        _payload_bytes(view) for view in graph_views + attribute_views
    )
    dispatch = shard.should_dispatch(n_items, total_bytes)

    items: List[Dict[str, Any]] = []
    costs: List[float] = []
    n = mvag.n_nodes
    for adjacency in graph_views:
        items.append({
            "view": "graph",
            "payload": _matrix_payload(shard, adjacency, dispatch),
        })
        costs.append(float(max(adjacency.nnz, 1)))
    for features in attribute_views:
        items.append({
            "view": "attribute",
            "payload": _matrix_payload(shard, features, dispatch),
        })
        # Exhaustive-search cost model n^2 d; approximate backends scale
        # differently in absolute terms but comparably *across* views,
        # which is all the balancer needs.
        costs.append(float(n) * float(n) * float(features.shape[1]))

    common = _knn_common(
        knn_k, knn_block_size, workers, knn_backend, knn_params,
        neighbor_stats,
    )
    return _run_view_tasks(
        shard, items, costs, dispatch, common, neighbor_stats
    )


def shard_attribute_laplacians(
    normalized_views,
    shard: ShardContext,
    knn_k: int = 10,
    knn_block_size: int = 2048,
    workers=None,
    knn_backend: str = "exact",
    knn_params=None,
    neighbor_stats=None,
) -> List[sp.csr_matrix]:
    """KNN-graph Laplacians of already row-normalized attribute views.

    The streaming layer (:class:`repro.dynamic.stream.DynamicMVAG`)
    caches each view's normalized features and refreshes dirty views
    here — one task per view, ``assume_normalized`` set so workers skip
    the normalization pass, bit-identical to the in-process rebuild.
    """
    n_items = len(normalized_views)
    total_bytes = sum(_payload_bytes(view) for view in normalized_views)
    dispatch = shard.should_dispatch(n_items, total_bytes)
    items = []
    costs = []
    for features in normalized_views:
        items.append({
            "view": "attribute",
            "assume_normalized": True,
            "payload": _matrix_payload(shard, features, dispatch),
        })
        n = features.shape[0]
        costs.append(float(n) * float(n) * float(features.shape[1]))
    common = _knn_common(
        knn_k, knn_block_size, workers, knn_backend, knn_params,
        neighbor_stats,
    )
    return _run_view_tasks(
        shard, items, costs, dispatch, common, neighbor_stats
    )


def shard_objective_batch(
    stack,
    weight_rows: np.ndarray,
    t: int,
    method: str,
    solver: SolverContext,
    shard: ShardContext,
) -> List[np.ndarray]:
    """Bottom-``t`` eigenvalues of ``L(w)`` for every weight row.

    ``method`` is the resolved backend.  Row 0 is solved in the parent,
    warm-started from the context's block when one exists; its Ritz
    block (or that pre-existing context block, which outranks it) seeds
    every other row.  Every solve is recorded into ``solver.stats``
    under ``shard[<method>]``, and the seed solve's Ritz block is
    installed into the context so downstream stages warm-start from it.
    """
    weight_rows = np.asarray(weight_rows, dtype=np.float64)
    m = weight_rows.shape[0]
    if m == 0:
        return []
    # The dense backend ignores start vectors, and the in-process path
    # (SolverContext._one_solve) never assembles Ritz blocks for it — an
    # eigh call that also computes vectors rounds its eigenvalues
    # differently at the last ulp, so requesting vectors here would break
    # shard-vs-serial bit identity.  Mirror the same coupling.
    warm = solver.warm_start and method != "dense"
    parent_block = solver.warm_block(stack.n) if warm else None
    chunk = stack.batch_rows()
    values: List[np.ndarray] = []
    seed_block: Optional[np.ndarray] = parent_block
    for start in range(0, m, chunk):
        data_rows = stack.combine_many(weight_rows[start : start + chunk])
        local_rows = list(range(data_rows.shape[0]))
        if start == 0:
            # Seed solve in the parent: global row 0.  Ritz vectors are
            # only assembled (and shared with followers) under
            # warm_start — with it disabled every row must solve cold,
            # exactly like the in-process sequential chain.
            problem = EigenProblem(
                stack.with_data(data_rows[0]),
                t,
                tol=solver.tol,
                seed=solver.seed,
                v0=parent_block,
                want_vectors=warm,
            )
            result = get_eigen_backend(method).solve(problem)
            solver.stats.record(
                replace(result, backend=f"shard[{result.backend}]"),
                warm=parent_block is not None,
                batched=True,
                coarse=solve_tolerance(result.backend, solver.tol) > 0,
            )
            solver.seed_block(result.vectors)
            if warm and seed_block is None:
                seed_block = result.vectors
            values.append(np.array(result.values, copy=True))
            local_rows = local_rows[1:]
        if not local_rows:
            continue
        dispatch = shard.should_dispatch(len(local_rows), data_rows.nbytes)
        common = {
            "data": _share(shard, data_rows, dispatch),
            "indices": (
                shard.share_persistent(stack.indices)
                if dispatch
                else inline_spec(stack.indices)
            ),
            "indptr": (
                shard.share_persistent(stack.indptr)
                if dispatch
                else inline_spec(stack.indptr)
            ),
            "shape": tuple(stack.shape),
            "t": int(t),
            "method": method,
            "tol": float(solver.tol),
            "seed": solver.seed,
            # The seed block is re-shared per chunk: ephemeral segments
            # only live for one dispatch, and share_persistent would pin
            # one segment per batch until context close.  batch_rows()
            # targets 64 MB chunks, so multi-chunk batches (the only
            # case that re-copies) are rare.
            "v0": (
                _share(
                    shard,
                    np.ascontiguousarray(seed_block, dtype=np.float64),
                    dispatch,
                )
                if seed_block is not None
                else None
            ),
        }
        items = [{"row": row} for row in local_rows]
        results = shard.run(
            eigensolve_task, items, common, dispatch=dispatch
        )
        for result in results:
            solver.stats.merge(result["stats"])
            values.append(result["values"])
    return values
