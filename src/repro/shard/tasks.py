"""Picklable worker-side task functions for sharded dispatches.

The process pool and the in-process serial path execute exactly these
functions on exactly these payloads (:func:`repro.shard.base.
run_shard_items`), which is what makes sharded output bit-identical to
the in-process fallback: the only thing that varies with the worker
count is *where* the arithmetic runs.

Payload convention: big arrays travel as :class:`repro.shard.shm.
ArraySpec` descriptors (shared memory in process mode, inline in serial
mode); results travel back as plain picklable dicts of *fresh* ndarrays
— nothing returned may alias a shared segment, because the parent
unlinks every ephemeral segment as soon as the dispatch resolves.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import replace
from typing import Any, Dict, Optional

import numpy as np
import scipy.sparse as sp

from repro.shard.shm import ArraySpec, attached
from repro.solvers.base import EigenProblem
from repro.solvers.context import SolverStats, solve_tolerance
from repro.solvers.registry import get_backend as get_eigen_backend


def csr_payload(matrix: sp.csr_matrix) -> Dict[str, Any]:
    """A CSR matrix as a picklable dict of its three arrays + shape."""
    matrix = matrix.tocsr()
    return {
        "data": matrix.data,
        "indices": matrix.indices,
        "indptr": matrix.indptr,
        "shape": tuple(matrix.shape),
    }


def csr_from_payload(payload: Dict[str, Any]) -> sp.csr_matrix:
    """Rebuild a CSR matrix from :func:`csr_payload` output."""
    return sp.csr_matrix(
        (payload["data"], payload["indices"], payload["indptr"]),
        shape=tuple(payload["shape"]),
    )


def _attach_matrix(stack: ExitStack, item: Dict[str, Any]):
    """Materialize one view payload (dense array or CSR) from its specs."""
    if item["kind"] == "dense":
        return stack.enter_context(attached(item["array"]))
    data = stack.enter_context(attached(item["data"]))
    indices = stack.enter_context(attached(item["indices"]))
    indptr = stack.enter_context(attached(item["indptr"]))
    return sp.csr_matrix(
        (data, indices, indptr), shape=tuple(item["shape"])
    )


def view_laplacian_task(
    item: Dict[str, Any], common: Optional[Dict[str, Any]]
) -> Dict[str, Any]:
    """Build one view's normalized Laplacian (graph or attribute view).

    Graph views map straight to their normalized Laplacian; attribute
    views run the full KNN-graph construction (through the
    :mod:`repro.neighbors` registry, exactly as the in-process
    :func:`repro.core.laplacian.build_view_laplacians` would) and then
    normalize.  Returns the Laplacian as fresh CSR arrays plus, for
    attribute views, the build's :class:`~repro.neighbors.NeighborStats`
    for the parent to merge.
    """
    # Imported here (not at module top) only to keep the worker-side
    # dependency surface explicit; with the fork start method the modules
    # are inherited already loaded.
    from repro.core.knn import knn_graph
    from repro.core.laplacian import normalized_laplacian
    from repro.neighbors import NeighborStats

    common = common or {}
    with ExitStack() as stack:
        matrix = _attach_matrix(stack, item["payload"])
        if item["view"] == "graph":
            laplacian = normalized_laplacian(matrix)
            return {"laplacian": csr_payload(laplacian)}
        stats = NeighborStats(
            recall_sample=int(common.get("recall_sample", 0))
        )
        graph = knn_graph(
            matrix,
            k=common["knn_k"],
            block_size=common["knn_block_size"],
            workers=common["workers"],
            backend=common["knn_backend"],
            backend_params=common["knn_params"],
            stats=stats,
            assume_normalized=bool(item.get("assume_normalized", False)),
        )
        laplacian = normalized_laplacian(graph)
        del graph, matrix
    return {"laplacian": csr_payload(laplacian), "stats": stats}


def eigensolve_task(
    item: Dict[str, Any], common: Dict[str, Any]
) -> Dict[str, Any]:
    """Solve one weight row's ``L(w)`` for its bottom ``t`` eigenvalues.

    The aggregated data rows and the (run-persistent) union sparsity
    pattern arrive via shared memory; the row index selects this item's
    slice.  Every item is an *independent* problem — same tolerance,
    same seed, same shared warm-start block ``v0`` (the seed row's Ritz
    block) — so the result does not depend on which shard (or process)
    solved it.
    """
    row = int(item["row"])
    with ExitStack() as stack:
        data_rows = stack.enter_context(attached(common["data"]))
        indices = stack.enter_context(attached(common["indices"]))
        indptr = stack.enter_context(attached(common["indptr"]))
        v0_spec: Optional[ArraySpec] = common.get("v0")
        v0 = (
            stack.enter_context(attached(v0_spec))
            if v0_spec is not None
            else None
        )
        matrix = sp.csr_matrix(
            (data_rows[row], indices, indptr), shape=tuple(common["shape"])
        )
        problem = EigenProblem(
            matrix,
            int(common["t"]),
            tol=float(common["tol"]),
            seed=common["seed"],
            v0=v0,
            want_vectors=False,
        )
        result = get_eigen_backend(common["method"]).solve(problem)
        values = np.array(result.values, copy=True)
        del matrix, problem
    stats = SolverStats()
    stats.record(
        replace(result, backend=f"shard[{result.backend}]"),
        warm=v0_spec is not None,
        batched=True,
        coarse=solve_tolerance(result.backend, float(common["tol"])) > 0,
    )
    return {"values": values, "matvecs": result.matvecs, "stats": stats}
