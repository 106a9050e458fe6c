"""A mutable multi-view attributed graph for streaming updates.

:class:`DynamicMVAG` wraps the static :class:`~repro.core.mvag.MVAG` data
model with edge-level update operations on graph views and row-level
updates on attribute views.  View Laplacians are maintained incrementally:
an edge update touches only the rows/columns of its endpoints (the
normalized Laplacian of node pairs whose degree changed), so a batch of
``u`` updates costs ``O(u * d_max)`` instead of a full rebuild.

Attribute views cache their **row-normalized feature matrix**, and an
update renormalizes only its row (``O(d)`` for dense views instead of
the full ``O(n d)`` pass per refresh), through
:func:`~repro.neighbors.normalize_rows` like every row of a cold build.
A dirty attribute view's KNN graph is rebuilt from that cache with
whatever ``knn_backend`` is configured — through the shard context when
one is set — so a streamed view always equals
``build_view_laplacians(snapshot())``, bit for bit (DESIGN.md §9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from repro.core.knn import knn_graph
from repro.core.laplacian import normalized_laplacian
from repro.core.mvag import MVAG
from repro.neighbors import NeighborStats, normalize_rows
from repro.shard import ShardContext, shard_attribute_laplacians
from repro.utils.errors import ValidationError
from repro.utils.sparse import ensure_csr
from repro.utils.validation import check_finite


def _replace_csr_row(
    matrix: sp.csr_matrix, index: int, row: sp.csr_matrix
) -> sp.csr_matrix:
    """CSR with row ``index`` replaced by the one-row CSR ``row``.

    Rebuilds only the three CSR arrays around the row's nonzeros — a
    memcpy-level splice — instead of converting the whole matrix
    through LIL or renormalizing from scratch.
    """
    start, stop = matrix.indptr[index], matrix.indptr[index + 1]
    data = np.concatenate([matrix.data[:start], row.data, matrix.data[stop:]])
    indices = np.concatenate(
        [matrix.indices[:start], row.indices, matrix.indices[stop:]]
    )
    indptr = matrix.indptr.copy()
    indptr[index + 1 :] += row.nnz - (stop - start)
    return sp.csr_matrix((data, indices, indptr), shape=matrix.shape)


@dataclass(frozen=True)
class EdgeUpdate:
    """One edge mutation on a graph view.

    Attributes
    ----------
    view:
        Index of the graph view (0-based).
    u, v:
        Endpoint node indices (``u != v``).
    weight:
        New edge weight; 0 deletes the edge.
    """

    view: int
    u: int
    v: int
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise ValidationError("self-loops are not allowed in graph views")
        if self.weight < 0:
            raise ValidationError(f"edge weight must be >= 0, got {self.weight}")


class DynamicMVAG:
    """A multi-view attributed graph supporting streaming updates.

    Parameters
    ----------
    mvag:
        Initial snapshot (copied; the original is not mutated).
    knn_k:
        Neighbors for attribute-view KNN graphs.
    knn_backend:
        Neighbor-search backend for attribute-view KNN rebuilds (any
        :mod:`repro.neighbors` registry key or ``"auto"``).
    knn_params:
        Backend-specific knobs forwarded to :func:`repro.core.knn.
        knn_graph`.
    shard:
        Optional :class:`repro.shard.ShardContext` (not owned; the
        caller closes it).  When set — or when ``shard_workers`` is
        given, in which case an owned context is created lazily and
        released by :meth:`close` — a streaming refresh that leaves
        multiple attribute views dirty rebuilds their KNN Laplacians in
        parallel over the process pool, one shard per view, using the
        cached row-normalized features (bit-identical to the in-process
        rebuild, for every backend).
    shard_workers:
        Shortcut that lazily creates an owned context (mirrors
        :class:`repro.core.sgla.SGLAConfig`).

    Notes
    -----
    Graph views are held in LIL format during mutation (cheap single-entry
    writes) and converted to CSR lazily when Laplacians are requested.
    """

    def __init__(
        self,
        mvag: MVAG,
        knn_k: int = 10,
        knn_backend: str = "exact",
        knn_params: Optional[dict] = None,
        shard: Optional[ShardContext] = None,
        shard_workers: Optional[int] = None,
    ) -> None:
        self._n = mvag.n_nodes
        self._knn_k = int(knn_k)
        self._knn_backend = knn_backend
        self._knn_params = dict(knn_params or {})
        self._graphs: List[sp.lil_matrix] = [
            adjacency.tolil(copy=True) for adjacency in mvag.graph_views
        ]
        self._attributes: List = [
            view.copy() if sp.issparse(view) else np.array(view, copy=True)
            for view in mvag.attribute_views
        ]
        self.labels = None if mvag.labels is None else mvag.labels.copy()
        self.name = mvag.name
        # Laplacian cache per view; invalidated on mutation.
        self._laplacians: Dict[int, sp.csr_matrix] = {}
        self._attr_graph_dirty = [False] * len(self._attributes)
        self._updates_since_snapshot = 0
        # Per-view row-normalized features, built lazily on first use;
        # an update renormalizes only its row.
        self._normalized: Dict[int, Union[np.ndarray, sp.csr_matrix]] = {}
        #: KNN-build counters across streaming rebuilds (observable).
        self.neighbor_stats = NeighborStats()
        self._shard = shard
        self._owns_shard = False
        if shard is None and shard_workers:
            self._shard = ShardContext(workers=shard_workers)
            self._owns_shard = True

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def n_nodes(self) -> int:
        """Number of nodes (fixed; node arrivals are out of scope)."""
        return self._n

    @property
    def n_graph_views(self) -> int:
        """Number of graph views."""
        return len(self._graphs)

    @property
    def n_attribute_views(self) -> int:
        """Number of attribute views."""
        return len(self._attributes)

    @property
    def n_views(self) -> int:
        """Total number of views."""
        return self.n_graph_views + self.n_attribute_views

    @property
    def updates_since_snapshot(self) -> int:
        """Mutations applied since the last :meth:`snapshot` call."""
        return self._updates_since_snapshot

    # ------------------------------------------------------------------ #
    # Mutations
    # ------------------------------------------------------------------ #

    def apply_edge_update(self, update: EdgeUpdate) -> None:
        """Set one (undirected) edge weight on a graph view."""
        if not 0 <= update.view < len(self._graphs):
            raise ValidationError(f"no graph view {update.view}")
        if not (0 <= update.u < self._n and 0 <= update.v < self._n):
            raise ValidationError("edge endpoints out of range")
        if not np.isfinite(update.weight):
            raise ValidationError(
                f"edge weight must be finite, got {update.weight}"
            )
        graph = self._graphs[update.view]
        graph[update.u, update.v] = update.weight
        graph[update.v, update.u] = update.weight
        self._laplacians.pop(update.view, None)
        self._updates_since_snapshot += 1

    def apply_edge_updates(self, updates: Sequence[EdgeUpdate]) -> None:
        """Apply a batch of edge updates."""
        for update in updates:
            self.apply_edge_update(update)

    def update_attributes(self, view: int, node: int, values) -> None:
        """Replace one node's attribute row in an attribute view."""
        if not 0 <= view < len(self._attributes):
            raise ValidationError(f"no attribute view {view}")
        if not 0 <= node < self._n:
            raise ValidationError("node index out of range")
        values = np.asarray(values, dtype=np.float64).ravel()
        # Reject NaN/inf at the mutation boundary: a poisoned row would
        # otherwise surface later, inside a shard worker, where the
        # resulting ValidationError costs a dispatch instead of a call.
        check_finite(values, name="attribute update values")
        attributes = self._attributes[view]
        if values.shape[0] != attributes.shape[1]:
            raise ValidationError(
                f"expected {attributes.shape[1]} attribute values, "
                f"got {values.shape[0]}"
            )
        # The updated row in the view's own format: one dense row, or a
        # one-row CSR spliced in instead of full tolil/tocsr round trips.
        row = values[None, :]
        if sp.issparse(attributes):
            row = sp.csr_matrix(row)
            self._attributes[view] = _replace_csr_row(
                attributes.tocsr(), node, row
            )
        else:
            attributes[node] = values
        self._refresh_normalized_row(view, node, row)
        self._attr_graph_dirty[view] = True
        graph_offset = len(self._graphs)
        self._laplacians.pop(graph_offset + view, None)
        self._updates_since_snapshot += 1

    def _refresh_normalized_row(self, view: int, node: int, row) -> None:
        """Patch one row of the cached normalized features, if cached.

        ``row`` is the updated row as a one-row matrix in the view's
        format (dense or CSR); :func:`normalize_rows` normalizes it as
        it normalizes every row of a cold build, so the cache stays
        equal to one.  ``O(d)`` in place for dense views, one CSR row
        splice for sparse views, instead of the full ``O(n d)``
        normalization on the next KNN rebuild.
        """
        cached = self._normalized.get(view)
        if cached is None:
            return
        normalized = normalize_rows(row)
        if sp.issparse(cached):
            self._normalized[view] = _replace_csr_row(cached, node, normalized)
        else:
            cached[node] = normalized[0]

    # ------------------------------------------------------------------ #
    # Views out
    # ------------------------------------------------------------------ #

    def view_laplacian(self, index: int) -> sp.csr_matrix:
        """Current normalized Laplacian of view ``index`` (cached)."""
        if index in self._laplacians:
            return self._laplacians[index]
        if index < len(self._graphs):
            laplacian = normalized_laplacian(
                ensure_csr(self._graphs[index].tocsr())
            )
        else:
            attr_index = index - len(self._graphs)
            if not 0 <= attr_index < len(self._attributes):
                raise ValidationError(f"no view {index}")
            graph = self._attribute_knn_graph(attr_index)
            laplacian = normalized_laplacian(graph)
            self._attr_graph_dirty[attr_index] = False
        self._laplacians[index] = laplacian
        return laplacian

    def _normalized_view(self, attr_index: int):
        """The cached row-normalized features of one attribute view."""
        normalized = self._normalized.get(attr_index)
        if normalized is None:
            normalized = normalize_rows(self._attributes[attr_index])
            self._normalized[attr_index] = normalized
        return normalized

    def _attribute_knn_graph(self, attr_index: int) -> sp.csr_matrix:
        """KNN graph of one attribute view from its normalized cache."""
        return knn_graph(
            self._normalized_view(attr_index),
            k=self._knn_k,
            backend=self._knn_backend,
            backend_params=self._knn_params,
            stats=self.neighbor_stats,
            assume_normalized=True,
        )

    def _sharded_attribute_refresh(self) -> None:
        """Rebuild every stale attribute-view Laplacian in one dispatch.

        One shard per dirty view, using the cached normalized features;
        bit-identical to the per-view in-process rebuild.  A single
        dirty view is left to the in-process path (nothing to fan out
        over).
        """
        shard = self._shard
        if shard is None:
            return
        offset = len(self._graphs)
        pending = [
            attr_index
            for attr_index in range(len(self._attributes))
            if offset + attr_index not in self._laplacians
        ]
        if len(pending) < 2:
            return
        laplacians = shard_attribute_laplacians(
            [self._normalized_view(attr_index) for attr_index in pending],
            shard,
            knn_k=self._knn_k,
            knn_backend=self._knn_backend,
            knn_params=self._knn_params,
            neighbor_stats=self.neighbor_stats,
        )
        for attr_index, laplacian in zip(pending, laplacians):
            self._laplacians[offset + attr_index] = laplacian
            self._attr_graph_dirty[attr_index] = False

    def view_laplacians(self) -> List[sp.csr_matrix]:
        """All current view Laplacians, paper order.

        With a shard context, stale attribute views are refreshed in one
        parallel dispatch first (:meth:`_sharded_attribute_refresh`);
        everything still missing is then built in-process as before.
        """
        self._sharded_attribute_refresh()
        return [self.view_laplacian(i) for i in range(self.n_views)]

    def close(self) -> None:
        """Release the owned shard context (no-op when none is owned)."""
        if self._owns_shard and self._shard is not None:
            self._shard.close()
            self._shard = None

    def snapshot(self) -> MVAG:
        """An immutable MVAG snapshot of the current state."""
        self._updates_since_snapshot = 0
        return MVAG(
            graph_views=[g.tocsr() for g in self._graphs],
            attribute_views=[
                a.copy() if sp.issparse(a) else np.array(a, copy=True)
                for a in self._attributes
            ],
            labels=self.labels,
            name=self.name,
        )
