"""End-to-end MVAG pipelines: integrate, then cluster or embed.

These are the two paper workflows (Section III-B):

* clustering — integrate all views into ``L`` and run multiclass spectral
  clustering on its bottom eigenvectors;
* embedding — integrate into ``L`` and run a matrix-factorization network
  embedding (NetMF on small/medium graphs, the SketchNE-style method at
  scale, mirroring the paper's dataset-dependent choice).

Both take an MVAG or its prebuilt view Laplacians, as
:meth:`repro.core.sgla.SGLA.fit` does: once the views are Laplacians,
nothing downstream reads the MVAG again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cluster.spectral import spectral_clustering
from repro.core.integration import IntegrationResult, integrate
from repro.core.mvag import is_mvag_like
from repro.core.sgla import InputLike, SGLAConfig
from repro.embedding.netmf import _DENSE_NODE_LIMIT, netmf_from_laplacian
from repro.embedding.sketchne import sketchne_embedding
from repro.neighbors import NeighborStats
from repro.shard import ShardContext, shard_scope
from repro.solvers import SolverContext
from repro.utils.errors import ValidationError


@dataclass
class ClusterOutput:
    """Labels plus the integration provenance."""

    labels: np.ndarray
    integration: IntegrationResult


@dataclass
class EmbedOutput:
    """Node embedding plus the integration provenance."""

    embedding: np.ndarray
    integration: IntegrationResult
    backend: str  # "netmf" or "sketchne"


def _cluster_count(data: InputLike, k: Optional[int]) -> int:
    """``k``, else the MVAG's label count; a Laplacian list needs ``k``."""
    if k is None and is_mvag_like(data):
        k = data.n_classes
    if k is None:
        raise ValidationError(
            "k must be given for an unlabeled MVAG or a Laplacian list"
        )
    return k


def cluster_mvag(
    data: InputLike,
    k: Optional[int] = None,
    method: str = "sgla+",
    config: Optional[SGLAConfig] = None,
    assign: str = "discretize",
    seed=0,
    solver: Optional[SolverContext] = None,
    neighbor_stats: Optional[NeighborStats] = None,
    shard: Optional[ShardContext] = None,
) -> ClusterOutput:
    """Cluster an MVAG end to end.

    Parameters
    ----------
    data:
        The multi-view attributed graph, or its prebuilt view Laplacians
        (then ``k`` is required, and ``method="graph-agg"``, which sums
        raw adjacencies, is refused).
    k:
        Cluster count (defaults to the MVAG's label count).
    method:
        Integration strategy (see :data:`repro.core.integration.
        INTEGRATION_METHODS`).
    config:
        SGLA hyperparameters (paper defaults when omitted).
    assign:
        Spectral assignment step: ``"discretize"`` or ``"kmeans"``.
    solver:
        Optional shared :class:`repro.solvers.SolverContext` used by both
        the integration and the clustering eigensolve, so the final
        objective solve's Ritz block warm-starts the clustering stage.
    neighbor_stats:
        Optional shared :class:`repro.neighbors.NeighborStats`
        accumulating the KNN-build counters of the integration stage.
    shard:
        Optional shared :class:`repro.shard.ShardContext` (DESIGN.md
        §10); built from ``config.shard_workers`` when omitted (and then
        closed before returning), so one persistent process pool serves
        the whole pipeline invocation.
    """
    k = _cluster_count(data, k)
    with shard_scope(config or SGLAConfig(), shard) as scoped:
        integration = integrate(
            data, k=k, method=method, config=config, solver=solver,
            neighbor_stats=neighbor_stats, shard=scoped,
        )
    labels = spectral_clustering(
        integration.laplacian, k=k, assign=assign, seed=seed, solver=solver
    )
    return ClusterOutput(labels=labels, integration=integration)


def embed_mvag(
    data: InputLike,
    k: Optional[int] = None,
    dim: int = 64,
    method: str = "sgla+",
    config: Optional[SGLAConfig] = None,
    backend: str = "auto",
    seed=0,
    solver: Optional[SolverContext] = None,
    neighbor_stats: Optional[NeighborStats] = None,
    shard: Optional[ShardContext] = None,
) -> EmbedOutput:
    """Embed an MVAG end to end.

    Parameters
    ----------
    data:
        The multi-view attributed graph, or its prebuilt view Laplacians
        (then ``k`` is required; see :func:`cluster_mvag`).
    dim:
        Embedding dimensionality (the paper fixes 64).
    backend:
        ``"netmf"``, ``"sketchne"``, or ``"auto"`` (NetMF when the dense
        NetMF matrix over the integrated Laplacian's n nodes fits,
        SketchNE-style otherwise — the paper's policy).
    solver:
        Optional shared :class:`repro.solvers.SolverContext` used by both
        the integration and the embedding eigensolve.
    neighbor_stats:
        Optional shared :class:`repro.neighbors.NeighborStats`
        accumulating the KNN-build counters of the integration stage.
    shard:
        Optional shared :class:`repro.shard.ShardContext` (DESIGN.md
        §10); built from ``config.shard_workers`` when omitted (and then
        closed before returning).
    """
    k = _cluster_count(data, k)
    with shard_scope(config or SGLAConfig(), shard) as scoped:
        integration = integrate(
            data, k=k, method=method, config=config, solver=solver,
            neighbor_stats=neighbor_stats, shard=scoped,
        )
    laplacian = integration.laplacian

    if backend == "auto":
        n = laplacian.shape[0]
        backend = "netmf" if n <= min(_DENSE_NODE_LIMIT, 8000) else "sketchne"
    if backend == "netmf":
        embedding = netmf_from_laplacian(laplacian, dim=dim, seed=seed, solver=solver)
    elif backend == "sketchne":
        embedding = sketchne_embedding(laplacian, dim=dim, seed=seed, solver=solver)
    else:
        raise ValidationError(f"unknown embedding backend {backend!r}")
    return EmbedOutput(embedding=embedding, integration=integration, backend=backend)
