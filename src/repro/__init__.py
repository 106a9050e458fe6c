"""repro — reproduction of "Efficient Integration of Multi-View Attributed
Graphs for Clustering and Embedding" (SGLA / SGLA+, ICDE 2025).

Public API
----------
Data model and integration::

    from repro import MVAG, SGLA, SGLAPlus, SGLAConfig, integrate

End-to-end pipelines::

    from repro import cluster_mvag, embed_mvag

Substrates (also importable from their subpackages)::

    from repro import spectral_clustering, netmf_from_laplacian,
                      sketchne_embedding, clustering_report,
                      evaluate_embedding, generate_mvag, load_profile_mvag
"""

from repro.cluster.spectral import spectral_clustering
from repro.core.integration import INTEGRATION_METHODS, IntegrationResult, integrate
from repro.core.knn import knn_graph
from repro.core.laplacian import (
    aggregate_laplacians,
    build_view_laplacians,
    normalized_laplacian,
)
from repro.core.mvag import MVAG
from repro.core.objective import SpectralObjective
from repro.core.pipeline import cluster_mvag, embed_mvag
from repro.core.sgla import SGLA, SGLAConfig, SGLAResult
from repro.core.sgla_plus import SGLAPlus
from repro.datasets.generator import generate_mvag
from repro.datasets.profiles import dataset_profile, list_profiles, load_profile_mvag
from repro.embedding.netmf import netmf_embedding, netmf_from_laplacian
from repro.embedding.sketchne import sketchne_embedding
from repro.evaluation.classification import classification_report, evaluate_embedding
from repro.evaluation.clustering_metrics import clustering_report
from repro.neighbors import NeighborStats, RPForest
from repro.neighbors import available_backends as available_knn_backends
from repro.neighbors import register_backend as register_knn_backend
from repro.shard import ShardContext, ShardPlan, ShardStats
from repro.solvers import (
    SolverContext,
    SolverStats,
    available_backends,
    register_backend,
)

__version__ = "1.0.0"

__all__ = [
    "MVAG",
    "SGLA",
    "SGLAPlus",
    "SGLAConfig",
    "SGLAResult",
    "SpectralObjective",
    "integrate",
    "IntegrationResult",
    "INTEGRATION_METHODS",
    "cluster_mvag",
    "embed_mvag",
    "spectral_clustering",
    "knn_graph",
    "normalized_laplacian",
    "build_view_laplacians",
    "aggregate_laplacians",
    "netmf_embedding",
    "netmf_from_laplacian",
    "sketchne_embedding",
    "generate_mvag",
    "dataset_profile",
    "list_profiles",
    "load_profile_mvag",
    "clustering_report",
    "classification_report",
    "evaluate_embedding",
    "NeighborStats",
    "RPForest",
    "ShardContext",
    "ShardPlan",
    "ShardStats",
    "SolverContext",
    "SolverStats",
    "available_backends",
    "available_knn_backends",
    "register_backend",
    "register_knn_backend",
    "__version__",
]
