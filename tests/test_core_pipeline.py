"""End-to-end pipeline tests: integrate -> cluster / embed."""

import numpy as np
import pytest

from repro.core.mvag import MVAG
from repro.core.pipeline import cluster_mvag, embed_mvag
from repro.evaluation.classification import evaluate_embedding
from repro.evaluation.clustering_metrics import adjusted_rand_index
from repro.solvers import SolverContext
from repro.utils.errors import ValidationError


class TestClusterPipeline:
    def test_recovers_planted_partition(self, easy_mvag):
        output = cluster_mvag(easy_mvag, method="sgla+")
        ari = adjusted_rand_index(easy_mvag.labels, output.labels)
        assert ari > 0.9

    def test_sgla_recovers_partition(self, easy_mvag):
        output = cluster_mvag(easy_mvag, method="sgla")
        ari = adjusted_rand_index(easy_mvag.labels, output.labels)
        assert ari > 0.9

    def test_label_range(self, easy_mvag):
        output = cluster_mvag(easy_mvag, k=3)
        assert set(np.unique(output.labels)) <= set(range(3))

    def test_kmeans_assignment(self, easy_mvag):
        output = cluster_mvag(easy_mvag, assign="kmeans")
        ari = adjusted_rand_index(easy_mvag.labels, output.labels)
        assert ari > 0.8

    def test_beats_single_noisy_view(self, hetero_mvag):
        """Weighted integration must beat clustering the noisy view alone."""
        from repro.cluster.spectral import spectral_clustering
        from repro.core.laplacian import normalized_laplacian

        integrated = cluster_mvag(hetero_mvag, method="sgla+")
        ari_integrated = adjusted_rand_index(
            hetero_mvag.labels, integrated.labels
        )
        noisy_lap = normalized_laplacian(hetero_mvag.graph_views[2])
        noisy_labels = spectral_clustering(noisy_lap, k=4, seed=0)
        ari_noisy = adjusted_rand_index(hetero_mvag.labels, noisy_labels)
        assert ari_integrated > ari_noisy

    def test_unlabeled_requires_k(self, easy_mvag):
        unlabeled = MVAG(
            graph_views=easy_mvag.graph_views,
            attribute_views=easy_mvag.attribute_views,
        )
        with pytest.raises(ValidationError):
            cluster_mvag(unlabeled)
        output = cluster_mvag(unlabeled, k=3)
        assert output.labels.shape == (easy_mvag.n_nodes,)


class TestEmbedPipeline:
    def test_embedding_shape(self, easy_mvag):
        output = embed_mvag(easy_mvag, dim=16)
        assert output.embedding.shape == (easy_mvag.n_nodes, 16)
        assert np.all(np.isfinite(output.embedding))

    def test_embedding_classifies_well(self, easy_mvag):
        output = embed_mvag(easy_mvag, dim=16)
        report = evaluate_embedding(output.embedding, easy_mvag.labels, seed=0)
        assert report["micro_f1"] > 0.9

    def test_auto_backend_netmf_small(self, easy_mvag):
        output = embed_mvag(easy_mvag, dim=8)
        assert output.backend == "netmf"

    def test_explicit_sketchne(self, easy_mvag):
        output = embed_mvag(easy_mvag, dim=8, backend="sketchne")
        assert output.backend == "sketchne"
        assert output.embedding.shape == (easy_mvag.n_nodes, 8)

    def test_unknown_backend(self, easy_mvag):
        solver = SolverContext()
        with pytest.raises(ValidationError, match="word2vec"):
            embed_mvag(easy_mvag, dim=8, backend="word2vec", solver=solver)
        assert solver.stats.solves == 0  # refused before the integration

    @pytest.mark.parametrize("dim", [0, 10**6, 8.0])
    def test_bad_dim_refused_before_integration(
        self, easy_mvag, easy_laplacians, dim
    ):
        for data, k in ((easy_mvag, None), (easy_laplacians, 3), ([], 3)):
            solver = SolverContext()
            with pytest.raises(ValidationError, match="dim"):
                embed_mvag(data, k=k, dim=dim, solver=solver)
            assert solver.stats.solves == 0

    def test_sketchne_quality(self, easy_mvag):
        output = embed_mvag(easy_mvag, dim=16, backend="sketchne")
        report = evaluate_embedding(output.embedding, easy_mvag.labels, seed=0)
        assert report["micro_f1"] > 0.85
