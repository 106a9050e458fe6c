"""Tests for spectral clustering and the Yu-Shi discretization."""

import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.discretize import discretize
from repro.cluster.spectral import spectral_clustering, spectral_embedding_matrix
from repro.core.laplacian import normalized_laplacian
from repro.core.pipeline import cluster_mvag
from repro.core.sgla import SGLAConfig
from repro.datasets.profiles import dataset_profile, load_profile_mvag
from repro.evaluation.clustering_metrics import (
    adjusted_rand_index,
    clustering_report,
)
from repro.utils.errors import ValidationError

# The package re-exports the function under the module's name.
discretize_module = importlib.import_module("repro.cluster.discretize")


def procrustes_objective(embedding: np.ndarray, labels: np.ndarray) -> float:
    """Sum of singular values of ``indicator.T @ rows`` (row-normalized)."""
    norms = np.linalg.norm(embedding, axis=1)
    norms[norms == 0] = 1.0
    rows = embedding / norms[:, None]
    indicator = np.zeros((rows.shape[0], rows.shape[1]))
    indicator[np.arange(rows.shape[0]), labels] = 1.0
    # The full SVD, as discretize computes it: the values-only LAPACK
    # path rounds differently in the last ulp.
    return float(np.linalg.svd(indicator.T @ rows)[1].sum())


class TestDiscretize:
    def test_one_hot_embedding_recovered(self):
        """A perfect indicator embedding discretizes to itself."""
        indicator = np.zeros((30, 3))
        labels = np.repeat(np.arange(3), 10)
        indicator[np.arange(30), labels] = 1.0
        predicted = discretize(indicator, seed=0)
        assert adjusted_rand_index(labels, predicted) == pytest.approx(1.0)

    def test_rotated_embedding_recovered(self):
        """Discretization must undo an arbitrary orthogonal rotation."""
        rng = np.random.default_rng(1)
        indicator = np.zeros((45, 3))
        labels = np.repeat(np.arange(3), 15)
        indicator[np.arange(45), labels] = 1.0
        rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        predicted = discretize(indicator @ rotation, seed=0)
        assert adjusted_rand_index(labels, predicted) == pytest.approx(1.0)

    def test_single_column(self):
        predicted = discretize(np.ones((10, 1)))
        assert set(predicted) == {0}

    def test_invalid_shapes(self):
        with pytest.raises(ValidationError):
            discretize(np.ones(5))
        with pytest.raises(ValidationError):
            discretize(np.ones((2, 5)))

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        embedding = rng.standard_normal((40, 4))
        a = discretize(embedding, seed=9)
        b = discretize(embedding, seed=9)
        np.testing.assert_array_equal(a, b)

    @given(
        st.integers(20, 80), st.integers(2, 6), st.integers(0, 10_000),
        st.integers(0, 10_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_never_below_single_start(self, n, k, data_seed, seed):
        """Extra starts can only raise the Procrustes objective: the
        first start is the single-start search itself."""
        rng = np.random.default_rng(data_seed)
        centers = rng.standard_normal((k, k))
        noise = 0.6 * rng.standard_normal((n, k))
        embedding = centers[rng.integers(k, size=n)] + noise
        labels = discretize(embedding, seed=seed)
        with mock.patch.object(discretize_module, "STARTS", 1):
            single = discretize(embedding, seed=seed)
        assert procrustes_objective(embedding, labels) >= procrustes_objective(
            embedding, single
        )

    @pytest.mark.parametrize(
        "profile, method",
        [("amazon_photos_small", "sgla"), ("mag_phy_small", "sgla+")],
    )
    def test_labels_stable_under_ulp_noise(self, profile, method):
        """1e-14 noise on the eigenvectors of ``L(w*)`` must not move the
        assignment: with one greedy start these cells landed in 2-3
        local optima over 30 draws (accuracy 0.9425/0.98 and
        0.9233/0.9467/0.9958)."""
        mvag = load_profile_mvag(profile, seed=0)
        config = SGLAConfig(knn_k=dataset_profile(profile).knn_k)
        output = cluster_mvag(
            mvag, k=mvag.n_classes, method=method, config=config, seed=0
        )
        vectors = spectral_embedding_matrix(
            output.integration.laplacian, mvag.n_classes, seed=0
        )
        def accuracy(labels):
            return round(clustering_report(mvag.labels, labels)["acc"], 4)

        accuracies = set()
        for draw in range(30):
            noise = np.random.default_rng(draw).standard_normal(vectors.shape)
            accuracies.add(accuracy(discretize(vectors + 1e-14 * noise, seed=0)))
        assert accuracies == {accuracy(output.labels)}


class TestSpectralClustering:
    def test_ring_of_cliques(self, ring_of_cliques):
        adjacency, labels = ring_of_cliques
        laplacian = normalized_laplacian(adjacency)
        predicted = spectral_clustering(laplacian, 4, seed=0)
        assert adjusted_rand_index(labels, predicted) == pytest.approx(1.0)

    def test_kmeans_assignment_matches(self, ring_of_cliques):
        adjacency, labels = ring_of_cliques
        laplacian = normalized_laplacian(adjacency)
        predicted = spectral_clustering(laplacian, 4, assign="kmeans", seed=0)
        assert adjusted_rand_index(labels, predicted) == pytest.approx(1.0)

    def test_k_one(self, ring_of_cliques):
        adjacency, _ = ring_of_cliques
        laplacian = normalized_laplacian(adjacency)
        predicted = spectral_clustering(laplacian, 1)
        assert set(predicted) == {0}

    def test_invalid_assignment(self, ring_of_cliques):
        adjacency, _ = ring_of_cliques
        laplacian = normalized_laplacian(adjacency)
        with pytest.raises(ValidationError):
            spectral_clustering(laplacian, 2, assign="votes")

    def test_invalid_k(self, ring_of_cliques):
        adjacency, _ = ring_of_cliques
        with pytest.raises(ValidationError):
            spectral_clustering(normalized_laplacian(adjacency), 0)


class TestSpectralEmbeddingMatrix:
    def test_shape(self, ring_of_cliques):
        adjacency, _ = ring_of_cliques
        laplacian = normalized_laplacian(adjacency)
        embedding = spectral_embedding_matrix(laplacian, 4)
        assert embedding.shape == (adjacency.shape[0], 4)

    def test_drop_first(self, ring_of_cliques):
        adjacency, _ = ring_of_cliques
        laplacian = normalized_laplacian(adjacency)
        kept = spectral_embedding_matrix(laplacian, 3, drop_first=True)
        full = spectral_embedding_matrix(laplacian, 4, drop_first=False)
        # Dropping the trivial eigenvector shifts the window by one.
        assert kept.shape == (adjacency.shape[0], 3)
        # Same subspace: compare spans via projection Frobenius norm.
        overlap = np.linalg.norm(kept.T @ full[:, 1:4])
        assert overlap == pytest.approx(3.0**0.5, rel=0.2)
