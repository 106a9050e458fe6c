"""Tests for the embedding substrate: randomized SVD, NetMF, SketchNE."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.laplacian import normalized_laplacian
from repro.datasets.generator import planted_partition_graph
from repro.embedding.netmf import (
    deepwalk_matrix_exact,
    netmf_embedding,
    netmf_from_laplacian,
)
from repro.embedding.sketchne import sketchne_embedding
from repro.embedding.spectral_embedding import spectral_node_embedding
from repro.embedding.svd import exact_truncated_svd, randomized_svd
from repro.evaluation.classification import evaluate_embedding
from repro.utils.errors import ValidationError


def sbm(n=200, k=4, strength=0.85, seed=0):
    labels = np.repeat(np.arange(k), n // k)
    rng = np.random.default_rng(seed)
    adjacency = planted_partition_graph(labels, strength, avg_degree=12, rng=rng)
    return adjacency, labels


class TestRandomizedSvd:
    def test_exact_on_low_rank(self):
        rng = np.random.default_rng(0)
        left = rng.standard_normal((50, 5))
        right = rng.standard_normal((5, 40))
        matrix = left @ right
        u, s, vt = randomized_svd(matrix, rank=5, seed=0)
        np.testing.assert_allclose(u @ np.diag(s) @ vt, matrix, atol=1e-8)

    def test_singular_values_descending(self):
        rng = np.random.default_rng(1)
        matrix = rng.standard_normal((30, 30))
        _, s, _ = randomized_svd(matrix, rank=10, seed=0)
        assert np.all(np.diff(s) <= 1e-10)

    def test_close_to_exact_svd(self):
        rng = np.random.default_rng(2)
        matrix = rng.standard_normal((60, 40))
        _, s_rand, _ = randomized_svd(matrix, rank=5, n_power_iterations=6, seed=0)
        _, s_exact, _ = exact_truncated_svd(matrix, rank=5)
        np.testing.assert_allclose(s_rand, s_exact, rtol=0.05)

    def test_sparse_input(self):
        matrix = sp.random(50, 50, density=0.2, random_state=0)
        u, s, vt = randomized_svd(matrix, rank=4, seed=0)
        assert u.shape == (50, 4)

    def test_rank_clamped(self):
        u, s, vt = randomized_svd(np.eye(5), rank=10, seed=0)
        assert s.shape[0] == 5

    def test_bad_rank(self):
        with pytest.raises(ValidationError):
            randomized_svd(np.eye(5), rank=0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_reconstruction_error_bounded(self, seed):
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((25, 6)) @ rng.standard_normal((6, 25))
        noise = 1e-6 * rng.standard_normal((25, 25))
        u, s, vt = randomized_svd(base + noise, rank=6, seed=0)
        assert np.linalg.norm(u @ np.diag(s) @ vt - base) < 1e-3


class TestNetMF:
    def test_embedding_shape(self):
        adjacency, _ = sbm()
        embedding = netmf_embedding(adjacency, dim=16, rank=64, seed=0)
        assert embedding.shape == (adjacency.shape[0], 16)
        assert np.all(np.isfinite(embedding))

    def test_classifies_sbm(self):
        adjacency, labels = sbm(seed=3)
        embedding = netmf_embedding(adjacency, dim=16, rank=64, seed=0)
        report = evaluate_embedding(embedding, labels, seed=0)
        assert report["micro_f1"] > 0.9

    def test_spectral_approx_tracks_exact_matrix(self):
        """Full-rank spectral filtering reproduces the exact DeepWalk
        matrix (before log-truncation)."""
        adjacency, _ = sbm(n=60, k=2, seed=4)
        n = adjacency.shape[0]
        from repro.solvers import bottom_eigenpairs
        from repro.embedding.netmf import _window_filter
        from repro.utils.sparse import degree_vector

        window = 5
        exact = deepwalk_matrix_exact(adjacency, window=window)
        laplacian = normalized_laplacian(adjacency)
        values, vectors = bottom_eigenpairs(laplacian, n, method="dense")
        degrees = degree_vector(adjacency)
        inv_sqrt = 1.0 / np.sqrt(degrees)
        filtered = _window_filter(1.0 - values, window)
        basis = vectors * inv_sqrt[:, None]
        volume = degrees.sum()
        approx = volume * (basis * filtered[None, :]) @ basis.T
        np.testing.assert_allclose(approx, exact, atol=1e-6)

    def test_from_laplacian(self):
        adjacency, labels = sbm(seed=5)
        laplacian = normalized_laplacian(adjacency)
        embedding = netmf_from_laplacian(laplacian, dim=16, rank=64, seed=0)
        report = evaluate_embedding(embedding, labels, seed=0)
        assert report["micro_f1"] > 0.9

    def test_size_guard(self):
        huge = sp.identity(30000, format="csr")
        with pytest.raises(ValidationError):
            netmf_from_laplacian(huge, dim=8)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValidationError):
            netmf_embedding(sp.csr_matrix((10, 10)), dim=2)


class TestSketchNE:
    def test_shape_and_norms(self):
        adjacency, _ = sbm(seed=6)
        laplacian = normalized_laplacian(adjacency)
        embedding = sketchne_embedding(laplacian, dim=16, seed=0)
        assert embedding.shape == (adjacency.shape[0], 16)
        np.testing.assert_allclose(
            np.linalg.norm(embedding, axis=1), 1.0, atol=1e-8
        )

    def test_classifies_sbm(self):
        adjacency, labels = sbm(seed=7)
        laplacian = normalized_laplacian(adjacency)
        embedding = sketchne_embedding(laplacian, dim=16, seed=0)
        report = evaluate_embedding(embedding, labels, seed=0)
        assert report["micro_f1"] > 0.9

    def test_no_normalization_option(self):
        adjacency, _ = sbm(seed=8)
        laplacian = normalized_laplacian(adjacency)
        embedding = sketchne_embedding(laplacian, dim=8, normalize=False, seed=0)
        norms = np.linalg.norm(embedding, axis=1)
        assert norms.std() > 1e-6  # not all unit norm


class TestSpectralEmbedding:
    def test_shape(self):
        adjacency, _ = sbm(seed=9)
        laplacian = normalized_laplacian(adjacency)
        embedding = spectral_node_embedding(laplacian, dim=8)
        assert embedding.shape == (adjacency.shape[0], 8)

    def test_padding_when_rank_deficient(self):
        tiny = normalized_laplacian(
            sp.csr_matrix(np.ones((6, 6)) - np.eye(6))
        )
        embedding = spectral_node_embedding(tiny, dim=5, drop_first=True)
        assert embedding.shape == (6, 5)
