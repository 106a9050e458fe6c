"""Tests for the bottom-eigenpair solvers."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.solvers import (
    bottom_eigenpairs,
    bottom_eigenvalues,
    fiedler_value,
)
from repro.core.laplacian import normalized_laplacian
from repro.utils.errors import ValidationError


def cycle_graph(n):
    adjacency = sp.lil_matrix((n, n))
    for i in range(n):
        j = (i + 1) % n
        adjacency[i, j] = adjacency[j, i] = 1.0
    return adjacency.tocsr()


def cycle_eigenvalues(n, t):
    """Analytic normalized-Laplacian spectrum of C_n: 1 - cos(2 pi k / n)."""
    values = np.sort([1.0 - np.cos(2 * np.pi * k / n) for k in range(n)])
    return values[:t]


class TestAnalyticSpectra:
    @pytest.mark.parametrize("method", ["dense", "lanczos"])
    def test_cycle_graph(self, method):
        n, t = 24, 5
        laplacian = normalized_laplacian(cycle_graph(n))
        values = bottom_eigenvalues(laplacian, t, method=method, seed=0)
        np.testing.assert_allclose(values, cycle_eigenvalues(n, t), atol=1e-6)

    def test_eigenvalues_sorted_ascending(self):
        laplacian = normalized_laplacian(cycle_graph(30))
        values = bottom_eigenvalues(laplacian, 6, method="lanczos")
        assert np.all(np.diff(values) >= -1e-10)

    def test_eigenvectors_satisfy_equation(self):
        laplacian = normalized_laplacian(cycle_graph(20))
        values, vectors = bottom_eigenpairs(laplacian, 4, method="lanczos")
        for i in range(4):
            residual = laplacian @ vectors[:, i] - values[i] * vectors[:, i]
            assert np.linalg.norm(residual) < 1e-6

    def test_methods_agree(self):
        rng = np.random.default_rng(0)
        raw = sp.random(80, 80, density=0.1, random_state=3)
        raw = raw.maximum(raw.T)
        raw.setdiag(0)
        laplacian = normalized_laplacian(raw)
        dense = bottom_eigenvalues(laplacian, 5, method="dense")
        lanczos = bottom_eigenvalues(laplacian, 5, method="lanczos", seed=1)
        np.testing.assert_allclose(dense, lanczos, atol=1e-6)


class TestEdgeCases:
    def test_t_clamped_to_n(self):
        laplacian = normalized_laplacian(cycle_graph(5))
        values = bottom_eigenvalues(laplacian, 10, method="dense")
        assert values.shape == (5,)

    def test_t_must_be_positive(self):
        laplacian = normalized_laplacian(cycle_graph(5))
        with pytest.raises(ValidationError):
            bottom_eigenvalues(laplacian, 0)

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            bottom_eigenvalues(np.ones((2, 3)), 1)

    def test_unknown_method(self):
        laplacian = normalized_laplacian(cycle_graph(5))
        with pytest.raises(ValidationError):
            bottom_eigenvalues(laplacian, 2, method="magic")

    def test_lanczos_near_full_falls_back(self):
        """Requesting nearly all eigenpairs silently uses the dense path."""
        laplacian = normalized_laplacian(cycle_graph(6))
        values = bottom_eigenvalues(laplacian, 5, method="lanczos")
        np.testing.assert_allclose(values, cycle_eigenvalues(6, 5), atol=1e-8)

    def test_deterministic_with_seed(self):
        laplacian = normalized_laplacian(cycle_graph(50))
        a = bottom_eigenvalues(laplacian, 4, method="lanczos", seed=7)
        b = bottom_eigenvalues(laplacian, 4, method="lanczos", seed=7)
        np.testing.assert_array_equal(a, b)

    def test_invariant_subspace_restarts_are_seeded(self):
        """20 disjoint cliques give a 20-fold zero eigenvalue, so ARPACK
        meets an invariant subspace and asks for fresh start vectors;
        those must come from the seed, not OS entropy."""
        clique = sp.csr_matrix(np.ones((30, 30)) - np.eye(30))
        laplacian = normalized_laplacian(sp.block_diag([clique] * 20).tocsr())
        runs = [
            bottom_eigenpairs(laplacian, 5, method="lanczos", seed=0)
            for _ in range(4)
        ]
        for values, vectors in runs[1:]:
            np.testing.assert_array_equal(values, runs[0][0])
            np.testing.assert_array_equal(vectors, runs[0][1])


class TestFiedler:
    def test_connected_positive(self):
        laplacian = normalized_laplacian(cycle_graph(12))
        assert fiedler_value(laplacian) > 0

    def test_disconnected_zero(self):
        two_triangles = sp.block_diag([
            np.ones((3, 3)) - np.eye(3),
            np.ones((3, 3)) - np.eye(3),
        ]).tocsr()
        laplacian = normalized_laplacian(two_triangles)
        assert fiedler_value(laplacian) == pytest.approx(0.0, abs=1e-9)

    def test_complete_graph_largest_fiedler(self):
        """K_n maximizes lambda_2 among graphs on n nodes."""
        complete = sp.csr_matrix(np.ones((8, 8)) - np.eye(8))
        cycle = cycle_graph(8)
        assert fiedler_value(normalized_laplacian(complete)) > fiedler_value(
            normalized_laplacian(cycle)
        )
