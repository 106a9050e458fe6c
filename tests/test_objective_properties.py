"""Property-based tests linking the objective to spectral graph theory.

These verify the theoretical relationships the paper's Section IV builds
on, over randomly generated multi-view instances.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solvers import bottom_eigenvalues, fiedler_value
from repro.core.laplacian import aggregate_laplacians, normalized_laplacian
from repro.core.objective import SpectralObjective
from repro.datasets.generator import planted_partition_graph


def random_views(n, r, seed):
    rng = np.random.default_rng(seed)
    labels = np.repeat([0, 1], n // 2)
    views = []
    for i in range(r):
        strength = float(rng.uniform(0.2, 0.9))
        adjacency = planted_partition_graph(
            labels, strength, avg_degree=8.0, rng=int(rng.integers(1 << 30))
        )
        views.append(normalized_laplacian(adjacency))
    return views, labels


class TestSpectralTheoryLinks:
    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_eigengap_bounded_by_one(self, seed):
        """lambda_k <= lambda_{k+1} implies g_k in [0, 1]."""
        views, _ = random_views(40, 3, seed)
        objective = SpectralObjective(views, k=2, gamma=0.0)
        rng = np.random.default_rng(seed)
        weights = rng.dirichlet(np.ones(3))
        parts = objective.components(weights)
        assert 0.0 <= parts.eigengap <= 1.0 + 1e-9

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_connectivity_matches_fiedler(self, seed):
        views, _ = random_views(40, 2, seed)
        objective = SpectralObjective(views, k=2, gamma=0.0)
        rng = np.random.default_rng(seed)
        weights = rng.dirichlet(np.ones(2))
        parts = objective.components(weights)
        laplacian = aggregate_laplacians(views, weights)
        assert parts.connectivity == pytest.approx(
            fiedler_value(laplacian), abs=1e-6
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_gamma_monotone_in_objective(self, seed):
        """For fixed weights, h is affine-increasing in gamma with slope
        ||w||^2 — the regularizer never interacts with the spectrum."""
        views, _ = random_views(30, 3, seed)
        rng = np.random.default_rng(seed)
        weights = rng.dirichlet(np.ones(3))
        low = SpectralObjective(views, k=2, gamma=0.0)(weights)
        high = SpectralObjective(views, k=2, gamma=1.0)(weights)
        assert high - low == pytest.approx(float(weights @ weights), abs=1e-9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_aggregated_eigenvalues_within_convex_hull_bounds(self, seed):
        """Weyl: lambda_min(sum) >= sum of lambda_mins (= 0 here) and
        lambda_max(sum) <= max over views of lambda_max <= 2."""
        views, _ = random_views(30, 3, seed)
        rng = np.random.default_rng(seed)
        weights = rng.dirichlet(np.ones(3))
        laplacian = aggregate_laplacians(views, weights)
        values = np.linalg.eigvalsh(laplacian.toarray())
        assert values.min() >= -1e-9
        assert values.max() <= 2.0 + 1e-9


class TestPerfectClusterLimit:
    def test_disjoint_cliques_reach_zero_eigengap(self):
        """The idealized case of Corollary 1.1: k components give
        lambda_k = 0, hence g_k = 0, for every weighting."""
        block = np.ones((8, 8)) - np.eye(8)
        adjacency = sp.block_diag([block, block]).tocsr()
        laplacian = normalized_laplacian(adjacency)
        objective = SpectralObjective([laplacian, laplacian], k=2, gamma=0.0)
        for w1 in (0.1, 0.5, 0.9):
            parts = objective.components([w1, 1 - w1])
            assert parts.eigengap == pytest.approx(0.0, abs=1e-9)

    def test_perturbation_keeps_eigengap_small(self):
        """Matrix-perturbation intuition (paper Sec. IV-A): adding a few
        cross edges to a perfectly clustered graph moves lambda_k only
        slightly, so g_k stays small."""
        block = np.ones((10, 10)) - np.eye(10)
        dense = np.zeros((20, 20))
        dense[:10, :10] = block
        dense[10:, 10:] = block
        dense[0, 10] = dense[10, 0] = 1.0  # one cross edge
        laplacian = normalized_laplacian(sp.csr_matrix(dense))
        values = bottom_eigenvalues(laplacian, 3, method="dense")
        assert values[1] / values[2] < 0.2
