"""Tests for the spectrum-guided objective h(w)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.solvers import bottom_eigenvalues
from repro.core.laplacian import normalized_laplacian
from repro.core.objective import (
    SpectralObjective,
    objective_surface,
    objective_variant,
)
from repro.utils.errors import ValidationError


def block_graph(sizes, p_cross=0.0, seed=0):
    """Union of cliques with optional random cross edges."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    dense = np.zeros((n, n))
    start = 0
    for size in sizes:
        dense[start : start + size, start : start + size] = 1.0
        start += size
    np.fill_diagonal(dense, 0.0)
    if p_cross > 0:
        mask = rng.random((n, n)) < p_cross
        mask = np.triu(mask, 1)
        dense = np.maximum(dense, (mask | mask.T).astype(float))
    return sp.csr_matrix(dense)


def erdos_renyi(n, p, seed=0):
    """A pure-noise view: symmetric ER graph with no community structure."""
    rng = np.random.default_rng(seed)
    mask = np.triu(rng.random((n, n)) < p, 1)
    dense = (mask | mask.T).astype(float)
    return sp.csr_matrix(dense)


@pytest.fixture(scope="module")
def two_view_objective():
    good = normalized_laplacian(block_graph([10, 10], p_cross=0.02, seed=1))
    noisy = normalized_laplacian(erdos_renyi(20, 0.25, seed=2))
    return SpectralObjective([good, noisy], k=2, gamma=0.5)


class TestComponents:
    def test_hand_computed_value(self, two_view_objective):
        weights = np.array([0.5, 0.5])
        parts = two_view_objective.components(weights)
        laplacian = two_view_objective.aggregate(weights)
        values = bottom_eigenvalues(laplacian, 3, method="dense")
        assert parts.eigengap == pytest.approx(values[1] / values[2], rel=1e-8)
        assert parts.connectivity == pytest.approx(values[1], rel=1e-8)
        assert parts.regularization == pytest.approx(0.5 * 0.5)
        assert parts.value == pytest.approx(
            parts.eigengap - parts.connectivity + parts.regularization
        )

    def test_perfect_clusters_have_small_eigengap(self):
        perfect = normalized_laplacian(block_graph([10, 10]))
        objective = SpectralObjective([perfect], k=2, gamma=0.0)
        parts = objective.components([1.0])
        assert parts.eigengap == pytest.approx(0.0, abs=1e-9)

    def test_eigengap_in_unit_interval(self, two_view_objective):
        for w1 in np.linspace(0, 1, 7):
            parts = two_view_objective.components([w1, 1 - w1])
            assert 0.0 <= parts.eigengap <= 1.0 + 1e-9

    def test_good_view_weighting_beats_noise(self, two_view_objective):
        """The objective must prefer the structured view over pure noise."""
        favoring_good = two_view_objective([0.8, 0.2])
        favoring_noise = two_view_objective([0.2, 0.8])
        assert favoring_good < favoring_noise

    def test_gamma_penalizes_concentration(self):
        good = normalized_laplacian(block_graph([10, 10], p_cross=0.02))
        flat = SpectralObjective([good, good], k=2, gamma=0.0)
        regularized = SpectralObjective([good, good], k=2, gamma=1.0)
        concentrated = np.array([1.0, 0.0])
        uniform = np.array([0.5, 0.5])
        # Identical views: spectral parts equal, only regularizer differs.
        assert flat(concentrated) == pytest.approx(flat(uniform), abs=1e-9)
        assert regularized(concentrated) > regularized(uniform)


class TestCachingAndCounting:
    def test_cache_hits_do_not_recount(self, two_view_objective):
        objective = SpectralObjective(
            two_view_objective.laplacians, k=2, gamma=0.5
        )
        before = objective.n_evaluations
        objective([0.4, 0.6])
        objective([0.4, 0.6])
        assert objective.n_evaluations == before + 1

    def test_cache_disabled(self, two_view_objective):
        objective = SpectralObjective(
            two_view_objective.laplacians, k=2, gamma=0.5, cache=False
        )
        objective([0.4, 0.6])
        objective([0.4, 0.6])
        assert objective.n_evaluations == 2

    def test_clear_cache(self, two_view_objective):
        objective = SpectralObjective(
            two_view_objective.laplacians, k=2, gamma=0.5
        )
        objective([0.4, 0.6])
        objective.clear_cache()
        objective([0.4, 0.6])
        assert objective.n_evaluations == 2


class TestValidation:
    def test_k_too_large(self, two_view_objective):
        with pytest.raises(ValidationError):
            SpectralObjective(two_view_objective.laplacians, k=20)

    def test_no_views(self):
        with pytest.raises(ValidationError):
            SpectralObjective([], k=2)

    def test_weights_validated(self, two_view_objective):
        with pytest.raises(ValidationError):
            two_view_objective([0.9, 0.9])


class TestVariants:
    def test_full_variant_is_objective(self, two_view_objective):
        func = objective_variant(two_view_objective, "full")
        assert func is two_view_objective

    def test_eigengap_variant(self, two_view_objective):
        func = objective_variant(two_view_objective, "eigengap")
        parts = two_view_objective.components([0.5, 0.5])
        assert func([0.5, 0.5]) == pytest.approx(
            parts.eigengap + parts.regularization
        )

    def test_connectivity_variant(self, two_view_objective):
        func = objective_variant(two_view_objective, "connectivity")
        parts = two_view_objective.components([0.5, 0.5])
        assert func([0.5, 0.5]) == pytest.approx(
            -parts.connectivity + parts.regularization
        )

    def test_unknown_variant(self, two_view_objective):
        with pytest.raises(ValidationError):
            objective_variant(two_view_objective, "bogus")


class TestSurface:
    def test_two_view_surface(self, two_view_objective):
        surface = objective_surface(two_view_objective, resolution=0.25)
        assert surface["points"].shape[1] == 2
        assert surface["values"].shape[0] == surface["points"].shape[0]

    def test_r_above_three_none(self):
        laplacian = normalized_laplacian(block_graph([6, 6]))
        objective = SpectralObjective([laplacian] * 4, k=2)
        assert objective_surface(objective) is None
