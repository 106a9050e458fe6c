"""Tests for the coarsening subsystem (repro.coarsen, DESIGN.md §12).

Covers the prolongation/Galerkin primitives and their spectral
guarantees (``P^T P = I``, ``lambda_j(P^T L P) >= lambda_j(L)``),
landmark aggregation's determinism and aggregate properties, and the
first-order refinement machinery (Hellmann–Feynman gradient vs finite
differences, descent of the projected BB loop).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.coarsen.ladder
from repro.coarsen import (
    CoarsenStats,
    aggregate_similarity,
    build_hierarchy,
    galerkin_project,
    gradient_refine,
    landmark_aggregates,
    prolong_block,
    prolongation_from_aggregates,
    spectral_gradient,
)
from repro.core.laplacian import aggregate_laplacians, build_view_laplacians
from repro.core.objective import SpectralObjective
from repro.core.sgla import SGLAConfig
from repro.datasets.generator import generate_mvag
from repro.optim.simplex import project_to_simplex
from repro.utils.errors import ValidationError


@pytest.fixture(scope="module")
def small_laplacians():
    mvag = generate_mvag(
        200, 4, graph_view_strengths=(0.8, 0.3), attribute_view_dims=(12,),
        seed=11,
    )
    return build_view_laplacians(mvag, knn_k=8)


# --------------------------------------------------------------------- #
# Prolongation / Galerkin primitives
# --------------------------------------------------------------------- #


def test_prolongation_columns_orthonormal():
    aggregates = np.array([0, 0, 1, 2, 2, 2, 3])
    prolongation = prolongation_from_aggregates(aggregates)
    gram = (prolongation.T @ prolongation).toarray()
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)


def test_prolongation_rejects_unassigned_and_skipped():
    with pytest.raises(ValidationError):
        prolongation_from_aggregates(np.array([0, -1, 1]))
    with pytest.raises(ValidationError):
        prolongation_from_aggregates(np.array([0, 0, 2]))  # skips 1
    with pytest.raises(ValidationError):
        prolongation_from_aggregates(np.array([], dtype=np.int64))


def test_galerkin_eigenvalues_bound_below_by_fine(small_laplacians):
    """Rayleigh–Ritz: coarse eigenvalues majorize the fine ones."""
    similarity = aggregate_similarity(small_laplacians)
    prolongation = prolongation_from_aggregates(
        landmark_aggregates(similarity)
    )
    coarse = galerkin_project(small_laplacians, prolongation)
    for fine_l, coarse_l in zip(small_laplacians, coarse):
        fine_vals = np.linalg.eigvalsh(fine_l.toarray())
        coarse_vals = np.linalg.eigvalsh(coarse_l.toarray())
        assert np.all(
            coarse_vals >= fine_vals[: coarse_vals.size] - 1e-9
        )
        # Symmetry is restored after projection noise.
        assert (abs(coarse_l - coarse_l.T) > 1e-12).nnz == 0


def test_aggregate_similarity_nonnegative_zero_diagonal(small_laplacians):
    similarity = aggregate_similarity(small_laplacians)
    assert similarity.diagonal().max() == 0.0
    assert similarity.nnz == 0 or similarity.data.min() >= 0.0


def test_aggregate_similarity_empty_rejected():
    with pytest.raises(ValidationError):
        aggregate_similarity([])


# --------------------------------------------------------------------- #
# Landmark aggregation
# --------------------------------------------------------------------- #


def test_landmark_ratio_controls_size(small_laplacians):
    similarity = aggregate_similarity(small_laplacians)
    aggregates = landmark_aggregates(similarity, ratio=0.2, seed=5)
    n_coarse = int(aggregates.max()) + 1
    # Landmarks plus possibly a few unreachable singletons.
    assert n_coarse >= int(np.ceil(0.2 * similarity.shape[0]))
    assert n_coarse < similarity.shape[0]
    assert (aggregates >= 0).all()
    repeat = landmark_aggregates(similarity, ratio=0.2, seed=5)
    np.testing.assert_array_equal(aggregates, repeat)
    other_seed = landmark_aggregates(similarity, ratio=0.2, seed=6)
    assert not np.array_equal(aggregates, other_seed)


def test_landmark_rejects_bad_ratio(small_laplacians):
    similarity = aggregate_similarity(small_laplacians)
    with pytest.raises(ValidationError):
        landmark_aggregates(similarity, ratio=0.0)
    with pytest.raises(ValidationError):
        landmark_aggregates(similarity, ratio=1.0)


def test_backend_prolongations_are_valid(small_laplacians):
    prolongation = prolongation_from_aggregates(
        landmark_aggregates(aggregate_similarity(small_laplacians), seed=0)
    )
    n, n_coarse = prolongation.shape
    assert n == small_laplacians[0].shape[0]
    assert 0 < n_coarse < n
    gram = (prolongation.T @ prolongation).toarray()
    np.testing.assert_allclose(gram, np.eye(n_coarse), atol=1e-12)


# --------------------------------------------------------------------- #
# Hierarchy + prolonged blocks
# --------------------------------------------------------------------- #


def test_build_hierarchy_respects_levels_and_floor(
    small_laplacians, monkeypatch
):
    monkeypatch.setattr(repro.coarsen.ladder, "MIN_NODES", 10)
    config = SGLAConfig(coarsen_levels=2)
    hierarchy = build_hierarchy(small_laplacians, k=4, config=config)
    assert hierarchy.n_levels == 2
    assert len(hierarchy.sizes) == 3
    assert hierarchy.sizes[0] == small_laplacians[0].shape[0]
    assert hierarchy.sizes[1] > hierarchy.sizes[2]
    assert hierarchy.coarse_laplacians[0].shape[0] == hierarchy.sizes[-1]

    monkeypatch.setattr(repro.coarsen.ladder, "MIN_NODES", 10_000)
    floor_config = SGLAConfig(coarsen_levels=5)
    flat = build_hierarchy(small_laplacians, k=4, config=floor_config)
    assert flat.n_levels == 0
    assert flat.sizes == [small_laplacians[0].shape[0]]


def test_prolong_block_orthonormal_through_chain(
    small_laplacians, monkeypatch
):
    monkeypatch.setattr(repro.coarsen.ladder, "MIN_NODES", 10)
    config = SGLAConfig(coarsen_levels=2)
    hierarchy = build_hierarchy(small_laplacians, k=4, config=config)
    rng = np.random.default_rng(0)
    block = rng.standard_normal((hierarchy.sizes[-1], 5))
    lifted = prolong_block(hierarchy, block)
    assert lifted.shape == (hierarchy.sizes[0], 5)
    np.testing.assert_allclose(
        lifted.T @ lifted, np.eye(5), atol=1e-10
    )
    assert prolong_block(hierarchy, None) is None


# --------------------------------------------------------------------- #
# First-order refinement machinery
# --------------------------------------------------------------------- #


def test_spectral_gradient_matches_finite_differences(small_laplacians):
    """Hellmann–Feynman gradient == central differences of h (tangent)."""
    k = 4
    gamma = 0.5
    weights = np.array([0.5, 0.3, 0.2])
    objective = SpectralObjective(
        small_laplacians, k=k, gamma=gamma, cache=False
    )
    matrix = aggregate_laplacians(small_laplacians, weights)
    eigenvalues, vectors = np.linalg.eigh(matrix.toarray())
    gradient = spectral_gradient(
        small_laplacians, weights, eigenvalues[: k + 1],
        vectors[:, : k + 1], k, gamma,
    )

    step = 1e-6
    for direction in (
        np.array([1.0, -1.0, 0.0]),
        np.array([0.0, 1.0, -1.0]),
        np.array([1.0, 0.0, -1.0]),
    ):
        # Tangent directions keep the iterate on the simplex, so the
        # projected objective and the raw gradient agree.
        forward = objective.evaluate_exact(weights + step * direction).value
        backward = objective.evaluate_exact(weights - step * direction).value
        numeric = (forward - backward) / (2 * step)
        analytic = float(gradient @ direction)
        assert abs(numeric - analytic) < 5e-4, (direction, numeric, analytic)


def test_gradient_refine_descends_and_converges(small_laplacians):
    k = 4
    gamma = 0.5
    config = SGLAConfig()
    solver = config.make_solver()
    start = project_to_simplex(np.array([0.6, 0.2, 0.2]))
    weights, value, history, n_solves, converged = gradient_refine(
        small_laplacians, k, gamma, solver, start, xtol=1e-6, max_solves=20
    )
    assert n_solves <= 20
    assert len(history) == n_solves
    values = [entry[1] for entry in history]
    # First entry scores the start; the final value never exceeds it.
    assert value <= values[0] + 1e-12
    np.testing.assert_allclose(weights.sum(), 1.0, atol=1e-9)
    assert weights.min() >= -1e-12
    if converged:
        # At convergence the projected gradient step stalls: re-running
        # from the result must not move or improve beyond tolerance.
        again, again_value, _, _, _ = gradient_refine(
            small_laplacians, k, gamma, solver, weights,
            xtol=1e-6, max_solves=6,
        )
        assert abs(again_value - value) < 1e-6


def test_coarsen_stats_summary_shape():
    stats = CoarsenStats(
        levels=[100, 60, 35], coarse_solves=12, fine_solves=5,
        coarsen_seconds=0.25,
    )
    text = stats.summary()
    assert "100 -> 60 -> 35" in text
    assert "12 coarse / 5 fine" in text
    assert CoarsenStats().summary().count("flat") == 1
