"""Parity and determinism tests for the fast evaluation path.

The fast path (stacked GEMV aggregation + warm-started eigensolves) must be
a pure performance change: every eigenvalue and objective value it produces
has to match the dense ground-truth solver — and the sparse-add + cold-solve
reference route (:class:`LegacyObjective` below) — to tight tolerance,
across view counts, disconnected views, and zero weights.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import repro.core.sgla
import repro.core.sgla_plus
from repro.core.fastpath import StackedLaplacians
from repro.core.laplacian import (
    aggregate_laplacians,
    build_view_laplacians,
    normalized_laplacian,
)
from repro.core.objective import SpectralObjective, objective_surface
from repro.core.sgla import SGLA, SGLAConfig
from repro.core.sgla_plus import SGLAPlus
from repro.datasets.generator import generate_mvag
from repro.solvers import SolverContext, bottom_eigenpairs, bottom_eigenvalues
from repro.utils.errors import ReproError, ShapeError, ValidationError
from repro.utils.sparse import to_dense


class LegacyObjective(SpectralObjective):
    """The parity reference: ``L(w)`` rebuilt by ``aggregate_laplacians``
    on every evaluation and solved cold, with no stack and no batching."""

    def _solve(self, weights):
        laplacian = aggregate_laplacians(self.laplacians, weights)
        return self.solver.eigenvalues(laplacian, self.k + 1, warm=False)

    def aggregate(self, weights):
        return aggregate_laplacians(self.laplacians, weights)

    def evaluate_batch(self, batch):
        before = self.n_evaluations
        components = [self.components(weights) for weights in batch]
        return components, self.n_evaluations - before


def random_laplacians(n, r, seed=0, disconnect_view=None):
    """r random-graph normalized Laplacians; one view optionally split."""
    rng = np.random.default_rng(seed)
    laplacians = []
    for i in range(r):
        raw = sp.random(n, n, density=0.08, random_state=rng.integers(1 << 30))
        raw = raw.maximum(raw.T).tolil()
        raw.setdiag(0)
        if i == disconnect_view:
            # Cut the graph in two: zero every edge crossing the midline.
            half = n // 2
            raw[:half, half:] = 0
            raw[half:, :half] = 0
        laplacians.append(normalized_laplacian(raw.tocsr()))
    return laplacians


def random_simplex_weights(r, rng, zero_out=0):
    weights = rng.random(r)
    if zero_out:
        weights[rng.choice(r, size=min(zero_out, r - 1), replace=False)] = 0.0
    return weights / weights.sum()


class TestStackedLaplacians:
    def test_combine_matches_weighted_sum(self):
        rng = np.random.default_rng(3)
        laplacians = random_laplacians(40, 4, seed=1)
        stack = StackedLaplacians(laplacians)
        for zero_out in (0, 1, 2):
            weights = random_simplex_weights(4, rng, zero_out=zero_out)
            expected = sum(
                w * to_dense(lap) for w, lap in zip(weights, laplacians)
            )
            np.testing.assert_allclose(
                to_dense(stack.combine(weights)), expected, atol=1e-12
            )

    def test_combine_reuses_buffer_aggregate_copies(self):
        laplacians = random_laplacians(25, 3, seed=2)
        stack = StackedLaplacians(laplacians)
        first = stack.combine([1.0, 0.0, 0.0])
        kept = stack.aggregate([1.0, 0.0, 0.0])
        snapshot = kept.data.copy()
        second = stack.combine([0.0, 1.0, 0.0])
        assert first is second  # shared preallocated CSR
        np.testing.assert_array_equal(kept.data, snapshot)  # copy unharmed

    def test_with_data_and_combine_many(self):
        rng = np.random.default_rng(5)
        laplacians = random_laplacians(30, 3, seed=4)
        stack = StackedLaplacians(laplacians)
        rows = np.array(
            [random_simplex_weights(3, rng) for _ in range(6)]
        )
        block = stack.combine_many(rows)
        assert block.shape == (6, stack.nnz)
        for weights, data in zip(rows, block):
            np.testing.assert_allclose(
                to_dense(stack.with_data(data)),
                to_dense(stack.combine(weights)),
                atol=1e-12,
            )

    def test_non_canonical_input_duplicates_are_summed(self):
        """Duplicate (row, col) CSR entries must coalesce, not overwrite."""
        duplicated = sp.csr_matrix(
            (
                np.array([1.0, 2.0, 3.0]),
                np.array([1, 1, 0]),
                np.array([0, 2, 3]),
            ),
            shape=(2, 2),
        )  # A[0, 1] stored as two entries summing to 3.0
        plain = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        stack = StackedLaplacians([duplicated, plain])
        expected = 0.5 * to_dense(duplicated) + 0.5 * to_dense(plain)
        np.testing.assert_allclose(
            to_dense(stack.combine([0.5, 0.5])), expected, atol=1e-15
        )
        assert duplicated.nnz == 3  # caller's matrix not mutated

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            StackedLaplacians([])
        with pytest.raises(ShapeError):
            StackedLaplacians([np.ones((2, 3))])
        with pytest.raises(ShapeError):
            StackedLaplacians([np.eye(3), np.eye(4)])
        stack = StackedLaplacians(random_laplacians(10, 2, seed=8))
        with pytest.raises(ShapeError):
            stack.combine([1.0])
        with pytest.raises(ShapeError):
            stack.with_data(np.zeros(stack.nnz + 1))


class TestEigenParity:
    @pytest.mark.parametrize("r", [1, 2, 4, 5])
    def test_stacked_matches_dense(self, r):
        """Eigenvalues/objective parity across r, vs the dense solver."""
        rng = np.random.default_rng(r)
        laplacians = random_laplacians(60, r, seed=10 + r)
        fast = SpectralObjective(
            laplacians, k=3, gamma=0.5, eigen_method="dense"
        )
        legacy = LegacyObjective(
            laplacians, k=3, gamma=0.5, eigen_method="dense"
        )
        for zero_out in range(min(r, 3)):
            weights = random_simplex_weights(r, rng, zero_out=zero_out)
            fast_parts = fast.components(weights)
            legacy_parts = legacy.components(weights)
            np.testing.assert_allclose(
                fast_parts.eigenvalues, legacy_parts.eigenvalues, atol=1e-8
            )
            assert fast_parts.value == pytest.approx(
                legacy_parts.value, abs=1e-8
            )

    def test_warm_started_lanczos_matches_dense(self):
        """Iterative + warm-start accuracy on a sequence of nearby points."""
        laplacians = random_laplacians(80, 3, seed=21)
        fast = SpectralObjective(laplacians, k=3, eigen_method="lanczos")
        for step in np.linspace(0.0, 1.0, 8):
            weights = np.array([0.2 + 0.6 * step, 0.5 - 0.3 * step, 0.0])
            weights = np.append(weights[:2], 1.0 - weights[:2].sum())
            dense_values = bottom_eigenvalues(
                aggregate_laplacians(laplacians, weights), 4, method="dense"
            )
            fast_values = fast.components(weights).eigenvalues
            np.testing.assert_allclose(fast_values, dense_values, atol=1e-8)

    def test_disconnected_view_parity(self):
        """Zero eigenvalue multiplicities survive the fast path."""
        laplacians = random_laplacians(50, 3, seed=31, disconnect_view=0)
        fast = SpectralObjective(laplacians, k=2, eigen_method="lanczos")
        # All weight on the disconnected view: lambda_2 must vanish.
        parts = fast.components([1.0, 0.0, 0.0])
        dense_values = bottom_eigenvalues(
            laplacians[0], 3, method="dense"
        )
        np.testing.assert_allclose(parts.eigenvalues, dense_values, atol=1e-8)
        assert parts.connectivity == pytest.approx(0.0, abs=1e-8)

    def test_linear_operator_input_to_eigen(self):
        """Matrix-free operands are refused with a typed error at the
        stateless and the context-bound entry points alike."""
        laplacian = random_laplacians(45, 1, seed=51)[0]
        operator = spla.aslinearoperator(laplacian)
        with pytest.raises(ReproError, match="LinearOperator"):
            bottom_eigenpairs(operator, 4, method="lanczos")
        with pytest.raises(ReproError, match="LinearOperator"):
            bottom_eigenvalues(operator, 4, method="dense")
        with pytest.raises(ReproError, match="LinearOperator"):
            SolverContext(method="lanczos").eigenvalues(operator, 4)


class TestEigenvaluesOnlyPath:
    def test_matches_eigenpairs_lanczos(self):
        laplacian = random_laplacians(90, 1, seed=61)[0]
        values_only = bottom_eigenvalues(laplacian, 5, method="lanczos", seed=3)
        values, _ = bottom_eigenpairs(laplacian, 5, method="lanczos", seed=3)
        np.testing.assert_allclose(values_only, values, atol=1e-8)

    def test_matches_dense(self):
        laplacian = random_laplacians(90, 1, seed=62)[0]
        dense = bottom_eigenvalues(laplacian, 5, method="dense")
        lanczos = bottom_eigenvalues(laplacian, 5, method="lanczos", seed=0)
        np.testing.assert_allclose(lanczos, dense, atol=1e-8)


class TestLegacyAggregatePreallocation:
    def test_single_pass_sum_parity(self):
        rng = np.random.default_rng(71)
        laplacians = random_laplacians(40, 5, seed=70)
        for zero_out in (0, 2, 4):
            weights = random_simplex_weights(5, rng, zero_out=zero_out)
            result = aggregate_laplacians(laplacians, weights)
            expected = sum(
                w * to_dense(lap) for w, lap in zip(weights, laplacians)
            )
            np.testing.assert_allclose(to_dense(result), expected, atol=1e-12)
            assert result.has_sorted_indices

    def test_one_nonzero_weight_is_a_scaled_copy(self):
        laplacians = random_laplacians(20, 3, seed=72)
        result = aggregate_laplacians(laplacians, [0.0, 1.0, 0.0])
        np.testing.assert_allclose(
            to_dense(result), to_dense(laplacians[1]), atol=1e-15
        )
        result.data[:] = 0.0  # must not alias the input view
        assert to_dense(laplacians[1]).max() > 0


class TestBatchedSurface:
    def test_surface_matches_pointwise_and_reports_counts(self):
        laplacians = random_laplacians(30, 2, seed=81)
        fast = SpectralObjective(laplacians, k=2)
        legacy = LegacyObjective(laplacians, k=2)
        surface = objective_surface(fast, resolution=0.2)
        reference = objective_surface(legacy, resolution=0.2)
        np.testing.assert_allclose(
            surface["values"], reference["values"], atol=1e-8
        )
        assert surface["n_eigensolves"] + surface["n_eigensolves_saved"] == len(
            surface["points"]
        )
        assert surface["n_eigensolves"] >= 1

    def test_cached_points_are_free(self):
        laplacians = random_laplacians(30, 2, seed=82)
        objective = SpectralObjective(laplacians, k=2)
        first = objective_surface(objective, resolution=0.25)
        again = objective_surface(objective, resolution=0.25)
        assert first["n_eigensolves"] >= 1
        assert again["n_eigensolves"] == 0
        assert again["n_eigensolves_saved"] == len(again["points"])

    def test_evaluate_batch_deduplicates(self):
        laplacians = random_laplacians(30, 2, seed=83)
        objective = SpectralObjective(laplacians, k=2)
        point = np.array([0.5, 0.5])
        components, n_solves = objective.evaluate_batch([point, point, point])
        assert n_solves == 1
        assert components[0] is components[1] is components[2]

    def test_three_view_surface_variants(self):
        laplacians = random_laplacians(24, 3, seed=84)
        fast = SpectralObjective(laplacians, k=2)
        legacy = LegacyObjective(laplacians, k=2)
        for variant in ("full", "eigengap", "connectivity"):
            surface = objective_surface(fast, resolution=0.5, variant=variant)
            reference = objective_surface(
                legacy, resolution=0.5, variant=variant
            )
            np.testing.assert_allclose(
                surface["values"], reference["values"], atol=1e-8
            )


class TestEndToEndParity:
    @pytest.fixture(scope="class")
    def mvag(self):
        return generate_mvag(
            n_nodes=120,
            n_clusters=3,
            graph_view_strengths=[0.85, 0.2],
            attribute_view_dims=[12],
            seed=91,
        )

    def test_sgla_fast_vs_legacy(self, mvag, monkeypatch):
        fast = SGLA(SGLAConfig()).fit(mvag)
        with monkeypatch.context() as patch:
            patch.setattr(repro.core.sgla, "SpectralObjective", LegacyObjective)
            legacy = SGLA(SGLAConfig()).fit(mvag)
        np.testing.assert_allclose(fast.weights, legacy.weights, atol=1e-8)
        assert fast.objective_value == pytest.approx(
            legacy.objective_value, abs=1e-8
        )
        np.testing.assert_allclose(
            to_dense(fast.laplacian), to_dense(legacy.laplacian), atol=1e-10
        )

    def test_sgla_plus_fast_vs_legacy(self, mvag, monkeypatch):
        fast = SGLAPlus(SGLAConfig()).fit(mvag)
        with monkeypatch.context() as patch:
            patch.setattr(
                repro.core.sgla_plus, "SpectralObjective", LegacyObjective
            )
            legacy = SGLAPlus(SGLAConfig()).fit(mvag)
        np.testing.assert_allclose(fast.weights, legacy.weights, atol=1e-8)
        assert fast.objective_value == pytest.approx(
            legacy.objective_value, abs=1e-8
        )


class TestWarmStartDeterminism:
    def test_objective_sequence_reproducible(self):
        """Warm-started evaluation sequences are bitwise reproducible."""
        laplacians = random_laplacians(100, 3, seed=95)
        runs = []
        for _ in range(2):
            objective = SpectralObjective(
                laplacians,
                k=3,
                eigen_method="lanczos",
                seed=7,
                warm_start=True,
            )
            rng = np.random.default_rng(17)
            values = [
                objective(random_simplex_weights(3, rng)) for _ in range(6)
            ]
            runs.append(values)
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_sgla_run_reproducible(self):
        mvag = generate_mvag(
            n_nodes=700,  # resolves to Lanczos: iterative + warm starts
            n_clusters=3,
            graph_view_strengths=[0.8, 0.2],
            seed=96,
        )
        laplacians = build_view_laplacians(mvag)
        first = SGLA(SGLAConfig(seed=5)).fit(laplacians, k=3)
        second = SGLA(SGLAConfig(seed=5)).fit(laplacians, k=3)
        np.testing.assert_array_equal(first.weights, second.weights)
        assert first.objective_value == second.objective_value
