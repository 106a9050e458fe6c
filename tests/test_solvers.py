"""Tests for the pluggable spectral-solver subsystem (repro.solvers)."""

import numpy as np
import pytest

import repro.solvers
from registry_contract import RegistryContract
from repro.core.laplacian import (
    aggregate_laplacians,
    build_view_laplacians,
    normalized_laplacian,
)
from repro.core.objective import SpectralObjective
from repro.datasets.generator import generate_mvag
from repro.datasets.running_example import running_example_mvag
from repro.solvers import (
    BatchedBackend,
    EigenBackend,
    EigenProblem,
    EigenResult,
    SolverContext,
    available_backends,
    bottom_eigenpairs,
    bottom_eigenvalues,
    get_backend,
    register_backend,
    resolve_method,
    unregister_backend,
)

ALL_BACKENDS = ("dense", "lanczos", "batch")


def running_example_laplacian(weights=(0.6, 0.4)):
    """The paper's Fig. 2 aggregated Laplacian at the reported weights."""
    mvag = running_example_mvag()
    laplacians = [normalized_laplacian(a) for a in mvag.graph_views]
    return aggregate_laplacians(laplacians, np.asarray(weights))


def generated_laplacian(n=500, seed=3, weights=(0.5, 0.3, 0.2)):
    mvag = generate_mvag(
        n_nodes=n,
        n_clusters=3,
        graph_view_strengths=[0.8, 0.3],
        attribute_view_dims=[16],
        seed=seed,
    )
    laplacians = build_view_laplacians(mvag, knn_k=5)
    return aggregate_laplacians(laplacians, np.asarray(weights)), laplacians


class TestCrossBackendParity:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_running_example_eigenpairs(self, backend):
        """Every backend reproduces the dense ground truth to 1e-8 on the
        paper's running example."""
        laplacian = running_example_laplacian()
        reference, ref_vectors = bottom_eigenpairs(laplacian, 3, method="dense")
        values, vectors = bottom_eigenpairs(laplacian, 3, method=backend, seed=0)
        np.testing.assert_allclose(values, reference, atol=1e-8)
        # Eigenvectors may differ by sign/rotation; compare the spectral
        # projectors instead of raw columns.
        projector = vectors @ vectors.T
        ref_projector = ref_vectors @ ref_vectors.T
        np.testing.assert_allclose(projector, ref_projector, atol=1e-6)

    @pytest.mark.parametrize("backend", ("lanczos",))
    def test_larger_graph_eigenvalues(self, backend):
        laplacian, _ = generated_laplacian()
        reference = bottom_eigenvalues(laplacian, 4, method="dense")
        values = bottom_eigenvalues(laplacian, 4, method=backend, seed=0)
        np.testing.assert_allclose(values, reference, atol=1e-8)

    @pytest.mark.parametrize(
        "laplacian_of, t",
        [
            (running_example_laplacian, 3),
            (running_example_laplacian, 8),  # t == n: the whole spectrum
            (lambda: generated_laplacian()[0], 5),
        ],
    )
    def test_dense_matches_full_spectrum(self, laplacian_of, t):
        """The dense backend's partial solve (bottom t pairs only)
        matches the bottom of a full-spectrum eigh, up to t == n."""
        laplacian = laplacian_of()
        n = laplacian.shape[0]
        full_values = np.linalg.eigvalsh(laplacian.toarray())
        values_only = bottom_eigenvalues(laplacian, t, method="dense")
        values, vectors = bottom_eigenpairs(laplacian, t, method="dense")
        assert values.shape == (t,) and vectors.shape == (n, t)
        np.testing.assert_allclose(values_only, full_values[:t], atol=1e-12)
        np.testing.assert_allclose(values, full_values[:t], atol=1e-12)
        np.testing.assert_allclose(
            laplacian @ vectors, vectors * values, atol=1e-12
        )

    def test_values_only_matches_pairs(self):
        laplacian, _ = generated_laplacian()
        values_only = bottom_eigenvalues(laplacian, 4, method="lanczos", seed=0)
        values, _ = bottom_eigenpairs(laplacian, 4, method="lanczos", seed=0)
        np.testing.assert_allclose(values_only, values, atol=1e-10)


class TestRegistry(RegistryContract):
    package = repro.solvers

    def test_builtins_registered(self):
        assert available_backends() == tuple(sorted(ALL_BACKENDS))

    def test_register_and_dispatch_custom_backend(self):
        class EchoDense(EigenBackend):
            name = "echo-dense"

            def solve(self, problem: EigenProblem) -> EigenResult:
                return get_backend("dense").solve(problem)

        try:
            register_backend(EchoDense())
            laplacian = running_example_laplacian()
            reference = bottom_eigenvalues(laplacian, 3, method="dense")
            values = bottom_eigenvalues(laplacian, 3, method="echo-dense")
            np.testing.assert_allclose(values, reference, atol=1e-12)
        finally:
            unregister_backend("echo-dense")


class TestDispatchPolicy:
    def test_auto_small_is_dense(self):
        assert resolve_method(100, 3, "auto") == "dense"

    def test_auto_large_is_lanczos(self):
        assert resolve_method(5000, 3, "auto") == "lanczos"

    def test_near_full_spectrum_falls_back_dense(self):
        assert resolve_method(6, 5, "lanczos") == "dense"


class TestBatchBackend:
    def _matrices(self, count=4):
        _, laplacians = generated_laplacian()
        rng = np.random.default_rng(0)
        base = np.array([0.5, 0.3, 0.2])
        matrices = []
        for _ in range(count):
            delta = rng.normal(scale=0.02, size=3)
            weights = np.clip(base + delta, 0.05, None)
            weights /= weights.sum()
            matrices.append(aggregate_laplacians(laplacians, weights))
        return matrices

    def _problems(self, matrices, t=4):
        return [EigenProblem(m, t, seed=0) for m in matrices]

    def test_threaded_matches_sequential_exactly(self):
        """Thread scheduling never changes results: the threaded batch is
        bitwise identical to the max_workers=1 batch."""
        matrices = self._matrices()
        backend = BatchedBackend()
        threaded = backend.solve_many(self._problems(matrices), max_workers=4)
        sequential = backend.solve_many(self._problems(matrices), max_workers=1)
        for a, b in zip(threaded, sequential):
            np.testing.assert_array_equal(a.values, b.values)
            np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_batch_rerun_deterministic(self):
        matrices = self._matrices()
        backend = BatchedBackend()
        first = backend.solve_many(self._problems(matrices))
        second = backend.solve_many(self._problems(matrices))
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.values, b.values)

    def test_batch_matches_per_problem_solves(self):
        """Batch results agree with independent sequential solves to well
        inside solver tolerance."""
        matrices = self._matrices()
        backend = BatchedBackend()
        batched = backend.solve_many(self._problems(matrices))
        for matrix, result in zip(matrices, batched):
            values, _ = bottom_eigenpairs(matrix, 4, method="lanczos", seed=0)
            np.testing.assert_allclose(result.values, values, atol=1e-8)

    def test_seeding_reduces_follower_matvecs(self):
        """Followers start from the seed problem's Ritz block and converge
        in fewer operator applications than a cold solve."""
        matrices = self._matrices()
        backend = BatchedBackend()
        results = backend.solve_many(self._problems(matrices))
        cold = [
            get_backend("lanczos").solve(problem)
            for problem in self._problems(matrices)
        ]
        batched_followers = sum(r.matvecs for r in results[1:])
        cold_followers = sum(r.matvecs for r in cold[1:])
        assert batched_followers < cold_followers

    def test_single_problem_delegates_to_inner(self):
        matrices = self._matrices(count=1)
        result = BatchedBackend().solve(self._problems(matrices)[0])
        assert result.backend == "lanczos"

    def test_empty_batch(self):
        assert BatchedBackend().solve_many([]) == []

    def test_context_solve_many_routes_to_batch(self):
        matrices = self._matrices()
        context = SolverContext(method="batch", seed=0)
        solved = context.solve_many(matrices, 4)
        assert len(solved) == len(matrices)
        assert context.stats.batched_solves == len(matrices)
        # Stats attribute the solves to the batch path, not just the
        # inner backend, so --eigen-backend batch is visible in summaries.
        assert context.stats.by_backend.get("batch[lanczos]") == len(matrices)
        for matrix, (values, _) in zip(matrices, solved):
            reference = bottom_eigenvalues(matrix, 4, method="dense")
            np.testing.assert_allclose(values, reference, atol=1e-8)

    def test_share_seed_false_disables_seeding(self):
        """warm_start=False ablations must get genuinely cold followers."""
        matrices = self._matrices()
        backend = BatchedBackend()
        seeded = backend.solve_many(self._problems(matrices))
        cold = backend.solve_many(self._problems(matrices), share_seed=False)
        per_problem = [
            get_backend("lanczos").solve(problem)
            for problem in self._problems(matrices)
        ]
        for a, b in zip(cold, per_problem):
            np.testing.assert_array_equal(a.values, b.values)
            assert a.matvecs == b.matvecs
        assert sum(r.matvecs for r in cold) > sum(r.matvecs for r in seeded)

        context = SolverContext(method="batch", seed=0, warm_start=False)
        context.solve_many(matrices, 4)
        assert context.stats.warm_solves == 0

    def test_values_only_batch_retains_seed_warm_block(self):
        matrices = self._matrices()
        context = SolverContext(method="batch", seed=0)
        solved = context.solve_many(matrices, 4, want_vectors=False)
        assert all(vectors is None for _, vectors in solved)
        assert context.warm_block(matrices[0].shape[0]) is not None


class TestSolverContext:
    def test_warm_start_decreases_iteration_counts(self):
        """Regression: the context's cached Ritz block must make the second
        solve of a nearby Laplacian cheaper than a cold solve."""
        _, laplacians = generated_laplacian(n=800)
        first = aggregate_laplacians(laplacians, np.array([0.5, 0.3, 0.2]))
        second = aggregate_laplacians(laplacians, np.array([0.49, 0.31, 0.2]))

        warm_context = SolverContext(method="lanczos", seed=0, warm_start=True)
        warm_context.eigenpairs(first, 4)
        cold_matvecs = warm_context.stats.matvecs
        warm_context.eigenpairs(second, 4)
        warm_matvecs = warm_context.stats.matvecs - cold_matvecs

        cold_context = SolverContext(method="lanczos", seed=0, warm_start=False)
        cold_context.eigenpairs(second, 4)

        assert warm_context.stats.warm_solves == 1
        assert warm_matvecs < cold_context.stats.matvecs

    def test_warm_start_preserves_accuracy(self):
        _, laplacians = generated_laplacian(n=800)
        first = aggregate_laplacians(laplacians, np.array([0.5, 0.3, 0.2]))
        second = aggregate_laplacians(laplacians, np.array([0.49, 0.31, 0.2]))
        context = SolverContext(method="lanczos", seed=0)
        context.eigenpairs(first, 4)
        values, _ = context.eigenpairs(second, 4)
        reference = bottom_eigenvalues(second, 4, method="dense")
        np.testing.assert_allclose(values, reference, atol=1e-8)

    def test_stats_accounting(self):
        laplacian = running_example_laplacian()
        context = SolverContext(seed=0)
        context.eigenpairs(laplacian, 3)
        context.eigenvalues(laplacian, 3)
        context.note_saved(2)
        assert context.stats.solves == 2
        assert context.stats.saved == 2
        assert context.stats.by_backend.get("dense") == 2
        assert "eigensolves" in context.stats.summary()

    def test_seed_block_installs_warm_start(self):
        """An externally computed block donated via seed_block drives the
        next solve warm."""
        _, laplacians = generated_laplacian(n=800)
        first = aggregate_laplacians(laplacians, np.array([0.5, 0.3, 0.2]))
        second = aggregate_laplacians(laplacians, np.array([0.49, 0.31, 0.2]))
        _, vectors = bottom_eigenpairs(first, 4, method="lanczos", seed=0)
        context = SolverContext(method="lanczos", seed=0)
        context.seed_block(vectors)
        context.eigenpairs(second, 4)
        assert context.stats.warm_solves == 1

    def test_objective_reports_saved_solves(self):
        """SpectralObjective's memo cache shows up in the context stats."""
        mvag = running_example_mvag()
        laplacians = [normalized_laplacian(a) for a in mvag.graph_views]
        context = SolverContext(seed=0)
        objective = SpectralObjective(laplacians, k=2, solver=context)
        weights = np.array([0.6, 0.4])
        objective(weights)
        objective(weights)  # cache hit, no second eigensolve
        assert context.stats.solves == 1
        assert context.stats.saved == 1

    def test_objective_batch_backend_end_to_end(self):
        """The objective's batched evaluation path works on the batch
        backend and matches the dense reference."""
        _, laplacians = generated_laplacian(n=700)
        batch_objective = SpectralObjective(
            laplacians, k=3, solver=SolverContext(method="batch", seed=0)
        )
        dense_objective = SpectralObjective(
            laplacians, k=3, eigen_method="dense", seed=0
        )
        points = [
            np.array([0.5, 0.3, 0.2]),
            np.array([0.45, 0.35, 0.2]),
            np.array([0.55, 0.25, 0.2]),
        ]
        batch_components, n_solves = batch_objective.evaluate_batch(points)
        assert n_solves == len(points)
        for point, component in zip(points, batch_components):
            assert component.value == pytest.approx(
                dense_objective(point), abs=1e-8
            )
