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

ALL_BACKENDS = ("dense", "lanczos")


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

    @pytest.mark.parametrize(
        "n, t, expected",
        [
            # Small problems: dense whatever t is.
            (300, 4, "dense"),
            # Above 300 nodes the warm t = k + 1 loop runs on Lanczos.
            (301, 4, "lanczos"),
            (500, 6, "lanczos"),
            # Large t: dense once t >= 7% of n, up to 8000 nodes.
            (1500, 104, "lanczos"),
            (1500, 105, "dense"),
            (1500, 128, "dense"),
            (3000, 128, "lanczos"),
            (3000, 256, "dense"),
            (8000, 560, "dense"),
            (8001, 561, "lanczos"),
            # ARPACK's t < n - 1: dense, above the dense cap too.
            (20000, 19999, "dense"),
        ],
    )
    def test_auto_rule_boundaries(self, n, t, expected):
        """auto: dense iff n <= 300, or n <= 8000 and t >= 7% of n."""
        assert resolve_method(n, t, "auto") == expected


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
