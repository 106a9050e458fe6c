"""Tests for the trust-region-driven tolerance ladder (DESIGN.md §8)."""

import numpy as np
import pytest

from repro.core.objective import (
    LADDER_COARSE_TOL,
    LADDER_TIGHT_TOL,
    SpectralObjective,
    ladder_tolerance,
)
from repro.core.laplacian import build_view_laplacians
from repro.core.sgla import SGLA, SGLAConfig
from repro.core.sgla_plus import SGLAPlus
from repro.datasets.generator import generate_mvag
from repro.datasets.profiles import load_profile_mvag
from repro.optim.cobyla import LinearTrustRegion
from repro.optim.driver import minimize_on_simplex
from repro.solvers import SolverContext
from repro.utils.errors import ValidationError


class TestLadderMapping:
    def test_coarse_at_rho_start(self):
        assert ladder_tolerance(0.25, 0.25, 1e-3) == LADDER_COARSE_TOL
        assert ladder_tolerance(1.0, 0.25, 1e-3) == LADDER_COARSE_TOL

    def test_backend_default_at_rho_end(self):
        assert ladder_tolerance(1e-3, 0.25, 1e-3) == 0.0
        assert ladder_tolerance(1e-5, 0.25, 1e-3) == 0.0

    def test_monotone_nonincreasing(self):
        rhos = np.geomspace(0.25, 1e-3, 40)
        tols = [ladder_tolerance(rho, 0.25, 1e-3) for rho in rhos]
        nonzero = [t for t in tols if t > 0]
        assert all(a >= b for a, b in zip(nonzero, nonzero[1:]))
        assert tols[0] == LADDER_COARSE_TOL
        assert tols[-1] == 0.0

    def test_snaps_to_zero_below_tight(self):
        for rho in np.geomspace(0.25, 1e-3, 60):
            tol = ladder_tolerance(rho, 0.25, 1e-3)
            assert tol == 0.0 or tol > LADDER_TIGHT_TOL

    def test_degenerate_radii_are_exact(self):
        assert ladder_tolerance(0.1, 0.25, 0.0) == 0.0
        assert ladder_tolerance(0.1, 1e-3, 1e-3) == 0.0


class TestSolverContextTolerance:
    def test_set_tolerance_updates_and_counts(self):
        context = SolverContext(seed=0)
        assert context.tol == 0.0
        context.set_tolerance(1e-4)
        assert context.tol == 1e-4
        context.set_tolerance(1e-4)  # no-op, not a change
        context.set_tolerance(0.0)
        assert context.tol == 0.0
        assert context.stats.tolerance_updates == 2

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValidationError):
            SolverContext(seed=0).set_tolerance(-1e-6)

    def test_coarse_solves_counted(self):
        mvag = generate_mvag(
            n_nodes=120, n_clusters=2, graph_view_strengths=[0.8, 0.3],
            seed=0,
        )
        laplacians = build_view_laplacians(mvag, knn_k=5)
        context = SolverContext(method="lanczos", seed=0)
        context.eigenvalues(laplacians[0], 3)
        context.set_tolerance(1e-4)
        context.eigenvalues(laplacians[1], 3)
        assert context.stats.coarse_solves == 1
        assert "coarse" in context.stats.summary()

    def test_dense_solves_are_exact_at_any_tolerance(self):
        """A solve that resolves to dense runs exact, so it is never
        counted coarse and its tolerance reads 0."""
        mvag = generate_mvag(
            n_nodes=120, n_clusters=2, graph_view_strengths=[0.8, 0.3],
            seed=0,
        )
        laplacians = build_view_laplacians(mvag, knn_k=5)
        context = SolverContext(method="auto", tol=1e-4, seed=0)
        assert context.resolve(120, 3) == "dense"
        assert context.tolerance_for(120, 3) == 0.0
        assert context.tolerance_for(120, 3, method="lanczos") == 1e-4
        context.eigenvalues(laplacians[0], 3)
        assert context.stats.solves == 1
        assert context.stats.coarse_solves == 0


class TestRhoExposure:
    def test_trust_linear_reports_decreasing_radii(self):
        radii = []

        def objective(u):
            return float((u[0] - 0.3) ** 2)

        LinearTrustRegion(
            rho_start=0.25, rho_end=1e-3, max_evaluations=60, seed=0
        ).minimize(objective, np.array([0.5]), rho_callback=radii.append)
        assert radii[0] == 0.25
        assert min(radii) < 0.25  # the radius actually contracted
        assert all(r > 0 for r in radii)

    def test_driver_threads_listener(self):
        radii = []
        minimize_on_simplex(
            lambda w: float((w[0] - 0.7) ** 2),
            r=2,
            rho_listener=radii.append,
            max_evaluations=40,
        )
        assert radii and radii[0] == 0.25


class TestObjectiveLadder:
    def _objective(self, n=700, seed=0):
        mvag = generate_mvag(
            n_nodes=n,
            n_clusters=3,
            graph_view_strengths=[0.8, 0.3],
            attribute_view_dims=[16],
            seed=seed,
        )
        laplacians = build_view_laplacians(mvag, knn_k=5)
        solver = SolverContext(method="lanczos", seed=0)
        return SpectralObjective(laplacians, k=3, solver=solver), solver

    def test_set_trust_radius_noop_without_ladder(self):
        objective, solver = self._objective()
        objective.set_trust_radius(0.25)
        assert solver.tol == 0.0

    def test_ladder_drives_solver_tolerance(self):
        objective, solver = self._objective()
        objective.enable_tolerance_ladder(0.25, 1e-3)
        assert solver.tol == LADDER_COARSE_TOL
        objective.set_trust_radius(0.02)
        assert 0.0 < solver.tol < LADDER_COARSE_TOL
        objective.set_trust_radius(1e-3)
        assert solver.tol == 0.0

    def test_tightening_invalidates_coarse_cache(self):
        """A value cached at a coarse tolerance is recomputed — not
        served stale — once the ladder has tightened past it."""
        objective, solver = self._objective()
        objective.enable_tolerance_ladder(0.25, 1e-3, coarse_tol=1e-3)
        weights = np.array([0.5, 0.3, 0.2])
        objective.components(weights)  # cached at the coarse rung
        solves = solver.stats.solves
        objective.components(weights)  # same rung: served from cache
        assert solver.stats.solves == solves
        objective.set_trust_radius(1e-3)  # tighten to backend default
        objective.components(weights)  # stale coarse entry: recomputed
        assert solver.stats.solves == solves + 1
        solves = solver.stats.solves
        objective.components(weights)  # now cached tight: served again
        assert solver.stats.solves == solves

    def test_evaluate_exact_bypasses_coarse_cache(self):
        objective, solver = self._objective()
        objective.enable_tolerance_ladder(0.25, 1e-3, coarse_tol=1e-3)
        weights = np.array([0.5, 0.3, 0.2])
        coarse = objective.components(weights)
        solves_before = solver.stats.solves
        exact = objective.evaluate_exact(weights)
        assert solver.stats.solves == solves_before + 1  # cache bypassed
        assert solver.tol == 0.0
        assert exact.value == pytest.approx(coarse.value, abs=1e-2)
        # The exact value replaces the coarse cache entry.
        assert objective.components(weights).value == exact.value


class TestSGLALadder:
    def _mvag(self):
        return load_profile_mvag("yelp_small", seed=0)

    def test_determinism_same_seed_same_result(self):
        mvag = self._mvag()
        config = SGLAConfig(seed=0, eigen_backend="lanczos", tol_ladder=True)
        a = SGLA(config).fit(mvag)
        b = SGLA(config).fit(mvag)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.objective_value == b.objective_value

    def test_matches_fixed_tolerance_run(self):
        """Same seed => same w* (1e-6) and same final h(w*) (1e-8) as the
        fixed-tolerance run; the ladder only removes wasted precision."""
        mvag = self._mvag()
        fixed = SGLA(
            SGLAConfig(seed=0, eigen_backend="lanczos", tol_ladder=False)
        ).fit(mvag)
        ladder = SGLA(
            SGLAConfig(seed=0, eigen_backend="lanczos", tol_ladder=True)
        ).fit(mvag)
        assert np.max(np.abs(fixed.weights - ladder.weights)) < 1e-6
        assert abs(fixed.objective_value - ladder.objective_value) < 1e-8

    def test_strictly_fewer_matvecs_than_fixed(self):
        """The matvec regression gate on the *_small profile."""
        mvag = self._mvag()
        fixed = SGLA(
            SGLAConfig(seed=0, eigen_backend="lanczos", tol_ladder=False)
        ).fit(mvag)
        ladder = SGLA(
            SGLAConfig(seed=0, eigen_backend="lanczos", tol_ladder=True)
        ).fit(mvag)
        assert ladder.solver_stats.matvecs < fixed.solver_stats.matvecs
        assert ladder.solver_stats.coarse_solves > 0

    def test_solver_left_at_full_precision(self):
        """Stages after the optimizer (clustering, embedding) must run
        exact: the ladder resets the shared context on the way out."""
        mvag = self._mvag()
        config = SGLAConfig(seed=0, eigen_backend="lanczos", tol_ladder=True)
        solver = config.make_solver()
        SGLA(config).fit(mvag, solver=solver)
        assert solver.tol == 0.0

    def test_caller_configured_tolerance_restored(self):
        """A caller-supplied context's own tolerance survives a ladder
        run (SGLA and SGLA+ both restore it on the way out)."""
        mvag = self._mvag()
        config = SGLAConfig(seed=0, eigen_backend="lanczos", tol_ladder=True)
        for solver_cls in (SGLA, SGLAPlus):
            solver = SolverContext(method="lanczos", tol=1e-6, seed=0)
            solver_cls(config).fit(mvag, solver=solver)
            assert solver.tol == 1e-6

    def test_sgla_plus_ladder(self):
        mvag = self._mvag()
        fixed = SGLAPlus(
            SGLAConfig(seed=0, eigen_backend="lanczos", tol_ladder=False)
        ).fit(mvag)
        ladder = SGLAPlus(
            SGLAConfig(seed=0, eigen_backend="lanczos", tol_ladder=True)
        ).fit(mvag)
        assert np.max(np.abs(fixed.weights - ladder.weights)) < 1e-6
        assert abs(fixed.objective_value - ladder.objective_value) < 1e-8
        assert ladder.solver_stats.matvecs < fixed.solver_stats.matvecs

    def test_ladder_is_the_default(self):
        assert SGLAConfig().tol_ladder is True

    @pytest.mark.parametrize("solver_cls", [SGLA, SGLAPlus])
    def test_dense_path_unchanged_by_ladder(self, solver_cls):
        """Dense solves are exact at any tolerance, so on the dense path
        the ladder re-solves nothing: the same solve count, the same w*
        and h(w*) bit for bit, and no coarse solves."""
        mvag = load_profile_mvag("dblp_small", seed=0)
        fixed = solver_cls(
            SGLAConfig(seed=0, eigen_backend="dense", tol_ladder=False)
        ).fit(mvag)
        ladder = solver_cls(
            SGLAConfig(seed=0, eigen_backend="dense", tol_ladder=True)
        ).fit(mvag)
        solves = fixed.solver_stats.solves
        assert ladder.solver_stats.by_backend == {"dense": solves}
        assert ladder.solver_stats.solves == solves
        np.testing.assert_array_equal(ladder.weights, fixed.weights)
        assert ladder.objective_value == fixed.objective_value
        assert ladder.solver_stats.coarse_solves == 0

    def test_downstream_clustering_quality_not_degraded(self):
        """Regression: with a shared solver context, the ladder's
        different warm-block history must not degrade the clustering
        stage.  (Exact label equality is not guaranteed — w* matches to
        ~1e-9, not bitwise, and the Yu–Shi discretization is a local
        rotation search — but quality must hold; the sign
        canonicalization in spectral_embedding_matrix removes the
        solver-sign luck that used to dominate this.)"""
        from repro.core.pipeline import cluster_mvag
        from repro.evaluation.clustering_metrics import clustering_report

        mvag = generate_mvag(
            n_nodes=700,
            n_clusters=6,
            graph_view_strengths=[0.9, 0.6],
            attribute_view_dims=[16],
            seed=2,
        )
        quality = {}
        for ladder in (False, True):
            config = SGLAConfig(
                seed=0, eigen_backend="lanczos", tol_ladder=ladder
            )
            solver = config.make_solver()
            output = cluster_mvag(
                mvag, method="sgla", config=config, seed=0, solver=solver
            )
            quality[ladder] = clustering_report(
                mvag.labels, output.labels
            )["acc"]
        assert quality[True] >= quality[False] - 0.01
