"""Tests for the multilevel SGLA ladder (``SGLAConfig.coarsen_levels``).

The contract under test: ``coarsen_levels=0`` stays bit-identical to the
flat path that predates coarsening; the flat *fallback* (hierarchy builds
zero rungs) is bit-identical too; multilevel results agree with the flat
optimum on small problems; runs are deterministic across shard-worker
counts; and a lazy refit runs the ladder on an rp-forest stream.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.coarsen.ladder
from repro.cli import main
from repro.coarsen import gradient_refine
from repro.core.laplacian import build_view_laplacians
from repro.core.objective import SpectralObjective
from repro.core.sgla import SGLA, SGLAConfig
from repro.core.sgla_plus import SGLAPlus
from repro.datasets.generator import generate_mvag
from repro.dynamic.lazy import LazySGLA
from repro.dynamic.stream import DynamicMVAG
from repro.solvers import SolverContext
from repro.utils.errors import ValidationError


@pytest.fixture(scope="module")
def mvag():
    return generate_mvag(
        400, 4, graph_view_strengths=(0.8, 0.3), attribute_view_dims=(16,),
        seed=7,
    )


@pytest.fixture()
def min_nodes_60(monkeypatch):
    monkeypatch.setattr(repro.coarsen.ladder, "MIN_NODES", 60)


@pytest.fixture()
def min_nodes_above_n(monkeypatch):
    # Above every fixture's n: build_hierarchy stops before the first rung.
    monkeypatch.setattr(repro.coarsen.ladder, "MIN_NODES", 10_000)


def _multilevel_config(**overrides):
    base = dict(coarsen_levels=2, eps=1e-4, seed=3)
    base.update(overrides)
    return SGLAConfig(**base)


class TestFlatConformance:
    def test_zero_levels_has_no_coarsen_stats(self, mvag):
        result = SGLA(SGLAConfig(seed=3)).fit(mvag)
        assert result.coarsen_stats is None

    def test_flat_fallback_bitwise_identical(self, mvag, min_nodes_above_n):
        """A hierarchy that builds zero rungs must defer to the flat path
        exactly — same weights, same Laplacian, bit for bit."""
        flat = SGLA(SGLAConfig(seed=3)).fit(mvag)
        fallback = SGLA(SGLAConfig(coarsen_levels=3, seed=3)).fit(mvag)
        np.testing.assert_array_equal(flat.weights, fallback.weights)
        assert flat.objective_value == fallback.objective_value
        assert (flat.laplacian != fallback.laplacian).nnz == 0
        # ...but the fallback still reports what happened.
        assert fallback.coarsen_stats is not None
        assert fallback.coarsen_stats.levels == [mvag.n_nodes]
        assert fallback.coarsen_stats.summary().startswith(
            f"[{mvag.n_nodes}] "
        )

    def test_flat_fallback_sgla_plus(self, mvag, min_nodes_above_n):
        flat = SGLAPlus(SGLAConfig(seed=3)).fit(mvag)
        fallback = SGLAPlus(SGLAConfig(coarsen_levels=1, seed=3)).fit(mvag)
        np.testing.assert_array_equal(flat.weights, fallback.weights)
        assert flat.objective_value == fallback.objective_value


@pytest.mark.usefixtures("min_nodes_60")
class TestMultilevelFit:
    def test_agrees_with_flat_optimum(self, mvag):
        flat = SGLA(SGLAConfig(eps=1e-4, seed=3)).fit(mvag)
        multi = SGLA(_multilevel_config()).fit(mvag)
        # The refine stage polishes the coarse bias away: the multilevel
        # optimum must match the flat one to first order.
        assert np.abs(multi.weights - flat.weights).max() < 1e-2
        assert multi.objective_value <= flat.objective_value + 1e-3

    def test_stats_populated(self, mvag):
        result = SGLA(_multilevel_config()).fit(mvag)
        stats = result.coarsen_stats
        assert stats is not None
        assert len(stats.levels) >= 2
        assert stats.levels[0] == mvag.n_nodes
        assert stats.levels[-1] < mvag.n_nodes
        assert stats.coarse_solves > 0
        assert stats.fine_solves > 0
        assert stats.refine_evaluations > 0
        assert stats.coarsen_seconds >= 0
        assert str(mvag.n_nodes) in stats.summary()
        # The fine polish must be cheaper than the flat search it replaces.
        flat = SGLA(SGLAConfig(eps=1e-4, seed=3)).fit(mvag)
        assert stats.refine_evaluations < flat.n_objective_evaluations

    def test_sgla_plus_path(self, mvag):
        result = SGLAPlus(_multilevel_config()).fit(mvag)
        assert result.coarsen_stats is not None
        assert result.coarsen_stats.levels[-1] < mvag.n_nodes
        np.testing.assert_allclose(result.weights.sum(), 1.0, atol=1e-9)
        # SGLA+ flat is a one-shot surrogate minimizer; the multilevel
        # gradient polish must end at least as good an objective.
        flat = SGLAPlus(SGLAConfig(eps=1e-4, seed=3)).fit(mvag)
        assert result.objective_value <= flat.objective_value + 1e-9

    def test_deterministic_for_fixed_seed(self, mvag):
        first = SGLA(_multilevel_config()).fit(mvag)
        second = SGLA(_multilevel_config()).fit(mvag)
        np.testing.assert_array_equal(first.weights, second.weights)
        assert first.objective_value == second.objective_value

    @pytest.mark.parametrize("workers", [0, 1, 2])
    def test_deterministic_across_shard_workers(self, mvag, workers):
        """ISSUE acceptance: multilevel results are identical whatever the
        shard-worker count (0 = classic, 1 = serial plan, 2 = pool)."""
        reference = SGLA(_multilevel_config()).fit(mvag)
        sharded = SGLA(
            _multilevel_config(shard_workers=workers)
        ).fit(mvag)
        np.testing.assert_array_equal(reference.weights, sharded.weights)
        assert reference.objective_value == sharded.objective_value


class _ToleranceLog(SolverContext):
    """A solver context that records the target tolerance of each
    eigenpair solve."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.tols = []

    def eigenpairs(self, *args, **kwargs):
        self.tols.append(self.tol)
        return super().eigenpairs(*args, **kwargs)


class TestRefineLadder:
    """The refine's tolerance ladder, keyed to its step movement, on the
    iterative backend (the fixture is dense-sized under ``auto``)."""

    K = 4

    def _refine(self, laplacians, tol_ladder):
        solver = _ToleranceLog(method="lanczos", seed=3)
        start = np.full(len(laplacians), 1.0 / len(laplacians))
        refined = gradient_refine(
            laplacians, self.K, 0.5, solver, start,
            xtol=5e-5, max_solves=20, tol_ladder=tol_ladder,
        )
        return refined, solver

    def test_ladder_refine_matches_fixed_and_reports_exact(self, mvag):
        laplacians = build_view_laplacians(mvag, knn_k=10)
        (fixed_w, _, _, _, _), _ = self._refine(laplacians, False)
        (weights, value, _, _, _), solver = self._refine(laplacians, True)
        assert solver.stats.coarse_solves > 0
        # The returned value comes from an exact solve, and the context
        # is back at full precision for the stages that follow.
        assert solver.tols[-1] == 0.0
        assert solver.tol == 0.0
        assert np.abs(weights - fixed_w).max() < 1e-6
        fresh = SpectralObjective(
            laplacians, k=self.K,
            solver=SolverContext(method="lanczos", seed=3),
        )
        assert value == pytest.approx(fresh(weights), abs=1e-10)


class TestConfigValidation:
    def test_negative_levels_rejected(self):
        with pytest.raises(ValidationError):
            SGLAConfig(coarsen_levels=-1)

    def test_removed_coarsen_knobs_refused(self):
        with pytest.raises(TypeError):
            SGLAConfig(coarsen_backend="landmark")
        with pytest.raises(TypeError):
            SGLAConfig(coarsen_params={"ratio": 0.25})


class TestCLI:
    def test_cluster_with_coarsen_prints_stats(self, capsys):
        code = main(["cluster", "rm", "--method", "sgla", "--coarsen", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "coarsen: [" in out

    def test_coarsen_backend_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["cluster", "rm", "--method", "sgla", "--coarsen", "1",
                 "--coarsen-backend", "landmark"]
            )
        assert excinfo.value.code == 2
        assert "--coarsen-backend" in capsys.readouterr().err


class TestDynamicStreams:
    @pytest.fixture(scope="class")
    def streamed(self):
        # rp-forest only engages above RP_FOREST_MIN_N (512) nodes.
        return generate_mvag(
            600, 4, graph_view_strengths=(0.7,), attribute_view_dims=(8,),
            seed=13,
        )

    def test_ladder_fits_and_refreshes_rp_forest_stream(self, streamed):
        # Every refit builds its own hierarchy from the current
        # Laplacians, so the ladder needs no guard on streams.
        dynamic = DynamicMVAG(streamed, knn_k=5, knn_backend="rp-forest")
        lazy = LazySGLA(
            k=4, config=SGLAConfig(coarsen_levels=1), drift_threshold=0.0
        )
        lazy.fit(dynamic)
        rng = np.random.default_rng(0)
        for node in (3, 77, 410):
            dynamic.update_attributes(0, node, rng.standard_normal(8))
        report = lazy.refresh(dynamic)
        assert report.refitted
        assert report.weights.shape == (2,)
        np.testing.assert_allclose(report.weights.sum(), 1.0, atol=1e-9)
        assert dynamic.neighbor_stats.by_backend == {"rp-forest": 2}

    def test_flat_config_streams_freely(self, streamed):
        dynamic = DynamicMVAG(streamed, knn_k=5, knn_backend="rp-forest")
        lazy = LazySGLA(k=4, config=SGLAConfig())  # coarsen_levels=0
        lazy.fit(dynamic)
        report = lazy.refresh(dynamic)
        assert report.weights.shape == (2,)
