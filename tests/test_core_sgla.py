"""Tests for the SGLA solver (Algorithm 1)."""

import numpy as np
import pytest

from cobyla_reference import scipy_cobyla_on_simplex
from repro.core.laplacian import build_view_laplacians
from repro.core.objective import SpectralObjective
from repro.core.sgla import SGLA, SGLAConfig, prepare_laplacians
from repro.solvers import available_backends
from repro.utils.errors import ValidationError


class TestConfig:
    def test_paper_defaults(self):
        config = SGLAConfig()
        assert config.gamma == 0.5
        assert config.eps == 1e-3
        assert config.t_max == 50
        assert config.alpha_r == 0.05
        assert config.knn_k == 10

    def test_invalid_eps(self):
        with pytest.raises(ValidationError):
            SGLAConfig(eps=0.0)

    def test_invalid_t_max(self):
        with pytest.raises(ValidationError):
            SGLAConfig(t_max=0)

    def test_unknown_eigen_backend_rejected(self):
        """A name the solver registry does not know fails when the config
        is built, and the message lists what is available."""
        for name in ("lobpcg", "batch", "nope"):
            with pytest.raises(ValidationError) as info:
                SGLAConfig(eigen_backend=name)
            for available in ("auto",) + available_backends():
                assert available in str(info.value)
        for name in ("auto",) + available_backends():
            assert SGLAConfig(eigen_backend=name).eigen_backend == name

    def test_config_xor_overrides(self):
        with pytest.raises(ValidationError):
            SGLA(SGLAConfig(), gamma=0.1)

    def test_overrides(self):
        solver = SGLA(gamma=0.2, t_max=10)
        assert solver.config.gamma == 0.2
        assert solver.config.t_max == 10


class TestFit:
    def test_returns_simplex_weights(self, easy_mvag):
        result = SGLA(t_max=20).fit(easy_mvag)
        assert result.weights.shape == (easy_mvag.n_views,)
        assert np.all(result.weights >= 0)
        assert result.weights.sum() == pytest.approx(1.0)

    def test_laplacian_shape_and_symmetry(self, easy_mvag):
        result = SGLA(t_max=15).fit(easy_mvag)
        n = easy_mvag.n_nodes
        assert result.laplacian.shape == (n, n)
        difference = result.laplacian - result.laplacian.T
        assert abs(difference).max() < 1e-10

    def test_downweights_noise_view(self, easy_mvag):
        """View 2 is near-random (strength 0.15): it must not get the
        largest weight."""
        result = SGLA(t_max=40).fit(easy_mvag)
        assert result.weights[1] < max(result.weights[0], result.weights[2])

    def test_beats_uniform_objective(self, easy_laplacians):
        from repro.core.objective import SpectralObjective

        solver = SGLA(t_max=40)
        result = solver.fit(easy_laplacians, k=3)
        objective = SpectralObjective(easy_laplacians, k=3, gamma=0.5)
        uniform = np.full(3, 1 / 3)
        assert result.objective_value <= objective(uniform) + 1e-9

    def test_deterministic(self, easy_mvag):
        first = SGLA(t_max=15, seed=5).fit(easy_mvag)
        second = SGLA(t_max=15, seed=5).fit(easy_mvag)
        np.testing.assert_allclose(first.weights, second.weights)

    def test_history_recorded(self, easy_mvag):
        result = SGLA(t_max=15).fit(easy_mvag)
        assert len(result.history) >= 1
        for weights, value in result.history:
            assert weights.shape == (easy_mvag.n_views,)
            assert np.isfinite(value)

    def test_history_contains_final_value(self, easy_mvag):
        result = SGLA(t_max=25).fit(easy_mvag)
        values = [value for _, value in result.history]
        assert min(values) == pytest.approx(result.objective_value)

    def test_evaluation_budget(self, easy_mvag):
        result = SGLA(t_max=10).fit(easy_mvag)
        assert result.n_objective_evaluations <= 10

    def test_raw_laplacians_need_k(self, easy_laplacians):
        with pytest.raises(ValidationError):
            SGLA().fit(easy_laplacians)

    def test_unlabeled_mvag_needs_k(self, easy_mvag):
        from repro.core.mvag import MVAG

        unlabeled = MVAG(
            graph_views=easy_mvag.graph_views,
            attribute_views=easy_mvag.attribute_views,
        )
        with pytest.raises(ValidationError):
            SGLA().fit(unlabeled)

    def test_explicit_k_overrides_labels(self, easy_mvag):
        result = SGLA(t_max=5).fit(easy_mvag, k=2)
        assert result.weights.shape == (easy_mvag.n_views,)

    def test_elapsed_recorded(self, easy_mvag):
        result = SGLA(t_max=5).fit(easy_mvag)
        assert result.elapsed_seconds > 0


def scipy_cobyla_value(mvag, config):
    """h(w*) of SGLA's objective and budget, minimized by scipy's COBYLA."""
    laplacians, k = prepare_laplacians(mvag, None, config)
    objective = SpectralObjective(
        laplacians, k=k, gamma=config.gamma, seed=config.seed
    )
    return scipy_cobyla_on_simplex(
        objective,
        r=objective.r,
        rho_start=config.rho_start,
        rho_end=config.eps,
        max_evaluations=config.t_max,
    ).value


#: h(w*) from SGLA's own optimizer and from the scipy reference.
OPTIMA = {
    "trust-linear": lambda mvag, config: SGLA(config).fit(mvag).objective_value,
    "scipy-cobyla": scipy_cobyla_value,
}


class TestBackends:
    """SGLA's optimizer against scipy's COBYLA on the same objective."""

    @pytest.mark.parametrize("backend", ["trust-linear", "scipy-cobyla"])
    def test_all_backends_run(self, easy_mvag, backend):
        assert np.isfinite(OPTIMA[backend](easy_mvag, SGLAConfig(t_max=25)))

    def test_backends_reach_similar_optima(self, easy_mvag):
        config = SGLAConfig(t_max=50)
        ours = OPTIMA["trust-linear"](easy_mvag, config)
        scipys = OPTIMA["scipy-cobyla"](easy_mvag, config)
        assert abs(ours - scipys) < 0.08
