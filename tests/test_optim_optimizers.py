"""Tests for the derivative-free optimizer (cobyla, driver), cross-checked
against scipy's COBYLA."""

import numpy as np
import pytest

from cobyla_reference import scipy_cobyla_on_simplex
from repro.optim.cobyla import LinearTrustRegion
from repro.optim.driver import minimize_on_simplex
from repro.optim.simplex import capped_simplex_violation, project_to_simplex
from repro.utils.errors import ValidationError

#: the in-tree optimizer and the scipy reference it is checked against.
OPTIMIZERS = {
    "trust-linear": minimize_on_simplex,
    "scipy-cobyla": scipy_cobyla_on_simplex,
}


def quadratic_full(target):
    """Objective over full weight vectors, minimized at ``target``."""
    target = np.asarray(target)

    def func(weights):
        return float(np.sum((weights - target) ** 2))

    return func


class TestLinearTrustRegion:
    def test_minimizes_quadratic_interior(self):
        target = np.array([0.3, 0.5])  # reduced coordinates, feasible

        def func(u):
            return float(np.sum((u - target) ** 2))

        result = LinearTrustRegion(rho_end=1e-4, max_evaluations=400).minimize(
            func, np.array([0.1, 0.1])
        )
        np.testing.assert_allclose(result["x"], target, atol=5e-3)

    def test_respects_constraints(self):
        evaluated = []

        def func(u):
            evaluated.append(u.copy())
            return float(np.sum(u))

        LinearTrustRegion(max_evaluations=100).minimize(func, np.array([0.4, 0.4]))
        for point in evaluated:
            assert capped_simplex_violation(point) < 1e-9

    def test_boundary_optimum(self):
        # Minimum at the origin vertex of the capped simplex.
        def func(u):
            return float(np.sum(u))

        result = LinearTrustRegion(rho_end=1e-4, max_evaluations=300).minimize(
            func, np.array([0.3, 0.3])
        )
        assert result["fun"] < 2e-3

    def test_zero_dim(self):
        result = LinearTrustRegion().minimize(lambda u: 1.23, np.empty(0))
        assert result["fun"] == 1.23
        assert result["converged"]

    def test_invalid_radii(self):
        with pytest.raises(ValidationError):
            LinearTrustRegion(rho_start=0.1, rho_end=0.2)
        with pytest.raises(ValidationError):
            LinearTrustRegion(rho_start=-1.0)

    def test_evaluation_budget_respected(self):
        calls = [0]

        def func(u):
            calls[0] += 1
            return float(np.sum(u * u))

        LinearTrustRegion(max_evaluations=30).minimize(func, np.array([0.2, 0.2]))
        assert calls[0] <= 30

    def test_history_recorded(self):
        result = LinearTrustRegion(max_evaluations=50).minimize(
            lambda u: float(np.sum(u * u)), np.array([0.2, 0.2])
        )
        assert len(result["history"]) == result["n_evaluations"]


class TestMinimizeOnSimplex:
    @pytest.mark.parametrize("backend", sorted(OPTIMIZERS))
    def test_all_backends_reach_optimum(self, backend):
        target = project_to_simplex(np.array([0.5, 0.2, 0.3]))
        result = OPTIMIZERS[backend](
            quadratic_full(target),
            r=3,
            rho_end=1e-5,
            max_evaluations=500,
        )
        np.testing.assert_allclose(result.weights, target, atol=2e-2)
        assert abs(result.weights.sum() - 1.0) < 1e-9

    def test_r_equal_one(self):
        result = minimize_on_simplex(lambda w: float(w[0]), r=1)
        np.testing.assert_allclose(result.weights, [1.0])
        assert result.n_evaluations == 1

    def test_x0_length_checked(self):
        with pytest.raises(ValidationError):
            minimize_on_simplex(lambda w: 0.0, r=3, x0=[0.5, 0.5])

    def test_history_full_weights(self):
        result = minimize_on_simplex(
            quadratic_full([0.6, 0.4]), r=2, max_evaluations=40
        )
        for weights, _ in result.history:
            assert weights.shape == (2,)
            assert abs(weights.sum() - 1.0) < 1e-9

    def test_backends_agree(self):
        """Our from-scratch optimizer matches scipy's COBYLA optimum."""
        target = np.array([0.1, 0.6, 0.3])
        ours = minimize_on_simplex(
            quadratic_full(target), r=3, rho_end=1e-5, max_evaluations=500,
        )
        scipys = scipy_cobyla_on_simplex(
            quadratic_full(target), r=3, rho_end=1e-7, max_evaluations=500,
        )
        assert abs(ours.value - scipys.value) < 1e-2

    def test_callback_invoked(self):
        seen = []
        minimize_on_simplex(
            quadratic_full([0.5, 0.5]),
            r=2,
            max_evaluations=50,
            callback=lambda w, v: seen.append(v),
        )
        assert seen, "callback should fire at least once"
