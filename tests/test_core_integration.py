"""Tests for the integration front end and the Fig. 11 alternatives."""

import numpy as np
import pytest

from repro.core.integration import INTEGRATION_METHODS, integrate
from repro.utils.errors import ValidationError


class TestMethods:
    @pytest.mark.parametrize("method", INTEGRATION_METHODS)
    def test_every_method_runs(self, easy_mvag, method):
        result = integrate(easy_mvag, method=method)
        n = easy_mvag.n_nodes
        assert result.laplacian.shape == (n, n)
        assert result.method == method or result.method in (
            "eigengap", "connectivity"
        )

    def test_unknown_method(self, easy_mvag):
        with pytest.raises(ValidationError):
            integrate(easy_mvag, method="bogus")

    def test_equal_weights(self, easy_mvag):
        result = integrate(easy_mvag, method="equal")
        np.testing.assert_allclose(
            result.weights, np.full(easy_mvag.n_views, 1 / easy_mvag.n_views)
        )

    def test_graph_agg_weights_none(self, easy_mvag):
        result = integrate(easy_mvag, method="graph-agg")
        assert result.weights is None

    def test_sgla_records_history(self, easy_mvag):
        result = integrate(easy_mvag, method="sgla")
        assert len(result.history) >= 1
        assert result.objective_value is not None

    def test_single_objective_weights_valid(self, easy_mvag):
        for method in ("eigengap", "connectivity"):
            result = integrate(easy_mvag, method=method)
            assert np.all(result.weights >= -1e-12)
            assert result.weights.sum() == pytest.approx(1.0)

    def test_elapsed_positive(self, easy_mvag):
        for method in INTEGRATION_METHODS:
            result = integrate(easy_mvag, method=method)
            assert result.elapsed_seconds > 0

    def test_spectrum_bound_preserved(self, easy_mvag):
        """All weighted integrators output a matrix with spectrum in [0,2]."""
        from repro.solvers import bottom_eigenvalues

        for method in ("sgla", "sgla+", "equal"):
            result = integrate(easy_mvag, method=method)
            values = bottom_eigenvalues(result.laplacian, 3)
            assert values.min() >= -1e-9
