"""Cross-backend conformance harness: one differential test matrix.

The codebase exposes 2 eigensolver backends for the objective loop x 3
neighbor backends, and per-PR parity checks only ever compared the pair
a PR introduced.  This suite sweeps the full combinatorial surface
through the *end-to-end* pipeline (``cluster_mvag`` with SGLA+) and
asserts every combination lands on the same optimum:

* ``|w* - w*_ref| < 1e-6`` pairwise (the objective surfaces differ only
  by eigensolve round-off, so the selected view weights must agree far
  below any decision threshold), and
* identical cluster assignments (discretization runs on
  sign-canonicalized eigenvectors — ``repro.solvers.canonicalize_signs``
  — so fp-level eigensolver differences must not flip labels).

Backend dispatch is part of what is being conformance-tested: at the
matrix fixture's size the registry's own rules route ``rp-forest`` to
``exact`` (n below the forest cutoff) exactly as production dispatch
would; a separate structural test runs the forest for real above the
cutoff, where approximate search changes the graph and only
cluster-level agreement is guaranteed.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.pipeline import cluster_mvag
from repro.core.sgla import SGLAConfig
from repro.datasets.generator import generate_mvag
from repro.datasets.running_example import running_example_mvag
from repro.evaluation.clustering_metrics import clustering_report

EIGEN_BACKENDS = ("dense", "lanczos")
KNN_BACKENDS = ("exact", "exact-f32", "rp-forest")

MATRIX = tuple(itertools.product(EIGEN_BACKENDS, KNN_BACKENDS))
REFERENCE = ("dense", "exact")

#: pairwise weight agreement across the matrix.
W_TOL = 1e-6


@pytest.fixture(scope="module")
def conformance_mvag():
    """Well-separated 3-cluster MVAG, sized so every eigen backend keeps
    its own numerics (an explicit ``lanczos`` is not rerouted to dense
    at this n) while the whole 6-run matrix stays fast."""
    return generate_mvag(
        n_nodes=400,
        n_clusters=3,
        graph_view_strengths=[0.9, 0.25],
        attribute_view_dims=[24, 16],
        attribute_view_signals=[0.8, 0.7],
        seed=17,
    )


@pytest.fixture(scope="module")
def matrix_outputs(conformance_mvag):
    """Every (eigen, knn) combination, run once."""
    outputs = {}
    for eigen, knn in MATRIX:
        config = SGLAConfig(eigen_backend=eigen, knn_backend=knn)
        outputs[(eigen, knn)] = cluster_mvag(
            conformance_mvag, method="sgla+", config=config
        )
    return outputs


@pytest.mark.parametrize("eigen,knn", MATRIX)
def test_weights_agree_with_reference(matrix_outputs, eigen, knn):
    reference = matrix_outputs[REFERENCE].integration.weights
    weights = matrix_outputs[(eigen, knn)].integration.weights
    delta = float(np.max(np.abs(weights - reference)))
    assert delta < W_TOL, (
        f"w* drifted {delta:.2e} for eigen={eigen}, knn={knn}"
    )


@pytest.mark.parametrize("eigen,knn", MATRIX)
def test_labels_identical_to_reference(matrix_outputs, eigen, knn):
    reference = matrix_outputs[REFERENCE].labels
    labels = matrix_outputs[(eigen, knn)].labels
    assert np.array_equal(labels, reference), (
        f"cluster assignments differ for eigen={eigen}, knn={knn}"
    )


def test_pairwise_weight_agreement(matrix_outputs):
    """The 1e-6 bound holds between *every* pair, not just vs reference."""
    combos = list(matrix_outputs)
    worst = 0.0
    for first, second in itertools.combinations(combos, 2):
        delta = float(np.max(np.abs(
            matrix_outputs[first].integration.weights
            - matrix_outputs[second].integration.weights
        )))
        worst = max(worst, delta)
    assert worst < 2 * W_TOL  # triangle bound on the per-reference check


def test_matrix_recovers_ground_truth(matrix_outputs, conformance_mvag):
    """Guard against the vacuous-conformance failure mode: all combos
    agreeing on a *degenerate* answer would still pass the parity
    checks, so pin the common answer to the planted clusters."""
    report = clustering_report(
        conformance_mvag.labels, matrix_outputs[REFERENCE].labels
    )
    assert report["ari"] > 0.9


# --------------------------------------------------------------------- #
# Running example (paper Fig. 2)
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def running_example_outputs():
    mvag = running_example_mvag()
    outputs = {}
    for eigen in EIGEN_BACKENDS:
        # No attribute views on the running example, so the knn axis is
        # moot; every eigen backend resolves dense at n=8, making this
        # the exact-equality corner of the matrix.
        config = SGLAConfig(eigen_backend=eigen)
        outputs[eigen] = cluster_mvag(mvag, method="sgla+", config=config)
    return outputs


def test_running_example_exact_agreement(running_example_outputs):
    reference = running_example_outputs["dense"]
    for combo, output in running_example_outputs.items():
        assert np.allclose(
            output.integration.weights,
            reference.integration.weights,
            atol=1e-12,
        ), combo
        assert np.array_equal(output.labels, reference.labels), combo


def test_running_example_finds_both_clusters(running_example_outputs):
    mvag = running_example_mvag()
    labels = running_example_outputs["dense"].labels
    report = clustering_report(mvag.labels, labels)
    assert report["ari"] == 1.0


# --------------------------------------------------------------------- #
# rp-forest above the exact-fallback cutoff (genuinely approximate)
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def large_mvag():
    """Above RP_FOREST_MIN_N and 2x leaf_size: the forest really runs."""
    return generate_mvag(
        n_nodes=1000,
        n_clusters=3,
        graph_view_strengths=[0.85],
        attribute_view_dims=[32],
        attribute_view_signals=[0.8],
        seed=19,
    )


def test_rp_forest_structural_agreement(large_mvag):
    """Approximate search changes the KNN graph, so bit-level ``w*``
    parity is out of scope — the conformance guarantee degrades to
    cluster-level agreement with the exact backend."""
    exact = cluster_mvag(
        large_mvag, method="sgla+",
        config=SGLAConfig(knn_backend="exact"),
    )
    forest = cluster_mvag(
        large_mvag, method="sgla+",
        config=SGLAConfig(
            knn_backend="rp-forest",
            knn_params={"leaf_size": 128, "n_trees": 8, "refine_iters": 1},
        ),
    )
    cross = clustering_report(exact.labels, forest.labels)
    assert cross["ari"] > 0.95
    truth = clustering_report(large_mvag.labels, forest.labels)
    assert truth["ari"] > 0.9
    assert float(np.max(np.abs(
        exact.integration.weights - forest.integration.weights
    ))) < 0.05
