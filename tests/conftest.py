"""Shared fixtures for the test suite.

Fixtures are deliberately small (tens to a few hundred nodes) so the whole
suite stays fast; scaling behaviour is exercised by the benchmarks instead.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.laplacian import build_view_laplacians
from repro.datasets.generator import generate_mvag
from repro.datasets.running_example import running_example_mvag


def pytest_addoption(parser):
    parser.addoption(
        "--shuffle-seed", type=int, default=None, metavar="N",
        help="run the collected tests in an order shuffled by seed N, to "
        "expose tests that depend on what ran before them",
    )


def pytest_collection_modifyitems(config, items):
    seed = config.getoption("--shuffle-seed")
    if seed is not None:
        random.Random(seed).shuffle(items)


@pytest.fixture(scope="session")
def easy_mvag():
    """3 clusters, one strong view, one noisy view, one attribute view."""
    return generate_mvag(
        n_nodes=150,
        n_clusters=3,
        graph_view_strengths=[0.9, 0.15],
        attribute_view_dims=[16],
        attribute_view_signals=[0.7],
        seed=11,
    )


@pytest.fixture(scope="session")
def easy_laplacians(easy_mvag):
    """View Laplacians of :func:`easy_mvag`."""
    return build_view_laplacians(easy_mvag, knn_k=8)


@pytest.fixture(scope="session")
def hetero_mvag():
    """4 clusters with strongly heterogeneous view quality."""
    return generate_mvag(
        n_nodes=240,
        n_clusters=4,
        graph_view_strengths=[0.85, 0.1, 0.05],
        attribute_view_dims=[24],
        attribute_view_signals=[0.4],
        avg_degree=12,
        seed=23,
    )


@pytest.fixture(scope="session")
def running_example():
    """The paper's Fig. 2 8-node MVAG."""
    return running_example_mvag()


@pytest.fixture()
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def ring_of_cliques():
    """Four 10-cliques connected in a ring — unambiguous 4 clusters."""
    blocks = []
    n_cliques, clique_size = 4, 10
    n = n_cliques * clique_size
    dense = np.zeros((n, n))
    for c in range(n_cliques):
        start = c * clique_size
        dense[start : start + clique_size, start : start + clique_size] = 1.0
    np.fill_diagonal(dense, 0.0)
    for c in range(n_cliques):
        a = c * clique_size
        b = ((c + 1) % n_cliques) * clique_size
        dense[a, b] = dense[b, a] = 1.0
    labels = np.repeat(np.arange(n_cliques), clique_size)
    return sp.csr_matrix(dense), labels
