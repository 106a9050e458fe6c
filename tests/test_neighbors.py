"""Tests for the pluggable neighbor-search subsystem (DESIGN.md §9)."""

import numpy as np
import pytest
import scipy.sparse as sp

import repro.neighbors
from registry_contract import RegistryContract
from repro.core.knn import knn_graph
from repro.core.laplacian import build_view_laplacians
from repro.core.pipeline import cluster_mvag
from repro.core.sgla import SGLA, SGLAConfig
from repro.datasets.generator import generate_mvag
from repro.datasets.running_example import running_example_mvag
from repro.evaluation.clustering_metrics import clustering_report
from repro.neighbors import (
    EXACT_CUTOFF,
    NeighborBackend,
    NeighborRequest,
    NeighborResult,
    NeighborStats,
    RPForest,
    available_backends,
    get_backend,
    normalize_rows,
    register_backend,
    resolve_backend,
    unregister_backend,
)
from repro.neighbors.rp_forest import DEFAULT_LEAF_SIZE
from repro.utils.errors import ValidationError
from repro.utils.sparse import is_symmetric

#: recall floor gated here and in benchmarks/bench_knn.py.
RECALL_FLOOR = 0.95


def reference_knn_graph(features, k=10, block_size=2048, weighted=True):
    """The pre-subsystem knn_graph implementation, kept verbatim as the
    bit-identity reference for the ``exact`` backend."""
    from repro.utils.sparse import symmetrize
    from repro.utils.validation import check_finite

    check_finite(features, name="attribute view")
    n = features.shape[0]
    if n < 2:
        return sp.csr_matrix((n, n), dtype=np.float64)
    sparse_input = sp.issparse(features)
    if sparse_input:
        features = features.tocsr().astype(np.float64)
        norms = np.sqrt(
            np.asarray(features.multiply(features).sum(axis=1)).ravel()
        )
        norms[norms == 0] = 1.0
        normalized = sp.diags(1.0 / norms).dot(features).tocsr()
    else:
        features = np.asarray(features, dtype=np.float64)
        norms = np.linalg.norm(features, axis=1)
        norms[norms == 0] = 1.0
        normalized = features / norms[:, None]
    effective_k = min(k, n - 1)

    rows_parts, cols_parts, vals_parts = [], [], []
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        if sparse_input:
            block = normalized[start:stop].dot(normalized.T).toarray()
        else:
            block = normalized[start:stop].dot(normalized.T)
        rows_local = np.arange(stop - start)
        self_columns = start + rows_local
        valid = self_columns < n
        block[rows_local[valid], self_columns[valid]] = -np.inf
        kk = min(effective_k, n - 1)
        top_idx = np.argpartition(block, -kk, axis=1)[:, -kk:]
        top_val = np.take_along_axis(block, top_idx, axis=1)
        rows_parts.append(np.repeat(np.arange(start, stop), top_idx.shape[1]))
        cols_parts.append(top_idx.ravel())
        vals_parts.append(top_val.ravel())
    rows = np.concatenate(rows_parts)
    cols = np.concatenate(cols_parts)
    vals = np.concatenate(vals_parts)
    finite = np.isfinite(vals)
    rows, cols, vals = rows[finite], cols[finite], vals[finite]
    vals = np.clip(vals, 0.0, None)
    if not weighted:
        vals = (vals > 0).astype(np.float64)
    adjacency = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    adjacency = symmetrize(adjacency, mode="max")
    adjacency.setdiag(0.0)
    adjacency.eliminate_zeros()
    return adjacency


def manifold_features(n, d, latent_dim=8, n_clusters=6, seed=2):
    """Attribute-like features with realistic low intrinsic dimension."""
    rng = np.random.default_rng(seed)
    latent = rng.standard_normal((n, latent_dim))
    centers = rng.standard_normal((n_clusters, latent_dim)) * 3
    latent += centers[rng.integers(0, n_clusters, size=n)]
    projection = rng.standard_normal((latent_dim, d))
    return latent @ projection + 0.05 * rng.standard_normal((n, d))


def directed_recall(exact_graph, approx_graph):
    """Fraction of exact-graph edges present in the approximate graph."""
    exact_edges = set(zip(*exact_graph.nonzero()))
    approx_edges = set(zip(*approx_graph.nonzero()))
    return len(exact_edges & approx_edges) / len(exact_edges)


def assert_bit_identical(a, b):
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #


class TestRegistry(RegistryContract):
    package = repro.neighbors

    def test_builtin_backends_registered(self):
        names = available_backends()
        assert "exact" in names
        assert "exact-f32" in names
        assert "rp-forest" in names

    def test_unknown_backend_through_knn_graph(self):
        with pytest.raises(ValidationError, match="available"):
            knn_graph(np.ones((10, 3)), k=2, backend="nope")

    def test_register_unregister_roundtrip(self):
        class Plugin(NeighborBackend):
            name = "test-plugin"

            def neighbors(self, request):
                empty = np.empty(0, dtype=np.int64)
                return NeighborResult(
                    rows=empty, cols=empty, vals=np.empty(0),
                    candidate_pairs=0,
                )

        register_backend(Plugin())
        try:
            assert "test-plugin" in available_backends()
            graph = knn_graph(np.ones((4, 2)), k=1, backend="test-plugin")
            assert graph.nnz == 0
        finally:
            unregister_backend("test-plugin")
        assert "test-plugin" not in available_backends()

    def test_auto_resolution_by_size(self):
        assert resolve_backend(100, 10, "auto") == "exact"
        assert resolve_backend(EXACT_CUTOFF + 1, 10, "auto") == "rp-forest"

    def test_rp_forest_falls_back_on_small_problems(self):
        assert resolve_backend(100, 10, "rp-forest") == "exact"
        assert (
            resolve_backend(20000, DEFAULT_LEAF_SIZE, "rp-forest") == "exact"
        )
        assert resolve_backend(20000, 10, "rp-forest") == "rp-forest"

    def test_exact_passes_through(self):
        assert resolve_backend(10**6, 10, "exact") == "exact"
        assert resolve_backend(100, 10, "exact-f32") == "exact-f32"


class TestBackendParams:
    """Each backend declares the ``backend_params`` keys it reads, and
    ``knn_graph`` refuses any other key for the *requested* backend."""

    FEATURES = np.random.default_rng(3).standard_normal((40, 6))
    RP_FOREST_KEYS = (
        "n_trees", "leaf_size", "refine_iters", "refine_fanout", "sketch_dim",
    )

    @pytest.mark.parametrize("params", [{"n_tree": 4}, {"spill": 0.1}])
    def test_unknown_rp_forest_keys_refused(self, params):
        with pytest.raises(ValidationError) as excinfo:
            knn_graph(
                self.FEATURES, k=3, backend="rp-forest",
                backend_params=params,
            )
        message = str(excinfo.value)
        assert repr(next(iter(params))) in message
        for key in self.RP_FOREST_KEYS:
            assert key in message

    def test_keys_checked_against_requested_backend(self):
        with pytest.raises(ValidationError, match="no params"):
            knn_graph(
                self.FEATURES, k=3, backend="exact",
                backend_params={"n_trees": 4},
            )
        with pytest.raises(ValidationError, match="tie_margin"):
            knn_graph(
                self.FEATURES, k=3, backend="exact-f32",
                backend_params={"n_trees": 4},
            )

    def test_fallback_and_auto_accept_rp_forest_keys(self):
        # n=40 resolves both requests to exact, which ignores the keys.
        params = {"n_trees": 4, "leaf_size": 64}
        exact = knn_graph(self.FEATURES, k=3)
        for backend in ("rp-forest", "auto"):
            graph = knn_graph(
                self.FEATURES, k=3, backend=backend, backend_params=params
            )
            assert_bit_identical(exact, graph)


# --------------------------------------------------------------------- #
# exact backend: bit identity with the pre-subsystem implementation
# --------------------------------------------------------------------- #


class TestExactBitIdentity:
    def test_dense_multiblock(self):
        features = np.random.default_rng(0).standard_normal((300, 9))
        assert_bit_identical(
            reference_knn_graph(features, k=6, block_size=32),
            knn_graph(features, k=6, block_size=32),
        )

    def test_dense_workers(self):
        features = np.random.default_rng(1).standard_normal((300, 9))
        assert_bit_identical(
            reference_knn_graph(features, k=6, block_size=32),
            knn_graph(features, k=6, block_size=32, workers=4),
        )

    def test_sparse(self):
        dense = np.abs(np.random.default_rng(2).standard_normal((200, 40)))
        dense[dense < 1.0] = 0.0
        features = sp.csr_matrix(dense)
        assert_bit_identical(
            reference_knn_graph(features, k=5, block_size=17),
            knn_graph(features, k=5, block_size=17),
        )

    def test_sparse_workers(self):
        dense = np.abs(np.random.default_rng(3).standard_normal((200, 40)))
        dense[dense < 1.0] = 0.0
        features = sp.csr_matrix(dense)
        assert_bit_identical(
            reference_knn_graph(features, k=5, block_size=17),
            knn_graph(features, k=5, block_size=17, workers=3),
        )

    def test_full_graph_shortcut(self):
        # k >= n - 1 takes the all-pairs shortcut; the graph must match
        # the reference argpartition path exactly.
        features = np.random.default_rng(4).standard_normal((40, 6))
        assert_bit_identical(
            reference_knn_graph(features, k=100, block_size=16),
            knn_graph(features, k=100, block_size=16),
        )

    def test_full_graph_shortcut_sparse(self):
        dense = np.abs(np.random.default_rng(5).standard_normal((30, 12)))
        dense[dense < 0.6] = 0.0
        features = sp.csr_matrix(dense)
        assert_bit_identical(
            reference_knn_graph(features, k=29, block_size=7),
            knn_graph(features, k=29, block_size=7),
        )

    def test_unweighted(self):
        features = np.abs(np.random.default_rng(6).standard_normal((50, 5)))
        assert_bit_identical(
            reference_knn_graph(features, k=4, weighted=False),
            knn_graph(features, k=4, weighted=False),
        )

    def test_assume_normalized_matches(self):
        features = np.random.default_rng(7).standard_normal((60, 8))
        normalized = normalize_rows(features)
        assert_bit_identical(
            knn_graph(features, k=5),
            knn_graph(normalized, k=5, assume_normalized=True),
        )


# --------------------------------------------------------------------- #
# exact-f32: neighbor sets identical, weights full precision
# --------------------------------------------------------------------- #


class TestExactF32:
    def assert_pattern_parity(self, a, b):
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        np.testing.assert_allclose(a.data, b.data, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_dense_parity(self, seed):
        features = np.random.default_rng(seed).standard_normal((400, 24))
        self.assert_pattern_parity(
            knn_graph(features, k=8),
            knn_graph(features, k=8, backend="exact-f32"),
        )

    def test_sparse_parity(self):
        dense = np.abs(np.random.default_rng(9).standard_normal((300, 60)))
        dense[dense < 0.8] = 0.0
        features = sp.csr_matrix(dense)
        self.assert_pattern_parity(
            knn_graph(features, k=6),
            knn_graph(features, k=6, backend="exact-f32"),
        )

    def test_multiblock_parity(self):
        features = np.random.default_rng(10).standard_normal((250, 16))
        self.assert_pattern_parity(
            knn_graph(features, k=7, block_size=64),
            knn_graph(features, k=7, block_size=64, backend="exact-f32"),
        )

    def test_weights_are_float64_cosines(self):
        features = np.random.default_rng(11).standard_normal((100, 12))
        graph = knn_graph(features, k=5, backend="exact-f32")
        normalized = normalize_rows(features)
        rows, cols = graph.nonzero()
        exact_vals = np.einsum("ij,ij->i", normalized[rows], normalized[cols])
        np.testing.assert_allclose(
            np.asarray(graph[rows, cols]).ravel(), exact_vals, atol=1e-12
        )

    def test_tie_margin_param(self):
        features = np.random.default_rng(12).standard_normal((150, 10))
        wide = knn_graph(
            features, k=5, backend="exact-f32",
            backend_params={"tie_margin": 32},
        )
        self.assert_pattern_parity(knn_graph(features, k=5), wide)


# --------------------------------------------------------------------- #
# rp-forest
# --------------------------------------------------------------------- #


class TestRPForest:
    def force_rp_graph(self, features, k, seed=0, **params):
        """Build through the backend directly, bypassing the size-based
        fallback to exact (tests run at small n)."""
        normalized = normalize_rows(features)
        request = NeighborRequest(
            normalized=normalized, k=min(k, features.shape[0] - 1),
            seed=seed, params=params,
        )
        result = get_backend("rp-forest").neighbors(request)
        vals = np.clip(result.vals, 0.0, None)
        adjacency = sp.csr_matrix(
            (vals, (result.rows, result.cols)),
            shape=(features.shape[0],) * 2,
        )
        return result, adjacency

    def test_deterministic_under_fixed_seed(self):
        features = manifold_features(1500, 24, seed=3)
        first = knn_graph(features, k=8, backend="rp-forest", seed=5)
        second = knn_graph(features, k=8, backend="rp-forest", seed=5)
        assert (first != second).nnz == 0
        assert np.array_equal(first.data, second.data)

    def test_seed_changes_forest(self):
        features = manifold_features(1500, 24, seed=3)
        first = knn_graph(features, k=8, backend="rp-forest", seed=0)
        second = knn_graph(features, k=8, backend="rp-forest", seed=1)
        # Different forests make (at least slightly) different graphs on
        # approximate builds; equality would mean the seed is ignored.
        assert (first != second).nnz > 0

    def test_structural_invariants(self):
        features = manifold_features(1200, 16, seed=4)
        graph = knn_graph(features, k=6, backend="rp-forest")
        assert graph.shape == (1200, 1200)
        assert is_symmetric(graph)
        assert graph.diagonal().sum() == 0.0
        assert graph.nnz == 0 or graph.data.min() >= 0.0

    def test_running_example_has_no_attribute_views(self):
        # The Fig. 2 running example is graphs-only: a KNN build there is
        # a no-op, so the profile-level recall gate below uses the RM
        # dataset (the paper's running dataset, 1 attribute view).
        assert running_example_mvag().n_attribute_views == 0

    def test_recall_floor_rm_profile(self):
        from repro.datasets.profiles import load_profile_mvag
        from repro.utils.sparse import symmetrize

        features = load_profile_mvag("rm", seed=0).attribute_views[0]
        exact = knn_graph(features, k=5)
        # Force small leaves so the trees actually split at n=91 (the
        # registry would otherwise fall back to exact at this size).
        _, adjacency = self.force_rp_graph(
            features, k=5, n_trees=8, leaf_size=32, refine_iters=2
        )
        approx = symmetrize(adjacency, mode="max")
        approx.setdiag(0.0)
        approx.eliminate_zeros()
        assert directed_recall(exact, approx) >= RECALL_FLOOR

    def test_recall_floor_generated_4k(self):
        features = manifold_features(4000, 32, seed=2)
        exact = knn_graph(features, k=10)
        stats = NeighborStats(recall_sample=64)
        approx = knn_graph(
            features, k=10, backend="rp-forest", stats=stats
        )
        assert directed_recall(exact, approx) >= RECALL_FLOOR
        assert stats.recall_estimate is not None
        assert stats.recall_estimate >= RECALL_FLOOR
        # the whole point: far fewer candidates than exhaustive search
        assert stats.candidate_fraction < 0.5

    def test_sparse_features(self):
        rng = np.random.default_rng(6)
        dense = manifold_features(1200, 40, seed=6)
        dense[np.abs(dense) < 1.0] = 0.0
        features = sp.csr_matrix(dense)
        graph = knn_graph(features, k=6, backend="rp-forest")
        assert is_symmetric(graph)
        assert graph.nnz > 0

    def test_finish_blocking_is_invariant(self, monkeypatch):
        # The dedup/top-k finish runs in row blocks purely to bound its
        # sort temporaries; any block size must give the same tables.
        import repro.neighbors.rp_forest as rp

        rng = np.random.default_rng(6)
        n, width, k = 500, 24, 6
        col_table = rng.integers(-1, n, size=(n, width)).astype(np.int64)
        val_table = rng.standard_normal((n, width))
        val_table[col_table < 0] = -np.inf
        whole = rp._finish_scatter_tables(
            col_table.copy(), val_table.copy(), k
        )
        monkeypatch.setattr(rp, "_FINISH_BLOCK_ROWS", 37)
        blocked = rp._finish_scatter_tables(
            col_table.copy(), val_table.copy(), k
        )
        assert np.array_equal(whole[0], blocked[0])
        assert np.array_equal(whole[1], blocked[1])

    def test_refinement_improves_or_keeps_recall(self):
        features = manifold_features(3000, 32, latent_dim=12, seed=10)
        exact = knn_graph(features, k=10)
        base = knn_graph(
            features, k=10, backend="rp-forest",
            backend_params={"n_trees": 3, "leaf_size": 64,
                            "refine_iters": 0},
        )
        refined = knn_graph(
            features, k=10, backend="rp-forest",
            backend_params={"n_trees": 3, "leaf_size": 64,
                            "refine_iters": 2},
        )
        assert directed_recall(exact, refined) >= directed_recall(
            exact, base
        )

    def test_invalid_params_rejected(self):
        features = manifold_features(600, 8, seed=12)
        normalized = normalize_rows(features)
        with pytest.raises(ValidationError):
            RPForest(normalized, n_trees=0)
        with pytest.raises(ValidationError):
            RPForest(normalized, leaf_size=1)


# --------------------------------------------------------------------- #
# NeighborStats
# --------------------------------------------------------------------- #


class TestNeighborStats:
    def test_exact_build_counters(self):
        stats = NeighborStats()
        features = np.random.default_rng(0).standard_normal((50, 6))
        knn_graph(features, k=4, stats=stats)
        assert stats.builds == 1
        assert stats.by_backend == {"exact": 1}
        assert stats.candidate_pairs == 50 * 49
        assert stats.candidate_fraction == 1.0
        assert stats.recall_estimate is None  # exact: nothing sampled

    def test_summary_mentions_backend_and_recall(self):
        stats = NeighborStats(recall_sample=16)
        features = manifold_features(1200, 16, seed=1)
        knn_graph(features, k=5, backend="rp-forest", stats=stats)
        text = stats.summary()
        assert "rp-forest" in text
        assert "recall" in text

    def test_recall_sampling_disabled(self):
        stats = NeighborStats(recall_sample=0)
        features = manifold_features(1200, 16, seed=1)
        knn_graph(features, k=5, backend="rp-forest", stats=stats)
        assert stats.recall_estimate is None

    def test_accumulates_across_builds(self):
        stats = NeighborStats()
        features = np.random.default_rng(2).standard_normal((40, 5))
        knn_graph(features, k=3, stats=stats)
        knn_graph(features, k=3, backend="exact-f32", stats=stats)
        assert stats.builds == 2
        assert stats.by_backend == {"exact": 1, "exact-f32": 1}


# --------------------------------------------------------------------- #
# Pipeline threading
# --------------------------------------------------------------------- #


class TestPipelineThreading:
    @pytest.fixture()
    def small_mvag(self):
        return generate_mvag(
            n_nodes=90,
            n_clusters=2,
            graph_view_strengths=[0.8],
            attribute_view_dims=[12],
            seed=3,
        )

    def test_build_view_laplacians_backend_param(self, small_mvag):
        exact = build_view_laplacians(small_mvag, knn_k=4)
        f32 = build_view_laplacians(
            small_mvag, knn_k=4, knn_backend="exact-f32"
        )
        for a, b in zip(exact, f32):
            assert abs(a - b).max() < 1e-10

    def test_build_view_laplacians_stats(self, small_mvag):
        stats = NeighborStats()
        build_view_laplacians(small_mvag, knn_k=4, neighbor_stats=stats)
        assert stats.builds == 1  # one attribute view

    def test_sgla_config_carries_backend(self, small_mvag):
        config = SGLAConfig(knn_k=4, knn_backend="exact-f32")
        result = SGLA(config).fit(small_mvag)
        assert result.neighbor_stats is not None
        assert result.neighbor_stats.by_backend == {"exact-f32": 1}

    def test_config_defaults_to_exact(self):
        config = SGLAConfig()
        assert config.knn_backend == "exact"
        assert config.knn_params is None

    def test_cluster_mvag_threads_stats(self, small_mvag):
        stats = NeighborStats()
        cluster_mvag(
            small_mvag, method="sgla+",
            config=SGLAConfig(knn_k=4), neighbor_stats=stats,
        )
        assert stats.builds >= 1

    def test_end_to_end_quality_parity(self):
        # Clustering quality with the approximate graph must stay within
        # noise of the exact build (the attribute view carries signal).
        mvag = generate_mvag(
            n_nodes=700,
            n_clusters=3,
            graph_view_strengths=[0.75],
            attribute_view_dims=[24],
            default_attribute_signal=0.6,
            seed=4,
        )
        config_exact = SGLAConfig(knn_k=8)
        config_rp = SGLAConfig(
            knn_k=8, knn_backend="rp-forest",
            knn_params={"n_trees": 8, "leaf_size": 96, "refine_iters": 1},
        )
        exact_out = cluster_mvag(mvag, method="sgla", config=config_exact)
        rp_out = cluster_mvag(mvag, method="sgla", config=config_rp)
        exact_report = clustering_report(mvag.labels, exact_out.labels)
        rp_report = clustering_report(mvag.labels, rp_out.labels)
        assert rp_out.integration.neighbor_stats.by_backend == {
            "rp-forest": 1
        }
        assert abs(exact_report["ari"] - rp_report["ari"]) <= 0.1
        assert abs(exact_report["nmi"] - rp_report["nmi"]) <= 0.1
        # w* must stay close on the simplex, too
        assert (
            np.abs(
                exact_out.integration.weights - rp_out.integration.weights
            ).max()
            <= 0.1
        )

    def test_cli_knn_backend_flag(self, capsys):
        from repro.cli import main

        code = main(
            ["cluster", "rm", "--method", "sgla+",
             "--knn-backend", "exact-f32"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "neighbors:" in out
        assert "exact-f32" in out
