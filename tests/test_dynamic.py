"""Tests for the dynamic-MVAG extension (stream, lazy)."""

import numpy as np
import pytest

from repro.core.laplacian import build_view_laplacians
from repro.core.objective import SpectralObjective
from repro.datasets.generator import generate_mvag
from repro.dynamic.lazy import LazySGLA
from repro.dynamic.stream import DynamicMVAG, EdgeUpdate
from repro.utils.errors import NotFittedError, ValidationError


@pytest.fixture()
def small_dynamic():
    mvag = generate_mvag(
        n_nodes=80,
        n_clusters=2,
        graph_view_strengths=[0.85, 0.3],
        attribute_view_dims=[12],
        seed=5,
    )
    return DynamicMVAG(mvag, knn_k=5), mvag


class TestEdgeUpdate:
    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            EdgeUpdate(view=0, u=1, v=1)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            EdgeUpdate(view=0, u=0, v=1, weight=-1.0)


class TestDynamicMVAG:
    def test_snapshot_round_trip(self, small_dynamic):
        dynamic, mvag = small_dynamic
        snapshot = dynamic.snapshot()
        assert snapshot.n_nodes == mvag.n_nodes
        assert snapshot.n_views == mvag.n_views
        for a, b in zip(snapshot.graph_views, mvag.graph_views):
            assert (a != b).nnz == 0

    def test_original_not_mutated(self, small_dynamic):
        dynamic, mvag = small_dynamic
        before = mvag.graph_views[0].copy()
        dynamic.apply_edge_update(EdgeUpdate(view=0, u=0, v=1, weight=5.0))
        assert (mvag.graph_views[0] != before).nnz == 0

    def test_edge_insert_visible_in_snapshot(self, small_dynamic):
        dynamic, _ = small_dynamic
        dynamic.apply_edge_update(EdgeUpdate(view=0, u=0, v=1, weight=3.0))
        snapshot = dynamic.snapshot()
        assert snapshot.graph_views[0][0, 1] == 3.0
        assert snapshot.graph_views[0][1, 0] == 3.0

    def test_edge_delete(self, small_dynamic):
        dynamic, _ = small_dynamic
        dynamic.apply_edge_update(EdgeUpdate(view=0, u=0, v=1, weight=2.0))
        dynamic.apply_edge_update(EdgeUpdate(view=0, u=0, v=1, weight=0.0))
        snapshot = dynamic.snapshot()
        assert snapshot.graph_views[0][0, 1] == 0.0

    def test_laplacian_matches_static_rebuild(self, small_dynamic):
        dynamic, _ = small_dynamic
        updates = [
            EdgeUpdate(view=0, u=2, v=7),
            EdgeUpdate(view=1, u=4, v=9, weight=2.0),
            EdgeUpdate(view=0, u=11, v=3),
        ]
        dynamic.apply_edge_updates(updates)
        snapshot = dynamic.snapshot()
        static = build_view_laplacians(snapshot, knn_k=5)
        streamed = dynamic.view_laplacians()
        for a, b in zip(streamed, static):
            assert abs(a - b).max() < 1e-10

    def test_attribute_update_invalidates_knn(self, small_dynamic):
        dynamic, _ = small_dynamic
        graph_views = dynamic.n_graph_views
        before = dynamic.view_laplacian(graph_views)  # attr view Laplacian
        dynamic.update_attributes(0, 3, np.full(12, 9.0))
        after = dynamic.view_laplacian(graph_views)
        assert abs(before - after).max() > 0

    def test_attribute_update_shape_checked(self, small_dynamic):
        dynamic, _ = small_dynamic
        with pytest.raises(ValidationError):
            dynamic.update_attributes(0, 3, np.ones(5))

    def test_bad_view_indices(self, small_dynamic):
        dynamic, _ = small_dynamic
        with pytest.raises(ValidationError):
            dynamic.apply_edge_update(EdgeUpdate(view=9, u=0, v=1))
        with pytest.raises(ValidationError):
            dynamic.update_attributes(5, 0, np.ones(12))

    def test_update_counter(self, small_dynamic):
        dynamic, _ = small_dynamic
        assert dynamic.updates_since_snapshot == 0
        dynamic.apply_edge_update(EdgeUpdate(view=0, u=0, v=1))
        assert dynamic.updates_since_snapshot == 1
        dynamic.snapshot()
        assert dynamic.updates_since_snapshot == 0


class TestIncrementalKnnState:
    """Cached row normalization + forest reuse across attribute updates."""

    def test_dense_row_cache_matches_static_rebuild(self, small_dynamic):
        dynamic, _ = small_dynamic
        dynamic.view_laplacians()  # prime the normalized cache
        rng = np.random.default_rng(0)
        for node in (3, 17, 40):
            dynamic.update_attributes(0, node, rng.standard_normal(12))
        static = build_view_laplacians(dynamic.snapshot(), knn_k=5)
        for a, b in zip(dynamic.view_laplacians(), static):
            assert abs(a - b).max() < 1e-10

    def test_sparse_row_splice_matches_static_rebuild(self):
        import scipy.sparse as sp

        from repro.core.mvag import MVAG

        rng = np.random.default_rng(1)
        dense = np.abs(rng.standard_normal((70, 20)))
        dense[rng.random((70, 20)) < 0.7] = 0.0
        mvag = MVAG(
            graph_views=[sp.eye(70).tocsr() * 0],
            attribute_views=[sp.csr_matrix(dense)],
        )
        dynamic = DynamicMVAG(mvag, knn_k=4)
        dynamic.view_laplacian(1)  # prime the normalized cache
        for node in (0, 12, 69):
            row = np.abs(rng.standard_normal(20))
            row[rng.random(20) < 0.5] = 0.0
            dynamic.update_attributes(0, node, row)
        # The spliced rows are normalized as a cold build normalizes
        # them, so the streamed view is the cold build, bit for bit.
        static = build_view_laplacians(dynamic.snapshot(), knn_k=4)
        streamed = dynamic.view_laplacians()
        assert np.array_equal(streamed[1].indptr, static[1].indptr)
        assert np.array_equal(streamed[1].indices, static[1].indices)
        assert np.array_equal(streamed[1].data, static[1].data)

    def test_update_before_first_build_matches(self, small_dynamic):
        # No cache primed yet: the first build must normalize fresh.
        dynamic, _ = small_dynamic
        dynamic.update_attributes(0, 2, np.full(12, 3.0))
        static = build_view_laplacians(dynamic.snapshot(), knn_k=5)
        streamed = dynamic.view_laplacians()
        for a, b in zip(streamed, static):
            assert abs(a - b).max() < 1e-10

    def test_streamed_rp_forest_matches_cold_rebuild(self):
        # A dirty view is rebuilt from the normalized cache, whose updated
        # rows are normalized as a cold build normalizes every row, so
        # after any update history the streamed view equals both a build
        # from the cache and a cold build of the snapshot, bit for bit,
        # under rp-forest and the exact backend alike.
        from repro.core.knn import knn_graph
        from repro.core.laplacian import normalized_laplacian

        mvag = generate_mvag(
            n_nodes=700,
            n_clusters=3,
            graph_view_strengths=[0.8],
            attribute_view_dims=[32],
            seed=8,
        )
        attr_view = mvag.n_graph_views
        for backend, params in (
            ("rp-forest", {"n_trees": 4, "leaf_size": 64}),
            ("exact", None),
        ):
            dynamic = DynamicMVAG(
                mvag, knn_k=5, knn_backend=backend, knn_params=params
            )
            dynamic.view_laplacian(attr_view)
            rng = np.random.default_rng(2)
            for node in (9, 120, 333, 501, 699):
                dynamic.update_attributes(0, node, rng.standard_normal(32))
            streamed = dynamic.view_laplacian(attr_view)
            from_cache = normalized_laplacian(
                knn_graph(
                    dynamic._normalized[0],
                    k=5,
                    backend=backend,
                    backend_params=params,
                    assume_normalized=True,
                )
            )
            cold = build_view_laplacians(
                dynamic.snapshot(),
                knn_k=5,
                knn_backend=backend,
                knn_params=params,
            )[attr_view]
            for reference in (from_cache, cold):
                assert np.array_equal(streamed.indptr, reference.indptr)
                assert np.array_equal(streamed.indices, reference.indices)
                assert np.array_equal(streamed.data, reference.data)

    def test_sharded_rp_forest_refresh(self):
        # Dirty rp-forest views go through the shard context like any
        # other backend's, bit-identical to the in-process stream.
        mvag = generate_mvag(
            n_nodes=700,
            n_clusters=3,
            graph_view_strengths=[0.8],
            attribute_view_dims=[16, 12],
            seed=9,
        )
        params = {"n_trees": 4, "leaf_size": 64}
        streams = [
            DynamicMVAG(
                mvag, knn_k=5, knn_backend="rp-forest", knn_params=params,
                shard_workers=workers,
            )
            for workers in (None, 2)
        ]
        plain, sharded = streams
        try:
            for dynamic in streams:
                dynamic.view_laplacians()
            tasks_before = sharded._shard.stats.tasks
            rng = np.random.default_rng(4)
            for view, dim in ((0, 16), (1, 12)):
                values = rng.standard_normal(dim)
                for dynamic in streams:
                    dynamic.update_attributes(view, 17, values)
            expected = plain.view_laplacians()
            got = sharded.view_laplacians()
            assert sharded._shard.stats.tasks == tasks_before + 2
            for a, b in zip(expected, got):
                assert np.array_equal(a.indptr, b.indptr)
                assert np.array_equal(a.indices, b.indices)
                assert np.array_equal(a.data, b.data)
        finally:
            for dynamic in streams:
                dynamic.close()


class TestLazySGLA:
    def test_requires_fit(self, small_dynamic):
        dynamic, _ = small_dynamic
        lazy = LazySGLA(k=2)
        with pytest.raises(NotFittedError):
            lazy.refresh(dynamic)
        with pytest.raises(NotFittedError):
            lazy.laplacian(dynamic)

    def test_small_updates_do_not_refit(self, small_dynamic):
        dynamic, _ = small_dynamic
        lazy = LazySGLA(k=2, drift_threshold=0.25).fit(dynamic)
        dynamic.apply_edge_update(EdgeUpdate(view=1, u=0, v=1))
        report = lazy.refresh(dynamic)
        assert not report.refitted
        assert report.n_objective_evaluations <= 1

    def test_large_rewiring_triggers_refit(self, small_dynamic):
        dynamic, mvag = small_dynamic
        lazy = LazySGLA(k=2, drift_threshold=0.05).fit(dynamic)
        rng = np.random.default_rng(0)
        labels = mvag.labels
        # Flood the strong view with cross-cluster edges: big drift.
        cluster_a = np.flatnonzero(labels == 0)
        cluster_b = np.flatnonzero(labels == 1)
        updates = [
            EdgeUpdate(
                view=0,
                u=int(rng.choice(cluster_a)),
                v=int(rng.choice(cluster_b)),
                weight=3.0,
            )
            for _ in range(200)
        ]
        dynamic.apply_edge_updates(updates)
        report = lazy.refresh(dynamic)
        assert report.drift > 0.05
        assert report.refitted
        assert lazy.total_refits == 1

    def test_zero_threshold_always_refits(self, small_dynamic):
        dynamic, _ = small_dynamic
        lazy = LazySGLA(k=2, drift_threshold=0.0).fit(dynamic)
        dynamic.apply_edge_update(EdgeUpdate(view=0, u=0, v=2))
        report = lazy.refresh(dynamic)
        assert report.refitted

    def test_laplacian_shape(self, small_dynamic):
        dynamic, _ = small_dynamic
        lazy = LazySGLA(k=2).fit(dynamic)
        laplacian = lazy.laplacian(dynamic)
        assert laplacian.shape == (dynamic.n_nodes, dynamic.n_nodes)

    def test_refresh_solves_on_shared_context(self):
        """Past the dense cutoff, a drift check that does not refit is one
        warm-started solve in the run's own solver stats, and its value is
        h at the current weights on the updated Laplacians."""
        n = 700
        mvag = generate_mvag(
            n_nodes=n,
            n_clusters=3,
            graph_view_strengths=[0.85, 0.45],
            attribute_view_dims=[16],
            seed=3,
        )
        dynamic = DynamicMVAG(mvag, knn_k=5)
        lazy = LazySGLA(k=3, drift_threshold=0.10).fit(dynamic)
        stats = lazy.solver.stats
        rng = np.random.default_rng(0)
        checks = 0
        for _ in range(4):
            updates = []
            while len(updates) < 20:
                u, v = int(rng.integers(n)), int(rng.integers(n))
                if u != v:
                    updates.append(EdgeUpdate(view=1, u=u, v=v))
            dynamic.apply_edge_updates(updates)
            solves, warm = stats.solves, stats.warm_solves
            lanczos = stats.by_backend.get("lanczos", 0)
            report = lazy.refresh(dynamic)
            if report.refitted:
                continue
            checks += 1
            assert report.n_objective_evaluations == 1
            assert stats.solves == solves + 1
            assert stats.warm_solves == warm + 1
            assert stats.by_backend["lanczos"] == lanczos + 1
            dense = SpectralObjective(
                dynamic.view_laplacians(), k=3, gamma=lazy.config.gamma,
                eigen_method="dense",
            )
            assert report.objective_value == pytest.approx(
                dense(report.weights), abs=1e-10
            )
        assert checks == 4

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValidationError):
            LazySGLA(k=2, drift_threshold=-0.1)

    def test_weights_stay_on_simplex_through_stream(self, small_dynamic):
        dynamic, _ = small_dynamic
        lazy = LazySGLA(k=2, drift_threshold=0.02).fit(dynamic)
        rng = np.random.default_rng(1)
        for _ in range(5):
            updates = [
                EdgeUpdate(
                    view=int(rng.integers(2)),
                    u=int(rng.integers(80)),
                    v=int((rng.integers(79) + 1 + rng.integers(80)) % 80),
                )
                for _ in range(10)
            ]
            updates = [u for u in updates if u.u != u.v]
            dynamic.apply_edge_updates(updates)
            report = lazy.refresh(dynamic)
            assert np.all(report.weights >= -1e-12)
            assert report.weights.sum() == pytest.approx(1.0)
