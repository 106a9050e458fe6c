"""Tests for the process-sharded execution subsystem (DESIGN.md §10).

Covers the ISSUE's satellite checklist: end-to-end determinism (sharded
== serial bit-identical ``w*`` / labels for every ``shard_workers``
value), stats-merge correctness through the pipeline, worker-count edge
cases (0 / 1 / more workers than views), and crash recovery (a poisoned
shard raises one clean :class:`ShardError`, no hang, and the pool is
usable again afterwards).
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.fastpath import StackedLaplacians
from repro.core.laplacian import build_view_laplacians
from repro.core.pipeline import cluster_mvag
from repro.core.sgla import SGLAConfig
from repro.datasets.generator import generate_mvag
from repro.dynamic import DynamicMVAG
from repro.neighbors import NeighborStats
from repro.shard import (
    ArraySpec,
    ShardContext,
    ShardError,
    attached,
    create_segment,
    inline_spec,
    shard_objective_batch,
    shard_view_laplacians,
)
from repro.solvers import SolverContext
from repro.utils.errors import ValidationError

WORKER_COUNTS = (1, 2, 3, 5)


@pytest.fixture(scope="module")
def shard_mvag():
    """Well-separated clusters: label output is stable under fp noise."""
    return generate_mvag(
        n_nodes=300,
        n_clusters=3,
        graph_view_strengths=[0.9, 0.2],
        attribute_view_dims=[24, 16],
        attribute_view_signals=[0.8, 0.7],
        seed=11,
    )


def _forced(workers: int, **overrides) -> ShardContext:
    """A context that dispatches even on tiny test fixtures."""
    params = dict(min_items=0, min_bytes=0)
    params.update(overrides)
    return ShardContext(workers=workers, **params)


# --------------------------------------------------------------------- #
# Worker-side helpers (module-level: picklable by reference)
# --------------------------------------------------------------------- #


def _square(item, common):
    return item * item + (common or {}).get("offset", 0)


def _poison(item, common):
    if item == "bad":
        raise ValueError("poisoned payload")
    return item


def _hang(item, common):  # pragma: no cover - killed mid-sleep
    import time

    time.sleep(300)
    return item


def _read_spec(item, common):
    with attached(item) as array:
        return float(np.sum(array))


# --------------------------------------------------------------------- #
# Shared-memory transfer
# --------------------------------------------------------------------- #


class TestSharedMemory:
    def test_roundtrip(self):
        array = np.arange(24, dtype=np.float64).reshape(4, 6)
        segment, spec = create_segment(array)
        try:
            with attached(spec) as view:
                assert np.array_equal(view, array)
        finally:
            segment.close()
            segment.unlink()

    def test_zero_size_array(self):
        array = np.zeros((0, 5))
        segment, spec = create_segment(array)
        try:
            with attached(spec) as view:
                assert view.shape == (0, 5)
        finally:
            segment.close()
            segment.unlink()

    def test_inline_spec_identity(self):
        array = np.ones(7)
        spec = inline_spec(array)
        with attached(spec) as view:
            assert np.array_equal(view, array)

    def test_empty_spec_rejected(self):
        with pytest.raises(ValidationError):
            with attached(ArraySpec(shape=(2,), dtype="float64")):
                pass  # pragma: no cover

    def test_cross_process_read(self):
        array = np.arange(1000, dtype=np.float64)
        with _forced(2) as shard:
            specs = [shard.share(array), shard.share(2 * array)]
            sums = shard.run(_read_spec, specs, dispatch=True)
        assert sums == [float(array.sum()), float(2 * array.sum())]


# --------------------------------------------------------------------- #
# Context policy
# --------------------------------------------------------------------- #


class TestContextPolicy:
    def test_serial_fallback_thresholds(self):
        shard = ShardContext(workers=4, min_items=3, min_bytes=100)
        assert not shard.should_dispatch(2, payload_bytes=1000)  # too few
        assert not shard.should_dispatch(4, payload_bytes=10)  # too small
        assert shard.should_dispatch(4, payload_bytes=1000)
        shard.close()

    def test_workers_leq_one_never_dispatches(self):
        for workers in (0, 1):
            shard = ShardContext(workers=workers, min_items=0, min_bytes=0)
            assert not shard.active
            assert not shard.should_dispatch(100, payload_bytes=1 << 30)
            assert shard.run(_square, [1, 2, 3]) == [1, 4, 9]
            assert shard.stats.serial_dispatches == 1
            assert shard.stats.dispatches == 0
            shard.close()

    def test_process_dispatch_ordering_and_common(self):
        with _forced(3) as shard:
            out = shard.run(
                _square, list(range(11)), common={"offset": 5},
                dispatch=True,
            )
        assert out == [i * i + 5 for i in range(11)]

    def test_closed_context_rejects_executor(self):
        shard = _forced(2)
        shard.close()
        with pytest.raises(ValidationError):
            shard.executor()
        shard.close()  # idempotent

    def test_config_make_shard(self):
        assert SGLAConfig().make_shard() is None
        assert SGLAConfig(shard_workers=0).make_shard() is None
        shard = SGLAConfig(shard_workers=2, shard_retries=4).make_shard()
        assert shard.workers == 2 and shard.active
        assert shard.retry_policy.max_attempts == 5
        shard.close()
        with pytest.raises(ValidationError):
            SGLAConfig(shard_workers=-1)
        with pytest.raises(TypeError):
            SGLAConfig(shard_backend="process")


# --------------------------------------------------------------------- #
# Crash recovery
# --------------------------------------------------------------------- #


class TestCrashRecovery:
    def test_poisoned_shard_raises_clean_error(self):
        with _forced(2) as shard:
            with pytest.raises(ShardError, match="poisoned payload"):
                shard.run(_poison, ["ok", "bad", "ok"], dispatch=True)
            assert shard.stats.failures == 1

    def test_pool_usable_after_poison(self):
        with _forced(2) as shard:
            with pytest.raises(ShardError):
                shard.run(_poison, ["bad", "ok"], dispatch=True)
            # Fresh pool, clean dispatch — no lingering poison, no hang.
            assert shard.run(_square, [2, 3, 4], dispatch=True) == [4, 9, 16]

    def test_serial_path_propagates_original_error(self):
        """In-process execution keeps the original exception type."""
        shard = ShardContext(workers=1)
        with pytest.raises(ValueError, match="poisoned payload"):
            shard.run(_poison, ["bad"])
        shard.close()

    def test_unpicklable_task_surfaces_as_shard_error(self):
        def local_closure(item, common):  # pragma: no cover - never runs
            return item

        with _forced(2) as shard:
            with pytest.raises(ShardError):
                shard.run(local_closure, [1, 2], dispatch=True)

    def test_timeout_kills_hung_worker_no_shutdown_hang(self):
        """A hung task times out cleanly AND its worker is killed, so
        neither this dispatch nor interpreter shutdown can hang."""
        with _forced(2, timeout=1.0) as shard:
            with pytest.raises(ShardError, match="timed out"):
                shard.run(_hang, [1, 2], dispatch=True)
            assert shard.stats.failures == 1
            # Fresh pool after the kill; dispatch works again.
            assert shard.run(_square, [5, 6], dispatch=True) == [25, 36]


# --------------------------------------------------------------------- #
# Sharded view builds
# --------------------------------------------------------------------- #


class TestShardedViewBuilds:
    def test_bit_identical_for_every_worker_count(self, shard_mvag):
        reference = build_view_laplacians(shard_mvag, knn_k=8)
        for workers in WORKER_COUNTS:
            with _forced(workers) as shard:
                laplacians = shard_view_laplacians(
                    shard_mvag, shard, knn_k=8
                )
            assert len(laplacians) == len(reference)
            for ours, theirs in zip(laplacians, reference):
                assert (ours != theirs).nnz == 0, f"workers={workers}"

    def test_neighbor_stats_match_in_process(self, shard_mvag):
        reference = NeighborStats()
        build_view_laplacians(shard_mvag, knn_k=8, neighbor_stats=reference)
        sharded = NeighborStats()
        with _forced(3) as shard:
            build_view_laplacians(
                shard_mvag, knn_k=8, neighbor_stats=sharded, shard=shard
            )
        assert sharded.builds == reference.builds
        assert sharded.nodes == reference.nodes
        assert sharded.candidate_pairs == reference.candidate_pairs
        assert sharded.exhaustive_pairs == reference.exhaustive_pairs
        assert sharded.by_backend == reference.by_backend

    def test_sparse_attribute_views(self):
        rng = np.random.default_rng(5)
        dense = rng.random((120, 30)) * (rng.random((120, 30)) < 0.2)
        mvag = generate_mvag(
            n_nodes=120, n_clusters=2, seed=7,
            graph_view_strengths=[0.8], attribute_view_dims=[12],
        )
        from repro.core.mvag import MVAG

        sparse_mvag = MVAG(
            graph_views=mvag.graph_views,
            attribute_views=[mvag.attribute_views[0], sp.csr_matrix(dense)],
            labels=mvag.labels,
        )
        reference = build_view_laplacians(sparse_mvag, knn_k=6)
        with _forced(2) as shard:
            laplacians = shard_view_laplacians(sparse_mvag, shard, knn_k=6)
        for ours, theirs in zip(laplacians, reference):
            assert (ours != theirs).nnz == 0


# --------------------------------------------------------------------- #
# Sharded weight-batch eigensolves
# --------------------------------------------------------------------- #


class TestShardedObjectiveBatch:
    @pytest.fixture(scope="class")
    def stack(self, shard_mvag):
        return StackedLaplacians(build_view_laplacians(shard_mvag, knn_k=8))

    def test_bit_identical_across_worker_counts(self, stack):
        rows = np.array([
            [0.25, 0.25, 0.25, 0.25],
            [0.7, 0.1, 0.1, 0.1],
            [0.1, 0.7, 0.1, 0.1],
            [0.1, 0.1, 0.1, 0.7],
            [0.4, 0.3, 0.2, 0.1],
        ])
        outputs = {}
        for workers in WORKER_COUNTS:
            solver = SolverContext(method="lanczos", seed=0)
            with _forced(workers) as shard:
                values = shard_objective_batch(
                    stack, rows, 4, "lanczos", solver, shard
                )
            outputs[workers] = (values, solver.stats)
        reference_values, reference_stats = outputs[1]
        for workers in WORKER_COUNTS[1:]:
            values, stats = outputs[workers]
            for ours, theirs in zip(values, reference_values):
                assert np.array_equal(ours, theirs), f"workers={workers}"
            assert stats.solves == reference_stats.solves
            assert stats.matvecs == reference_stats.matvecs

    def test_dense_method_matches_in_process(self, stack):
        # The in-process dense path computes values only (eigvals_only
        # eigh); the sharded seed solve must not request Ritz vectors
        # for it — eigh-with-vectors rounds its eigenvalues differently
        # at the last ulp, which silently broke shard-vs-serial bit
        # identity for every profile small enough to resolve to "dense".
        rows = np.array([
            [0.25, 0.25, 0.25, 0.25],
            [0.6, 0.2, 0.1, 0.1],
            [0.1, 0.2, 0.6, 0.1],
        ])
        reference_solver = SolverContext(method="dense", seed=0)
        reference = [
            reference_solver.eigenvalues(
                stack.with_data(row), 4, method="dense", warm=False
            )
            for row in stack.combine_many(rows)
        ]
        solver = SolverContext(method="dense", seed=0)
        with _forced(2) as shard:
            values = shard_objective_batch(
                stack, rows, 4, "dense", solver, shard
            )
        for ours, theirs in zip(values, reference):
            assert np.array_equal(ours, theirs)

    def test_warm_start_disabled_solves_cold(self, stack):
        """warm_start=False must mean cold solves under sharding too —
        bitwise equal to the in-process cold chain (no silent re-seeding
        that would corrupt warm-start ablations)."""
        rows = np.array([
            [0.25, 0.25, 0.25, 0.25],
            [0.55, 0.15, 0.15, 0.15],
            [0.15, 0.55, 0.15, 0.15],
        ])
        reference = SolverContext(
            method="lanczos", seed=0, warm_start=False
        )
        cold = [
            reference.eigenvalues(stack.with_data(row), 4)
            for row in stack.combine_many(rows)
        ]
        for workers in (1, 3):
            solver = SolverContext(
                method="lanczos", seed=0, warm_start=False
            )
            with _forced(workers) as shard:
                values = shard_objective_batch(
                    stack, rows, 4, "lanczos", solver, shard
                )
            for ours, theirs in zip(values, cold):
                assert np.array_equal(ours, theirs), f"workers={workers}"
            assert solver.stats.warm_solves == 0
            assert solver.stats.cold_solves == len(rows)

    def test_solver_stats_account_shard_solves(self, stack):
        rows = np.array([[0.25, 0.25, 0.25, 0.25], [0.4, 0.2, 0.2, 0.2]])
        solver = SolverContext(method="lanczos", seed=0)
        with _forced(2) as shard:
            shard_objective_batch(stack, rows, 4, "lanczos", solver, shard)
        assert solver.stats.solves == 2
        assert solver.stats.batched_solves == 2
        assert set(solver.stats.by_backend) == {"shard[lanczos]"}
        assert solver.stats.matvecs > 0


# --------------------------------------------------------------------- #
# End-to-end pipeline determinism + edge cases
# --------------------------------------------------------------------- #


class TestPipelineDeterminism:
    @pytest.fixture(scope="class")
    def sharded_outputs(self, shard_mvag):
        outputs = {}
        for workers in WORKER_COUNTS:
            with _forced(workers) as shard:
                outputs[workers] = cluster_mvag(
                    shard_mvag, method="sgla+", config=SGLAConfig(),
                    shard=shard,
                )
        return outputs

    def test_w_star_and_labels_bit_identical(self, sharded_outputs):
        reference = sharded_outputs[1]
        for workers, output in sharded_outputs.items():
            assert np.array_equal(
                output.integration.weights, reference.integration.weights
            ), f"w* differs at shard_workers={workers}"
            assert np.array_equal(output.labels, reference.labels), (
                f"labels differ at shard_workers={workers}"
            )

    def test_small_profile_dense_path_bit_identical(self):
        # rm_small (n = 91) resolves the eigen backend to "dense"; seed 1
        # historically drifted one ulp under forced dispatch because the
        # sharded seed solve requested vectors the in-process dense path
        # never computes.
        from repro.datasets.profiles import load_profile_mvag

        mvag = load_profile_mvag("rm_small", seed=1)
        direct = cluster_mvag(mvag, config=SGLAConfig(), seed=1)
        with _forced(2) as shard:
            sharded = cluster_mvag(
                mvag, config=SGLAConfig(), seed=1, shard=shard
            )
        assert np.array_equal(direct.labels, sharded.labels)
        assert (
            direct.integration.objective_value
            == sharded.integration.objective_value
        )

    def test_zero_workers_is_the_plain_pipeline(self, shard_mvag):
        """shard_workers=0 disables sharding entirely."""
        plain = cluster_mvag(shard_mvag, method="sgla+", config=SGLAConfig())
        disabled = cluster_mvag(
            shard_mvag, method="sgla+", config=SGLAConfig(shard_workers=0)
        )
        assert np.array_equal(
            plain.integration.weights, disabled.integration.weights
        )
        assert np.array_equal(plain.labels, disabled.labels)

    def test_more_workers_than_views(self, shard_mvag, sharded_outputs):
        """Workers beyond the item count are planned away, not wasted."""
        with _forced(16) as shard:
            output = cluster_mvag(
                shard_mvag, method="sgla+", config=SGLAConfig(), shard=shard
            )
            assert shard.stats.dispatches > 0
        assert np.array_equal(
            output.integration.weights,
            sharded_outputs[1].integration.weights,
        )
        assert np.array_equal(output.labels, sharded_outputs[1].labels)

    def test_plain_vs_sharded_agreement(self, shard_mvag, sharded_outputs):
        """Different execution scheme, same optimum (to solver noise)."""
        plain = cluster_mvag(shard_mvag, method="sgla+", config=SGLAConfig())
        delta = np.max(np.abs(
            plain.integration.weights
            - sharded_outputs[1].integration.weights
        ))
        assert delta < 1e-6
        assert np.array_equal(plain.labels, sharded_outputs[1].labels)

    def test_sgla_plain_solver_sharded_builds(self, shard_mvag):
        """SGLA (sequential optimizer) shards its view builds only."""
        with _forced(2) as shard:
            output = cluster_mvag(
                shard_mvag, method="sgla", config=SGLAConfig(), shard=shard
            )
            assert shard.stats.dispatches >= 1  # the view-build dispatch
        plain = cluster_mvag(shard_mvag, method="sgla", config=SGLAConfig())
        assert np.array_equal(
            output.integration.weights, plain.integration.weights
        )
        assert np.array_equal(output.labels, plain.labels)


# --------------------------------------------------------------------- #
# Streaming (DynamicMVAG)
# --------------------------------------------------------------------- #


class TestDynamicSharding:
    def test_sharded_refresh_bit_identical(self, shard_mvag):
        reference = DynamicMVAG(shard_mvag, knn_k=8)
        with _forced(2) as shard:
            dynamic = DynamicMVAG(shard_mvag, knn_k=8, shard=shard)
            for ours, theirs in zip(
                dynamic.view_laplacians(), reference.view_laplacians()
            ):
                assert (ours != theirs).nnz == 0
            assert shard.stats.dispatches == 1

            rng = np.random.default_rng(3)
            for view in (0, 1):
                row = rng.standard_normal(
                    shard_mvag.attribute_views[view].shape[1]
                )
                reference.update_attributes(view, 7, row)
                dynamic.update_attributes(view, 7, row)
            for ours, theirs in zip(
                dynamic.view_laplacians(), reference.view_laplacians()
            ):
                assert (ours != theirs).nnz == 0
            assert shard.stats.dispatches == 2
            assert dynamic.neighbor_stats.builds == (
                reference.neighbor_stats.builds
            )

    def test_owned_shard_closed_by_close(self, shard_mvag):
        dynamic = DynamicMVAG(
            shard_mvag, knn_k=8, shard_workers=2
        )
        assert dynamic._shard is not None
        dynamic.close()
        assert dynamic._shard is None
        dynamic.close()  # idempotent

    def test_single_dirty_view_stays_in_process(self, shard_mvag):
        with _forced(2) as shard:
            dynamic = DynamicMVAG(shard_mvag, knn_k=8, shard=shard)
            dynamic.view_laplacians()
            dispatches = shard.stats.dispatches
            row = np.random.default_rng(9).standard_normal(
                shard_mvag.attribute_views[0].shape[1]
            )
            dynamic.update_attributes(0, 3, row)
            dynamic.view_laplacians()
            # one dirty view -> nothing to fan out
            assert shard.stats.dispatches == dispatches
