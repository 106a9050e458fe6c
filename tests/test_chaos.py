"""Chaos suite: full pipeline runs under deterministic fault injection.

The gate (DESIGN.md §11): with a seeded :class:`FaultPlan` injecting
crash / slow / corrupt / drop faults at a combined ~25% task rate, full
SGLA and SGLA+ runs through the process-pool shard context must
*complete* — retries and re-dispatch do the absorbing — and their
``w*`` / labels must be **bit-identical** to the fault-free run.  That is the strongest statement the resilience
machine can make: failure handling is invisible in the output.

Identity holds by construction — faults expire after the first attempt
per task (``max_faulted_attempts=1``), tasks are deterministic, and
results are reassembled by global item position — so any drift is a real
resilience bug, not test flakiness.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.pipeline import cluster_mvag
from repro.core.sgla import SGLAConfig
from repro.datasets.generator import generate_mvag
from repro.shard import FaultPlan, ShardContext

#: combined 25% fault rate, every injectable failure kind represented.
#: The seed is chosen so the *first* dispatch (SGLA's 4 view builds)
#: already draws a crash — the retries>=1 gate is deterministic.
CHAOS_PLAN = FaultPlan(
    seed=2,
    crash_rate=0.10,
    slow_rate=0.05,
    corrupt_rate=0.05,
    drop_rate=0.05,
    slow_seconds=0.01,
)


@pytest.fixture(scope="module")
def chaos_mvag():
    return generate_mvag(
        n_nodes=240,
        n_clusters=3,
        graph_view_strengths=[0.9, 0.2],
        attribute_view_dims=[20, 12],
        attribute_view_signals=[0.8, 0.7],
        seed=13,
    )


@pytest.fixture(scope="module")
def reference(chaos_mvag):
    """Fault-free outputs per method (the bit-identity baseline)."""
    outputs = {}
    for method in ("sgla", "sgla+"):
        with ShardContext(workers=2, min_items=0, min_bytes=0) as shard:
            outputs[method] = cluster_mvag(
                chaos_mvag, method=method, config=SGLAConfig(),
                shard=shard,
            )
    return outputs


def _chaos_context() -> ShardContext:
    return ShardContext(
        workers=2,
        min_items=0,
        min_bytes=0,
        timeout=60.0,
        fault_plan=CHAOS_PLAN,
    )


class TestProcessChaos:
    @pytest.mark.parametrize("method", ["sgla", "sgla+"])
    def test_bit_identical_under_faults(
        self, chaos_mvag, reference, method
    ):
        with _chaos_context() as shard:
            chaos = cluster_mvag(
                chaos_mvag, method=method, config=SGLAConfig(),
                shard=shard,
            )
            stats = shard.stats
        assert np.array_equal(
            chaos.integration.weights,
            reference[method].integration.weights,
        ), f"w* drifted under process chaos ({method})"
        assert np.array_equal(chaos.labels, reference[method].labels)
        assert stats.failures == 0  # every fault was absorbed
        assert stats.retries >= 1  # ... and faults did actually fire
        assert stats.redispatches >= 1


class TestHangRecovery:
    def test_hung_task_recovers_on_fresh_deadline(self):
        # A hang must be bounded by the per-attempt deadline, and the
        # retry must get a *fresh* budget (not the stale remainder).
        plan = FaultPlan(seed=0, hang_rate=1.0, hang_seconds=30.0)
        with ShardContext(
            workers=2, min_items=0, min_bytes=0, timeout=1.0,
            fault_plan=plan,
        ) as ctx:
            started = time.monotonic()
            result = ctx.run(_identity, [1, 2, 3, 4])
            elapsed = time.monotonic() - started
        assert result == [1, 2, 3, 4]
        assert elapsed < 20.0  # deadline fired, nobody waited out the hang
        assert ctx.stats.retries >= 1
        assert ctx.stats.failures == 0


def _identity(item, common):
    return item
