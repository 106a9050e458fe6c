"""Tests for the shard resilience layer: retry and re-dispatch
(DESIGN.md §11).

Dispatch behavior is exercised through the real process pool, with
injected faults and with pool processes killed by SIGKILL — the only
tests in the suite where a real pool process dies.  The deterministic
backoff schedule is tested directly.
"""

from __future__ import annotations

import os
import pickle
import signal
import time

import numpy as np
import pytest

from repro.shard import (
    FailureDirector,
    FaultPlan,
    RetryPolicy,
    ShardContext,
    ShardError,
)
from repro.utils.errors import ValidationError


def _square(item, common):
    return item * item


def _sleep(item, common):
    time.sleep(common["seconds"])
    return item


def _boom(item, common):
    raise ValueError("task bug, not infrastructure")


def _spectrum(item, common):
    """A float result whose bits depend on BLAS/LAPACK doing real work."""
    rng = np.random.default_rng(item)
    matrix = rng.standard_normal((24, 24))
    return np.linalg.eigvalsh(matrix + matrix.T)


def _spectrum_dying_once(item, common):
    """:func:`_spectrum`, but the victim item SIGKILLs its own worker
    process the first time it runs (the marker file remembers)."""
    marker = common["marker"]
    if item == common["victim"] and not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return _spectrum(item, common)


def _kill_pool(shard: ShardContext) -> int:
    """SIGKILL every pool process; return once the executor is broken."""
    executor = shard.executor()
    processes = list(executor._processes.values())
    for process in processes:
        os.kill(process.pid, signal.SIGKILL)
    limit = time.monotonic() + 30.0
    while not executor._broken and time.monotonic() < limit:
        time.sleep(0.01)
    assert executor._broken, "executor never noticed its dead workers"
    return len(processes)


def _forced(**overrides) -> ShardContext:
    params = dict(workers=2, min_items=0, min_bytes=0)
    params.update(overrides)
    return ShardContext(**params)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValidationError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValidationError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValidationError, match="jitter"):
            RetryPolicy(jitter=2.0)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_delay=0.1, backoff_factor=2.0, max_delay=0.3, jitter=0.0
        )
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(5) == pytest.approx(0.3)  # capped

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5, seed=4)
        first = [policy.delay(a, key=9) for a in range(5)]
        assert first == [policy.delay(a, key=9) for a in range(5)]
        for attempt, delay in enumerate(first):
            base = min(0.1 * 2.0 ** attempt, policy.max_delay)
            assert base <= delay <= base * 1.5
        # Different keys de-synchronize (the anti-lockstep property).
        assert first != [policy.delay(a, key=10) for a in range(5)]

    def test_policy_is_picklable(self):
        policy = RetryPolicy(max_attempts=5, seed=3)
        assert pickle.loads(pickle.dumps(policy)) == policy


class TestRetryThroughBackends:
    def test_injected_crash_is_retried_to_success_process(self):
        plan = FaultPlan(seed=0, crash_rate=0.5)
        with _forced(fault_plan=plan, timeout=30.0) as ctx:
            result = ctx.run(_square, list(range(8)))
        assert result == [i * i for i in range(8)]
        assert ctx.stats.failures == 0
        assert ctx.stats.retries >= 1
        assert ctx.stats.redispatches >= 1

    def test_results_identical_with_and_without_faults(self):
        items = list(range(12))
        with _forced(timeout=30.0) as clean_ctx:
            clean = clean_ctx.run(_square, items)
        plan = FaultPlan(seed=5, crash_rate=0.3, drop_rate=0.2)
        with _forced(fault_plan=plan, timeout=30.0) as chaos_ctx:
            chaos = chaos_ctx.run(_square, items)
        assert clean == chaos

    def test_task_bugs_fail_fast_without_retry(self):
        with _forced(timeout=30.0) as ctx:
            with pytest.raises(ShardError, match="task bug"):
                ctx.run(_boom, list(range(4)))
        assert ctx.stats.retries == 0  # deterministic bugs never retry

    def test_exhausted_retries_raise_structured_error(self):
        # Faults on every attempt: the dispatch must exhaust its
        # retries and raise with full context.
        plan = FaultPlan(seed=0, crash_rate=1.0, max_faulted_attempts=99)
        with _forced(fault_plan=plan, retries=1, timeout=30.0) as ctx:
            with pytest.raises(ShardError) as excinfo:
                ctx.run(_square, list(range(4)))
        error = excinfo.value
        assert error.backend == "process"
        assert error.attempts == 2
        assert error.elapsed is not None
        assert "failed after 2 attempt(s)" in str(error)
        assert ctx.stats.failures == 1
        # A fresh context dispatches fault-free.
        with _forced(timeout=30.0) as ctx2:
            assert ctx2.run(_square, [2, 3]) == [4, 9]

    def test_timeout_set_after_construction_bounds_the_attempt(self):
        # Each dispatch reads the context's timeout, so tightening it
        # after construction (the serve daemon passes on a request's
        # remaining deadline this way) bounds the next attempt: the
        # 5 s tasks are cut at 0.5 s instead of running to completion.
        with _forced(timeout=30.0, retries=0) as ctx:
            ctx.timeout = 0.5
            with pytest.raises(ShardError, match="1 attempt"):
                ctx.run(_sleep, [0, 1], common={"seconds": 5.0})

    def test_context_validation(self):
        with pytest.raises(ValidationError, match="retries"):
            ShardContext(workers=2, retries=-1)

    def test_removed_knobs_are_refused(self):
        with pytest.raises(TypeError):
            FailureDirector(RetryPolicy(), quarantine_after=2)
        with pytest.raises(TypeError):
            ShardContext(backend="process")
        with pytest.raises(TypeError):
            ShardContext(remote_workers=2)


class TestKilledPool:
    def test_pool_killed_between_dispatches_recovers(self):
        # A pool process killed while idle (the OOM killer, an
        # operator's kill) breaks the executor: the next submit itself
        # raises BrokenProcessPool, which must become a retry on a
        # freshly forked pool, not an escaped exception.
        items = list(range(6))
        with _forced(timeout=30.0) as ctx:
            assert ctx.run(_square, items) == [i * i for i in items]
            assert _kill_pool(ctx) == 2
            assert ctx.run(_square, items) == [i * i for i in items]
            assert ctx.stats.retries >= 1
            assert ctx.stats.failures == 0
            retries = ctx.stats.retries
            assert ctx.run(_square, [7, 8]) == [49, 64]
            assert ctx.stats.retries == retries  # the new pool is healthy

    def test_task_killing_its_worker_is_retried_bit_identical(
        self, tmp_path
    ):
        items = list(range(8))
        common = {"marker": str(tmp_path / "killed"), "victim": 5}
        with ShardContext(workers=1) as serial:
            reference = serial.run(_spectrum, items)
        with _forced(timeout=30.0) as ctx:
            result = ctx.run(_spectrum_dying_once, items, common=common)
            assert ctx.stats.retries >= 1
            assert ctx.stats.failures == 0
        assert os.path.exists(common["marker"])  # the victim did die
        for ours, theirs in zip(result, reference):
            assert np.array_equal(ours, theirs)
