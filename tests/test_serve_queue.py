"""Unit tests of the serving daemon's admission queue (DESIGN.md §13).

The queue is the robustness core: depth + byte bounds, per-tenant token
buckets, start-time-fair dequeue, deadline finalization of queued
entries, and the no-leak cancellation contract.  Everything here runs
single-threaded with an injected fake clock — determinism over sockets.
"""

from __future__ import annotations

import pytest

from repro.serve.queue import (
    AdmissionQueue,
    PRIORITY_WEIGHTS,
    QUEUED,
    RUNNING,
    RequestEntry,
    TokenBucket,
)
from repro.serve.stats import PRIORITIES, ServeStats, percentile
from repro.utils.counters import merge_snapshots
from repro.utils.errors import (
    DeadlineExceeded,
    ServerDraining,
    ServerOverloaded,
    TenantQuotaExceeded,
    ValidationError,
)


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def make_queue(clock=None, **overrides) -> AdmissionQueue:
    params = dict(capacity=4, max_bytes=1000, stats=ServeStats())
    if clock is not None:
        params["clock"] = clock
    params.update(overrides)
    return AdmissionQueue(**params)


def entry(tenant="a", nbytes=10, deadline=None, batch_key=None, clock=None,
          priority="normal"):
    kwargs = {}
    if clock is not None:
        kwargs["clock"] = clock
    return RequestEntry(
        tenant=tenant, job={"kind": "objective"}, nbytes=nbytes,
        deadline=deadline, batch_key=batch_key, priority=priority, **kwargs,
    )


# ---------------------------------------------------------------------- #
# Token bucket
# ---------------------------------------------------------------------- #

class TestTokenBucket:
    def test_zero_rate_admits_everything(self):
        bucket = TokenBucket(rate=0.0, burst=1.0)
        assert all(bucket.try_admit() for _ in range(100))

    def test_burst_then_refusal(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=3.0, clock=clock)
        assert [bucket.try_admit() for _ in range(4)] == [
            True, True, True, False,
        ]

    def test_refill_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=clock)
        bucket.try_admit()
        bucket.try_admit()
        assert not bucket.try_admit()
        clock.advance(0.5)  # 2/s * 0.5s = 1 token
        assert bucket.try_admit()
        assert not bucket.try_admit()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        clock.advance(100.0)
        assert bucket.try_admit()
        assert bucket.try_admit()
        assert not bucket.try_admit()


# ---------------------------------------------------------------------- #
# Admission gates
# ---------------------------------------------------------------------- #

class TestAdmission:
    def test_capacity_rejection_is_structured(self):
        queue = make_queue(capacity=2)
        queue.submit(entry())
        queue.submit(entry())
        with pytest.raises(ServerOverloaded) as excinfo:
            queue.submit(entry())
        assert excinfo.value.fields["queue_depth"] == 2
        assert queue.stats.total("rejected_overload") == 1

    def test_byte_budget_rejection(self):
        queue = make_queue(capacity=100, max_bytes=100)
        queue.submit(entry(nbytes=80))
        with pytest.raises(ServerOverloaded) as excinfo:
            queue.submit(entry(nbytes=80))
        assert "byte budget" in str(excinfo.value)

    def test_oversize_single_request_admitted_when_empty(self):
        # A request bigger than the whole budget must not deadlock the
        # queue forever: alone, it is admitted.
        queue = make_queue(max_bytes=100)
        queue.submit(entry(nbytes=500))
        assert queue.depth == 1

    def test_draining_rejects_new_admissions(self):
        queue = make_queue()
        queue.drain()
        with pytest.raises(ServerDraining):
            queue.submit(entry())
        assert queue.stats.total("rejected_draining") == 1

    def test_quota_sheds_only_the_noisy_tenant(self):
        clock = FakeClock()
        queue = make_queue(
            clock=clock, capacity=100, tenant_rate=1.0, tenant_burst=2.0
        )
        queue.submit(entry("noisy", clock=clock))
        queue.submit(entry("noisy", clock=clock))
        with pytest.raises(TenantQuotaExceeded):
            queue.submit(entry("noisy", clock=clock))
        # The quiet tenant is unaffected by the noisy one's empty bucket.
        queue.submit(entry("quiet", clock=clock))
        assert queue.stats.total("rejected_quota") == 1

    def test_quota_is_a_kind_of_overload(self):
        # Generic shed handling (except ServerOverloaded) catches quotas.
        assert issubclass(TenantQuotaExceeded, ServerOverloaded)


# ---------------------------------------------------------------------- #
# Fair dequeue
# ---------------------------------------------------------------------- #

class TestFairDequeue:
    def test_fifo_within_one_tenant(self):
        queue = make_queue(capacity=10)
        entries = [entry("a") for _ in range(3)]
        for item in entries:
            queue.submit(item)
        taken = [queue.take(timeout=0.1) for _ in range(3)]
        assert [t.id for t in taken] == [e.id for e in entries]

    def test_flood_does_not_starve_light_tenant(self):
        # Tenant a floods 6 requests, then b submits 2: SFQ interleaves
        # b's requests ahead of a's backlog instead of FIFO-starving b.
        queue = make_queue(capacity=20)
        for _ in range(6):
            queue.submit(entry("a"))
        for _ in range(2):
            queue.submit(entry("b"))
        order = [queue.take(timeout=0.1).tenant for _ in range(8)]
        # Both of b's requests are served within the first four slots.
        assert order[:4].count("b") == 2

    def test_weights_skew_the_share(self):
        weights = {"gold": 3.0, "bronze": 1.0}
        queue = make_queue(
            capacity=40, weight_for=lambda t: weights.get(t, 1.0)
        )
        for _ in range(9):
            queue.submit(entry("gold"))
            queue.submit(entry("bronze"))
        first_eight = [queue.take(timeout=0.1).tenant for _ in range(8)]
        # Weight 3 vs 1: gold gets ~3x the early slots.
        assert first_eight.count("gold") >= 5

    def test_take_times_out_empty(self):
        queue = make_queue()
        assert queue.take(timeout=0.01) is None


# ---------------------------------------------------------------------- #
# Deadlines, cancellation, accounting
# ---------------------------------------------------------------------- #

class TestLifecycle:
    def test_expired_queued_entry_never_starts(self):
        clock = FakeClock()
        queue = make_queue(clock=clock, capacity=10)
        stale = entry("a", deadline=1.0, clock=clock)
        queue.submit(stale)
        fresh = entry("a", deadline=100.0, clock=clock)
        queue.submit(fresh)
        clock.advance(5.0)
        taken = queue.take(timeout=0.1)
        assert taken is fresh
        assert stale.done.is_set()
        assert isinstance(stale.error, DeadlineExceeded)
        assert queue.stats.total("deadline_expired") == 1
        # Its budget was released with it.
        assert queue.inflight_bytes == fresh.nbytes

    def test_cancel_queued_frees_slot_immediately(self):
        queue = make_queue(capacity=2)
        first = entry()
        queue.submit(first)
        queue.submit(entry())
        queue.cancel(first)
        assert first.done.is_set()
        assert queue.depth == 1
        queue.submit(entry())  # the freed slot is reusable
        assert queue.stats.total("cancelled") == 1

    def test_no_leak_after_many_abandoned(self):
        # The satellite contract: 100 abandoned requests leave zero
        # queued entries and zero in-flight bytes behind.
        queue = make_queue(capacity=200, max_bytes=10**9)
        entries = [entry(nbytes=1000) for _ in range(100)]
        for item in entries:
            queue.submit(item)
        for item in entries:
            queue.cancel(item)
        assert queue.depth == 0
        assert queue.inflight_bytes == 0
        assert queue.idle()

    def test_cancel_running_marks_abandoned_and_releases_on_finish(self):
        queue = make_queue()
        item = entry(nbytes=50)
        queue.submit(item)
        taken = queue.take(timeout=0.1)
        queue.cancel(taken)
        assert taken.abandoned
        assert queue.inflight_bytes == 50  # still running
        queue.finish(taken, {"x": 1})
        assert queue.inflight_bytes == 0
        # Abandoned completions don't count as served.
        assert queue.stats.total("completed") == 0

    def test_finish_and_fail_release_bytes_once(self):
        queue = make_queue()
        good, bad = entry(nbytes=30), entry(nbytes=20)
        queue.submit(good)
        queue.submit(bad)
        a = queue.take(timeout=0.1)
        b = queue.take(timeout=0.1)
        queue.finish(a, "ok")
        queue.fail(b, RuntimeError("boom"))
        queue.finish(a, "again")  # double-complete is a no-op
        assert queue.inflight_bytes == 0
        assert queue.stats.total("completed") == 1
        assert queue.stats.total("failed") == 1
        assert queue.idle()

    def test_wait_idle(self):
        queue = make_queue()
        item = entry()
        queue.submit(item)
        assert not queue.wait_idle(timeout=0.01)
        taken = queue.take(timeout=0.1)
        queue.finish(taken, None)
        assert queue.wait_idle(timeout=0.1)


# ---------------------------------------------------------------------- #
# Batch collection
# ---------------------------------------------------------------------- #

class TestCollectBatch:
    def test_collects_only_matching_keys(self):
        queue = make_queue(capacity=10)
        key = ("objective", "p", 0)
        matching = [entry("a", batch_key=key) for _ in range(3)]
        other = entry("a", batch_key=("objective", "q", 0))
        for item in matching:
            queue.submit(item)
        queue.submit(other)
        head = queue.take(timeout=0.1)
        group = queue.collect_batch(head, limit=8)
        assert {g.id for g in group} == {m.id for m in matching}
        assert other.state == QUEUED

    def test_limit_respected(self):
        queue = make_queue(capacity=10)
        key = ("objective", "p", 0)
        for _ in range(5):
            queue.submit(entry("a", batch_key=key))
        head = queue.take(timeout=0.1)
        group = queue.collect_batch(head, limit=3)
        assert len(group) == 3
        assert queue.depth == 2

    def test_cross_tenant_batching(self):
        queue = make_queue(capacity=10)
        key = ("objective", "p", 0)
        queue.submit(entry("a", batch_key=key))
        queue.submit(entry("b", batch_key=key))
        head = queue.take(timeout=0.1)
        group = queue.collect_batch(head, limit=8)
        assert sorted(g.tenant for g in group) == ["a", "b"]

    def test_none_key_never_batches(self):
        queue = make_queue(capacity=10)
        queue.submit(entry("a", batch_key=None))
        queue.submit(entry("a", batch_key=None))
        head = queue.take(timeout=0.1)
        assert queue.collect_batch(head, limit=8) == [head]

    def test_expired_member_finalized_not_batched(self):
        clock = FakeClock()
        queue = make_queue(clock=clock, capacity=10)
        key = ("objective", "p", 0)
        fresh = entry("a", batch_key=key, clock=clock)
        stale = entry("a", batch_key=key, deadline=1.0, clock=clock)
        queue.submit(fresh)
        queue.submit(stale)
        clock.advance(2.0)
        head = queue.take(timeout=0.1)
        group = queue.collect_batch(head, limit=8)
        assert group == [head]
        assert isinstance(stale.error, DeadlineExceeded)


# ---------------------------------------------------------------------- #
# Stats
# ---------------------------------------------------------------------- #

class TestStats:
    def test_percentile_nearest_rank(self):
        assert percentile([], 50) == 0.0
        assert percentile([5.0], 99) == 5.0
        samples = list(range(1, 101))
        assert percentile(samples, 50) == pytest.approx(50, abs=1)
        assert percentile(samples, 99) == pytest.approx(99, abs=1)

    def test_snapshot_and_summary_roundtrip(self):
        stats = ServeStats()
        stats.bump("a", "requests", 3)
        stats.bump("a", "completed", 2)
        stats.bump("b", "requests")
        stats.bump("b", "rejected_overload")
        stats.record_wait("a", 0.010)
        stats.record_wait("a", 0.020)
        snap = stats.snapshot()
        assert snap["totals"]["requests"] == 4
        assert snap["tenants"]["b"]["rejected_overload"] == 1
        line = stats.summary()
        assert "4 requests" in line and "2 tenants" in line
        assert "1 rejected" in line
        # The remote renderer (CLI from the health endpoint) matches the
        # in-process one exactly.
        assert ServeStats.summary_from_snapshot(snap) == line

    def test_unknown_counter_rejected(self):
        with pytest.raises(KeyError):
            ServeStats().bump("a", "nonsense")

    def test_percentile_edge_ranks(self):
        # Nearest-rank at the extremes: empty, singleton, q=0/q=100,
        # and the two-sample rounding boundary.
        assert percentile([], 0) == 0.0
        assert percentile([], 100) == 0.0
        assert percentile([7.0], 0) == 7.0
        assert percentile([7.0], 100) == 7.0
        assert percentile([1.0, 2.0], 0) == 1.0
        assert percentile([1.0, 2.0], 100) == 2.0
        assert percentile([1.0, 2.0], 49) == 1.0
        assert percentile([1.0, 2.0], 51) == 2.0
        # Input order must not matter.
        assert percentile([9.0, 1.0, 5.0], 100) == 9.0


class TestMergeSnapshots:
    def test_heterogeneous_tenants_and_percentiles(self):
        a, b = ServeStats(), ServeStats()
        a.bump("acme", "requests", 3)
        a.bump("acme", "completed", 2)
        a.record_wait("acme", 0.100)
        b.bump("acme", "requests", 1)
        b.bump("zeta", "requests", 5)  # tenant known to one daemon only
        b.record_wait("zeta", 0.400)
        merged = merge_snapshots(
            [a.snapshot(), b.snapshot()], ServeStats.ZERO_SNAPSHOT
        )
        assert merged["totals"]["requests"] == 9
        assert merged["tenants"]["acme"]["requests"] == 4
        assert merged["tenants"]["zeta"]["requests"] == 5
        # Tenants are the sorted union, whatever order daemons report in.
        only_zeta = {"tenants": {"zeta": merged["tenants"]["zeta"]}}
        reordered = merge_snapshots(
            [only_zeta, a.snapshot()], ServeStats.ZERO_SNAPSHOT
        )
        assert list(reordered["tenants"]) == ["acme", "zeta"]
        # Percentiles take the fleet max, never a sum.
        assert merged["totals"]["queue_wait_p99_ms"] == pytest.approx(400.0)
        assert merged["tenants"]["acme"]["queue_wait_p99_ms"] == (
            pytest.approx(100.0)
        )

    def test_old_wire_snapshots_missing_keys_read_as_zero(self):
        # A pre-result-cache / pre-priority daemon's snapshot has no
        # "result_hits" counter and no "priorities" section; a mixed
        # fleet must still aggregate and render.
        old = {
            "totals": {"requests": 2, "completed": 2,
                       "rejected_overload": 0, "rejected_quota": 0,
                       "rejected_draining": 0, "deadline_expired": 0,
                       "batched": 1, "queue_wait_p50_ms": 1.0,
                       "queue_wait_p99_ms": 2.0},
            "tenants": {"acme": {"requests": 2, "completed": 2,
                                 "queue_wait_p99_ms": 2.0}},
        }
        new = ServeStats()
        new.bump("acme", "result_hits")
        new.record_wait("acme", 0.001, priority="interactive")
        merged = merge_snapshots(
            [old, new.snapshot()], ServeStats.ZERO_SNAPSHOT
        )
        assert merged["totals"]["requests"] == 2
        assert merged["totals"]["result_hits"] == 1
        assert merged["tenants"]["acme"]["result_hits"] == 1
        assert merged["priorities"]["interactive"]["served"] == 1
        assert merged["priorities"]["batch"]["served"] == 0
        line = ServeStats.summary_from_snapshot(merged)
        assert "1 result-cache hits" in line

    def test_empty_merge_still_renders(self):
        merged = merge_snapshots([], ServeStats.ZERO_SNAPSHOT)
        assert merged["totals"]["requests"] == 0
        assert all(name in merged["priorities"] for name in PRIORITIES)
        assert "0 requests" in ServeStats.summary_from_snapshot(merged)

    def test_priority_waits_surface_in_snapshot(self):
        stats = ServeStats()
        stats.record_wait("a", 0.010, priority="interactive")
        stats.record_wait("a", 0.500, priority="batch")
        snap = stats.snapshot()
        assert snap["priorities"]["interactive"]["served"] == 1
        assert snap["priorities"]["interactive"]["queue_wait_p99_ms"] == (
            pytest.approx(10.0)
        )
        assert snap["priorities"]["batch"]["queue_wait_p99_ms"] == (
            pytest.approx(500.0)
        )
        assert snap["priorities"]["normal"]["served"] == 0


# ---------------------------------------------------------------------- #
# Injected clock (regression: entries must never read the real clock)
# ---------------------------------------------------------------------- #

class TestClockInjection:
    def test_remaining_and_expired_use_the_injected_clock(self):
        # Regression: RequestEntry stored expires_at from the injected
        # clock but read time.monotonic() in remaining()/expired(), so
        # under a fake clock every deadline looked already expired
        # (real monotonic time >> fake 0.0).
        clock = FakeClock(0.0)
        item = entry(deadline=5.0, clock=clock)
        assert item.remaining() == pytest.approx(5.0)
        assert not item.expired()
        clock.advance(4.0)
        assert item.remaining() == pytest.approx(1.0)
        clock.advance(2.0)
        assert item.expired()
        assert item.remaining() == pytest.approx(-1.0)

    def test_no_deadline_is_unbounded(self):
        clock = FakeClock(0.0)
        item = entry(deadline=None, clock=clock)
        clock.advance(1e9)
        assert not item.expired()
        assert item.remaining() is None


# ---------------------------------------------------------------------- #
# Priority classes
# ---------------------------------------------------------------------- #

class TestPriorities:
    def test_unknown_priority_rejected_at_construction(self):
        with pytest.raises(ValidationError):
            entry(priority="urgent")

    def test_weights_cover_all_classes(self):
        assert set(PRIORITY_WEIGHTS) == set(PRIORITIES)
        assert (
            PRIORITY_WEIGHTS["interactive"]
            > PRIORITY_WEIGHTS["normal"]
            > PRIORITY_WEIGHTS["batch"]
        )

    def test_interactive_overtakes_batch_backlog_same_tenant(self):
        # One tenant floods batch work, then submits interactive: the
        # interactive request jumps the backlog because its flow's
        # finish tags grow 16x slower.
        queue = make_queue(capacity=20)
        for _ in range(6):
            queue.submit(entry("a", priority="batch"))
        urgent = entry("a", priority="interactive")
        queue.submit(urgent)
        assert queue.take(timeout=0.1) is urgent

    def test_priorities_are_separate_flows(self):
        # Same tenant, two classes: FIFO holds within each class but
        # not across them.
        queue = make_queue(capacity=20)
        first_batch = entry("a", priority="batch")
        queue.submit(first_batch)
        second_batch = entry("a", priority="batch")
        queue.submit(second_batch)
        normal = entry("a", priority="normal")
        queue.submit(normal)
        assert first_batch.flow == ("a", "batch")
        assert normal.flow == ("a", "normal")
        taken = [queue.take(timeout=0.1) for _ in range(3)]
        assert taken[0] is normal  # weight 1.0 vs 0.25
        assert taken[1:] == [first_batch, second_batch]  # FIFO in-flow

    def test_aging_bounds_batch_starvation(self):
        # Without aging a steady interactive stream starves batch
        # forever; with aging the batch head's rank decays with queue
        # wait and eventually wins a slot.
        clock = FakeClock()
        queue = make_queue(clock=clock, capacity=20, priority_aging=0.1)
        stale = entry("a", priority="batch", clock=clock)
        queue.submit(stale)  # finish tag = 1/0.25 = 4.0
        clock.advance(100.0)
        fresh = entry("a", priority="interactive", clock=clock)
        queue.submit(fresh)  # finish tag = 0.25, but zero wait
        # rank(stale) = 4.0 - 0.1*100 = -6.0 < rank(fresh) = 0.25
        assert queue.take(timeout=0.1) is stale

    def test_no_aging_prefers_interactive_regardless_of_wait(self):
        clock = FakeClock()
        queue = make_queue(clock=clock, capacity=20, priority_aging=0.0)
        stale = entry("a", priority="batch", clock=clock)
        queue.submit(stale)
        clock.advance(100.0)
        fresh = entry("a", priority="interactive", clock=clock)
        queue.submit(fresh)
        assert queue.take(timeout=0.1) is fresh

    def test_collect_batch_never_mixes_priorities(self):
        # Coalescing a batch-class entry into an interactive group
        # would defeat the class separation.
        queue = make_queue(capacity=10)
        key = ("objective", "p", 0)
        head = entry("a", batch_key=key, priority="interactive")
        rider = entry("a", batch_key=key, priority="interactive")
        freight = entry("a", batch_key=key, priority="batch")
        for item in (head, rider, freight):
            queue.submit(item)
        taken = queue.take(timeout=0.1)
        assert taken is head
        group = queue.collect_batch(head, limit=8)
        assert {g.id for g in group} == {head.id, rider.id}
        assert freight.state == QUEUED

    def test_cancel_and_deadline_work_on_priority_flows(self):
        clock = FakeClock()
        queue = make_queue(clock=clock, capacity=10)
        doomed = entry(
            "a", priority="interactive", deadline=1.0, clock=clock
        )
        queue.submit(doomed)
        cancelled = entry("a", priority="normal", clock=clock)
        queue.submit(cancelled)
        survivor = entry("a", priority="batch", clock=clock)
        queue.submit(survivor)
        queue.cancel(cancelled)
        clock.advance(5.0)
        # The expired interactive head is finalized on the way to the
        # surviving batch entry.
        assert queue.take(timeout=0.1) is survivor
        assert isinstance(doomed.error, DeadlineExceeded)
        assert queue.depth == 0
        assert queue.inflight_bytes == survivor.nbytes


# ---------------------------------------------------------------------- #
# finish_queued: the result-cache hit path
# ---------------------------------------------------------------------- #

class TestFinishQueued:
    def test_completes_in_place_and_releases_budget(self):
        queue = make_queue(capacity=2)
        hit = entry(nbytes=40)
        queue.submit(hit)
        assert queue.finish_queued(hit, {"cached": True}) is True
        assert hit.done.is_set()
        assert hit.result == {"cached": True}
        assert hit.error is None
        assert queue.depth == 0
        assert queue.inflight_bytes == 0
        assert queue.stats.total("completed") == 1
        assert queue.idle()
        # The freed slot is immediately reusable.
        queue.submit(entry())
        queue.submit(entry())

    def test_races_with_a_worker_returns_false(self):
        queue = make_queue()
        item = entry()
        queue.submit(item)
        taken = queue.take(timeout=0.1)
        assert taken is item and item.state == RUNNING
        assert queue.finish_queued(item, {"cached": True}) is False
        assert not item.done.is_set()
        assert queue.inflight_bytes == item.nbytes  # still running
        queue.finish(item, {"computed": True})
        assert item.result == {"computed": True}

    def test_flow_survivors_still_dequeue_in_order(self):
        queue = make_queue(capacity=10)
        first, second, third = entry(), entry(), entry()
        for item in (first, second, third):
            queue.submit(item)
        assert queue.finish_queued(second, "hit")
        assert queue.take(timeout=0.1) is first
        assert queue.take(timeout=0.1) is third

    def test_records_wait_for_the_priority_class(self):
        clock = FakeClock()
        queue = make_queue(clock=clock, capacity=10)
        item = entry("a", priority="interactive", clock=clock)
        queue.submit(item)
        clock.advance(0.002)
        queue.finish_queued(item, "hit")
        snap = queue.stats.snapshot()
        assert snap["priorities"]["interactive"]["served"] == 1
        assert snap["priorities"]["interactive"]["queue_wait_p99_ms"] == (
            pytest.approx(2.0)
        )
