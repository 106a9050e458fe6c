"""Stateful model of the serving daemon's admission queue.

A hypothesis state machine drives :class:`AdmissionQueue` on a fake
clock through submit / take / collect_batch / finish / fail / cancel /
finish_queued / drain, with drawn tenants, priorities, byte sizes,
deadlines and batch keys, against a plain model of which entries are
queued and which are running.  The model predicts every admission
decision (draining, the per-tenant token bucket, depth, bytes).  After
every step the machine checks that the queue's depth, in-flight bytes
and running count match the model; that ``requests`` equals
``admitted`` plus the three rejections; and that every admitted entry
ends exactly once (completed, failed, cancelled or deadline-expired).
Settling every entry returns the accounting to zero.

Every take also checks the aging bound of the default weights with
``priority_aging=0.1``: a queued batch entry is never passed over for
an interactive entry that arrived 37.5 s or more after it, so once it
has waited 37.5 s no interactive request arriving from then on is
served before it, however many keep landing.  The bound needs the
batch entry's start tag to be no later than the interactive one's; a
batch entry queued behind another batch entry starts at that entry's
finish tag and is bounded correspondingly later.  A second, smaller
machine drives exactly that traffic: batch entries waiting while
interactive arrivals keep landing and one entry is served at a time.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Optional

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.serve.queue import (
    CANCELLED,
    PRIORITY_WEIGHTS,
    QUEUED,
    RUNNING,
    AdmissionQueue,
    RequestEntry,
)
from repro.serve.stats import PRIORITIES, ServeStats
from repro.utils.errors import (
    DeadlineExceeded,
    ServerDraining,
    ServerOverloaded,
    TenantQuotaExceeded,
)

CAPACITY = 5
MAX_BYTES = 1000
RATE = 0.5
BURST = 3.0
AGING = 0.1
#: seconds of waiting after which a batch entry outranks a fresh
#: interactive one: (1/0.25 - 1/4) / 0.1 = 37.5.
STARVATION_BOUND = (
    1.0 / PRIORITY_WEIGHTS["batch"] - 1.0 / PRIORITY_WEIGHTS["interactive"]
) / AGING
OUTCOMES = ("completed", "failed", "cancelled", "deadline_expired")
REJECTIONS = {
    ServerDraining: "rejected_draining",
    TenantQuotaExceeded: "rejected_quota",
    ServerOverloaded: "rejected_overload",
}
COUNTERS = ("requests", "admitted", "batched", *REJECTIONS.values(), *OUTCOMES)


def check_aging_bound(taken: RequestEntry, queued) -> None:
    """No queued batch entry was passed over for ``taken`` if ``taken``
    is interactive and arrived 37.5 s or more after it."""
    if taken.priority != "interactive":
        return
    for waiting in queued:
        if waiting.priority == "batch" and waiting.start_tag <= taken.start_tag:
            arrived_after = taken.enqueued_at - waiting.enqueued_at
            assert arrived_after <= STARVATION_BOUND + 1e-6, (
                f"batch entry {waiting.id} passed over for an interactive "
                f"one that arrived {arrived_after}s after it"
            )


class AdmissionQueueMachine(RuleBasedStateMachine):
    """The queue on a fake clock against a model of its entries."""

    def __init__(self) -> None:
        super().__init__()
        self.now = 0.0
        self.queue = AdmissionQueue(
            capacity=CAPACITY,
            max_bytes=MAX_BYTES,
            stats=ServeStats(),
            tenant_rate=RATE,
            tenant_burst=BURST,
            priority_aging=AGING,
            clock=self.clock,
        )
        self.queued: Dict[int, RequestEntry] = {}
        self.running: Dict[int, RequestEntry] = {}
        #: id -> the one way the entry ended.
        self.outcome: Dict[int, str] = {}
        self.admitted = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        #: tenant -> [tokens, last refill time], the token-bucket model.
        self.buckets: Dict[str, list] = {}
        self.draining = False

    def clock(self) -> float:
        return self.now

    # ------------------------------------------------------------------ #
    # Model helpers
    # ------------------------------------------------------------------ #

    def _held_bytes(self) -> int:
        return sum(
            entry.nbytes
            for entry in chain(self.queued.values(), self.running.values())
        )

    def _end(self, entry: RequestEntry, outcome: str) -> None:
        assert entry.id not in self.outcome, "an entry ended twice"
        self.outcome[entry.id] = outcome
        self.counts[outcome] += 1

    def _rejection(self, tenant: str, nbytes: int) -> Optional[str]:
        """The counter a submit must bump: a rejection, or ``None``."""
        if self.draining:
            return "rejected_draining"
        bucket = self.buckets.setdefault(tenant, [BURST, self.now])
        bucket[0] = min(BURST, bucket[0] + (self.now - bucket[1]) * RATE)
        bucket[1] = self.now
        if bucket[0] < 1.0:
            return "rejected_quota"
        bucket[0] -= 1.0
        if len(self.queued) >= CAPACITY:
            return "rejected_overload"
        held = self._held_bytes()
        if held + nbytes > MAX_BYTES and held > 0:
            return "rejected_overload"
        return None

    def _collect_expired(self) -> None:
        """Entries the queue finalized while picking had expired."""
        for entry in list(self.queued.values()):
            if entry.state != QUEUED:
                assert entry.expired(self.now)
                assert isinstance(entry.error, DeadlineExceeded)
                assert entry.done.is_set()
                del self.queued[entry.id]
                self._end(entry, "deadline_expired")

    def _start(self, entry: RequestEntry, before: Dict[int, RequestEntry]):
        assert before.get(entry.id) is entry, "started an unqueued entry"
        assert entry.state == RUNNING and not entry.expired(self.now)
        del self.queued[entry.id]
        self.running[entry.id] = entry

    def _take(self) -> Optional[RequestEntry]:
        before = dict(self.queued)
        entry = self.queue.take(timeout=0)
        if entry is not None:
            self._start(entry, before)
        self._collect_expired()
        if entry is None:
            assert not self.queued, "take returned None with work queued"
            return None
        for waiting in self.queued.values():
            if waiting.flow == entry.flow:
                assert waiting.id > entry.id, "flow served out of order"
        check_aging_bound(entry, self.queued.values())
        return entry

    def _finish(self, entry: RequestEntry, failure: Optional[str]) -> None:
        running = entry.id in self.running
        if failure is None:
            self.queue.finish(entry, "result")
        elif failure == "deadline":
            self.queue.fail(entry, DeadlineExceeded("ran out of time"))
        else:
            self.queue.fail(entry, RuntimeError("job failed"))
        if not running:
            return  # finishing a queued or settled entry is a no-op
        del self.running[entry.id]
        assert entry.done.is_set()
        if entry.abandoned:
            return  # it ended when it was cancelled
        if failure is None:
            self._end(entry, "completed")
            self.counts["batched"] += entry.batched_with > 1
        else:
            self._end(
                entry, "deadline_expired" if failure == "deadline" else "failed"
            )

    # ------------------------------------------------------------------ #
    # Rules
    # ------------------------------------------------------------------ #

    @rule(seconds=st.sampled_from([0.0, 0.5, 2.0, 10.0, 40.0]))
    def advance(self, seconds):
        self.now += seconds

    @rule(
        tenant=st.sampled_from(["a", "b"]),
        priority=st.sampled_from(PRIORITIES),
        nbytes=st.integers(0, 600),
        deadline=st.none() | st.sampled_from([1.0, 5.0, 30.0, 60.0]),
        batch_key=st.sampled_from([None, "x"]),
    )
    def submit(self, tenant, priority, nbytes, deadline, batch_key):
        entry = RequestEntry(
            tenant, {"kind": "objective"}, nbytes=nbytes, deadline=deadline,
            batch_key=batch_key, priority=priority, clock=self.clock,
        )
        expected = self._rejection(tenant, nbytes)
        self.counts["requests"] += 1
        try:
            self.queue.submit(entry)
        except (ServerDraining, ServerOverloaded) as error:
            assert REJECTIONS[type(error)] == expected
            self.counts[expected] += 1
            return
        assert expected is None, f"admitted what should be {expected}"
        self.counts["admitted"] += 1
        self.queued[entry.id] = entry
        self.admitted.append(entry)

    @rule()
    def take(self):
        self._take()

    @rule(limit=st.integers(1, 4))
    def take_and_collect_batch(self, limit):
        head = self._take()
        if head is None:
            return
        before = dict(self.queued)
        group = self.queue.collect_batch(head, limit)
        assert head in group and len(group) <= max(1, limit)
        assert [e.id for e in group] == sorted(e.id for e in group)
        for member in group:
            if member is not head:
                assert member.batch_key == head.batch_key is not None
                assert member.priority == head.priority
                self._start(member, before)
        self._collect_expired()
        if head.batch_key is not None and len(group) < limit:
            assert not any(
                entry.batch_key == head.batch_key
                and entry.priority == head.priority
                for entry in self.queued.values()
            ), "a queued entry that could join the batch was left"
        for member in group:
            member.batched_with = len(group)  # as the daemon records it

    @precondition(lambda self: self.admitted)
    @rule(data=st.data(), failure=st.sampled_from([None, "error", "deadline"]))
    def finish(self, data, failure):
        self._finish(data.draw(st.sampled_from(self.admitted)), failure)

    @precondition(lambda self: self.admitted)
    @rule(data=st.data(), reason=st.sampled_from(["disconnect", "deadline"]))
    def cancel(self, data, reason):
        entry = data.draw(st.sampled_from(self.admitted))
        queued = entry.id in self.queued
        running = entry.id in self.running and not entry.abandoned
        self.queue.cancel(entry, reason)
        outcome = "deadline_expired" if reason == "deadline" else "cancelled"
        if queued:
            assert entry.state == CANCELLED and entry.done.is_set()
            del self.queued[entry.id]
            self._end(entry, outcome)
        elif running:
            assert entry.abandoned and not entry.done.is_set()
            self._end(entry, outcome)

    @precondition(lambda self: self.admitted)
    @rule(data=st.data())
    def finish_queued(self, data):
        entry = data.draw(st.sampled_from(self.admitted))
        queued = entry.id in self.queued
        assert self.queue.finish_queued(entry, "cached") == queued
        if queued:
            assert entry.done.is_set() and entry.result == "cached"
            del self.queued[entry.id]
            self._end(entry, "completed")

    # Draining admits nothing more, so it waits until the run has
    # admitted enough to have explored admission first.
    @precondition(lambda self: len(self.admitted) >= 8)
    @rule()
    def drain(self):
        self.queue.drain()
        self.draining = True

    @rule()
    def settle(self):
        """Run every queued entry and finish everything running."""
        while self._take() is not None:
            pass
        for entry in list(self.running.values()):
            self._finish(entry, None)
        assert self.queue.depth == 0
        assert self.queue.inflight_bytes == 0
        assert self.queue.running == 0
        assert self.queue.idle()
        assert len(self.outcome) == len(self.admitted)

    def teardown(self) -> None:
        self.settle()

    # ------------------------------------------------------------------ #
    # Invariants
    # ------------------------------------------------------------------ #

    @invariant()
    def accounting_matches_the_model(self):
        assert self.queue.depth == len(self.queued)
        assert self.queue.running == len(self.running)
        assert self.queue.inflight_bytes == self._held_bytes()
        assert self.queue.draining == self.draining

    @invariant()
    def counters_balance(self):
        totals = {name: self.queue.stats.total(name) for name in COUNTERS}
        assert totals == self.counts
        assert totals["requests"] == totals["admitted"] + sum(
            totals[name] for name in REJECTIONS.values()
        )
        live = len(self.queued) + sum(
            not entry.abandoned for entry in self.running.values()
        )
        ended = sum(totals[outcome] for outcome in OUTCOMES)
        assert totals["admitted"] == ended + live


class AgingMachine(RuleBasedStateMachine):
    """Batch entries waiting while interactive arrivals keep landing
    and a server takes and finishes one entry at a time."""

    def __init__(self) -> None:
        super().__init__()
        self.now = 0.0
        self.queue = AdmissionQueue(
            capacity=10_000,
            max_bytes=1 << 30,
            priority_aging=AGING,
            clock=lambda: self.now,
        )
        self.queued: Dict[int, RequestEntry] = {}

    def _arrive(self, tenant: str, priority: str) -> None:
        entry = RequestEntry(
            tenant, {"kind": "objective"}, priority=priority,
            clock=lambda: self.now,
        )
        self.queue.submit(entry)
        self.queued[entry.id] = entry

    @rule(tenant=st.sampled_from(["a", "b"]))
    def batch_arrives(self, tenant):
        self._arrive(tenant, "batch")

    @rule(tenant=st.sampled_from(["a", "b"]), count=st.integers(1, 3))
    def interactive_arrivals(self, tenant, count):
        for _ in range(count):
            self._arrive(tenant, "interactive")

    @rule(seconds=st.sampled_from([0.5, 2.0, 10.0]))
    def advance(self, seconds):
        self.now += seconds

    @rule()
    def serve(self):
        entry = self.queue.take(timeout=0)
        if entry is None:
            assert not self.queued
            return
        del self.queued[entry.id]
        check_aging_bound(entry, self.queued.values())
        self.queue.finish(entry, "result")


TestAdmissionQueueMachine = AdmissionQueueMachine.TestCase
TestAdmissionQueueMachine.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None
)
TestAgingMachine = AgingMachine.TestCase
TestAgingMachine.settings = settings(
    max_examples=100, stateful_step_count=60, deadline=None
)
