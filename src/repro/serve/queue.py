"""Bounded multi-tenant admission queue: the daemon's front door.

Three admission gates, applied in order at :meth:`AdmissionQueue.submit`
(all O(1), so shed requests are rejected in microseconds):

1. **draining** — a daemon winding down refuses new work
   (:class:`~repro.utils.errors.ServerDraining`);
2. **tenant quota** — a per-tenant token bucket
   (:class:`TokenBucket`) sheds requests from a tenant exceeding its
   admission rate (:class:`~repro.utils.errors.TenantQuotaExceeded`)
   while the rest of the fleet stays unaffected;
3. **capacity** — queued-request depth and summed in-flight payload
   bytes are both bounded (:class:`~repro.utils.errors.ServerOverloaded`
   past either), so a flood degrades into fast rejections, never into
   unbounded memory growth.

Dequeue is **start-time fair queuing** (SFQ): every admitted request
gets a start tag ``max(virtual_clock, flow's last finish tag)`` and a
finish tag ``start + 1/weight``; :meth:`take` serves the request with
the smallest finish tag and advances the virtual clock to its start
tag.  A tenant that floods the queue only advances *its own* finish
tags, so an interleaving light tenant is served at its weighted share —
the classic fair-queuing isolation argument, here applied to requests
instead of packets.

A flow is a ``(tenant, priority)`` pair: each request carries a
**priority class** (``interactive`` / ``normal`` / ``batch``), applied
as a multiplier on the tenant's fair-share weight
(:data:`PRIORITY_WEIGHTS`), so within one tenant interactive requests
overtake batch backlog while cross-tenant isolation is untouched.  An
**aging term** keeps ``batch`` from starving: the dequeue rank is
``finish_tag - priority_aging * queue_wait``, so a long-waiting batch
entry's rank decays until it wins a pick regardless of how many
higher-priority arrivals keep landing ahead of it — with the default
weights and ``priority_aging=0.1``, a batch entry overtakes every
interactive request of a weight-1 tenant that arrives
``(1/0.25 - 1/4) / 0.1 = 37.5s`` or more after it, provided its start
tag is no later than theirs (a batch entry queued behind batch backlog
starts at that backlog's finish tag and waits correspondingly longer;
``tests/test_serve_queue_stateful.py`` checks the bound).

Expiry and cancellation are first-class: an entry whose deadline passes
while queued is finalized with
:class:`~repro.utils.errors.DeadlineExceeded` the moment it would have
been dequeued (it never starts), and a client that disconnects
mid-queue has its entry removed and its depth/byte budget released
immediately — 100 abandoned requests leak nothing.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.serve.stats import PRIORITIES, ServeStats
from repro.utils.errors import (
    DeadlineExceeded,
    ServerDraining,
    ServerOverloaded,
    TenantQuotaExceeded,
    ValidationError,
)

#: entry lifecycle states.
QUEUED, RUNNING, DONE, CANCELLED = "queued", "running", "done", "cancelled"

#: fair-share weight multiplier per priority class.  Interactive gets a
#: 16x edge over batch within the same tenant; the aging term (see the
#: module docstring) bounds how long that edge can defer a batch entry.
PRIORITY_WEIGHTS = {"interactive": 4.0, "normal": 1.0, "batch": 0.25}


class TokenBucket:
    """Per-tenant admission rate limiter (``rate`` tokens/s, ``burst`` cap).

    ``clock`` is injectable so tests drive time deterministically.  A
    ``rate <= 0`` bucket admits everything (quotas off).
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._last = clock()

    def try_admit(self) -> bool:
        """Spend one token if available; refill lazily from the clock."""
        if self.rate <= 0:
            return True
        now = self._clock()
        self._tokens = min(
            self.burst, self._tokens + (now - self._last) * self.rate
        )
        self._last = now
        if self._tokens < 1.0:
            return False
        self._tokens -= 1.0
        return True


class RequestEntry:
    """One admitted (or about-to-be-admitted) request.

    The entry is the rendezvous between the connection thread (which
    waits on :attr:`done` and replies) and the executor thread (which
    finishes it); all state transitions happen under the owning queue's
    lock.
    """

    _ids = itertools.count(1)

    def __init__(
        self,
        tenant: str,
        job: Dict[str, Any],
        nbytes: int = 0,
        deadline: Optional[float] = None,
        batch_key: Optional[tuple] = None,
        priority: str = "normal",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if priority not in PRIORITY_WEIGHTS:
            raise ValidationError(
                f"unknown priority {priority!r} "
                f"(expected one of {PRIORITIES})"
            )
        self.id = next(self._ids)
        self.tenant = tenant
        self.job = job
        self.nbytes = int(nbytes)
        self.deadline = deadline
        self.priority = priority
        # Store the clock so every later deadline check lives in the
        # same time domain as expires_at — mixing an injected test clock
        # with real time.monotonic() made expiry nonsensical.
        self._clock = clock
        self.enqueued_at = clock()
        self.expires_at = (
            self.enqueued_at + deadline if deadline is not None else None
        )
        self.batch_key = batch_key
        self.done = threading.Event()
        self.state = QUEUED
        self.abandoned = False  # client gave up while we were running
        self.result: Optional[Any] = None
        self.error: Optional[BaseException] = None
        self.queue_wait: float = 0.0
        self.batched_with: int = 1  # group size the entry executed in
        self.result_key: Optional[bytes] = None  # set by the daemon
        # SFQ tags, assigned at submit.
        self.start_tag: float = 0.0
        self.finish_tag: float = 0.0

    @property
    def flow(self) -> Tuple[str, str]:
        """The fair-queuing flow this entry belongs to."""
        return (self.tenant, self.priority)

    def remaining(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds until the deadline (``None`` = no deadline)."""
        if self.expires_at is None:
            return None
        return self.expires_at - (self._clock() if now is None else now)

    def expired(self, now: Optional[float] = None) -> bool:
        remaining = self.remaining(now)
        return remaining is not None and remaining <= 0


class AdmissionQueue:
    """The bounded, weighted-fair, quota'd request queue (see module doc).

    Parameters
    ----------
    capacity:
        Maximum queued entries.
    max_bytes:
        Maximum summed payload bytes across queued *and* running
        entries.
    stats:
        The daemon's :class:`~repro.serve.stats.ServeStats`; every
        admission outcome is recorded here so callers never have to.
    weight_for:
        ``tenant -> weight`` for the fair dequeue (default 1.0); the
        entry's priority class multiplies this per flow.
    tenant_rate / tenant_burst:
        Token-bucket parameters applied to every tenant (0 = off).
    priority_aging:
        Virtual-time units/second by which a queued entry's dequeue
        rank decays — the anti-starvation term for ``batch`` (0
        disables aging; pure weighted priority).
    clock:
        Injectable monotonic clock (tests).
    """

    def __init__(
        self,
        capacity: int,
        max_bytes: int,
        stats: Optional[ServeStats] = None,
        weight_for: Optional[Callable[[str], float]] = None,
        tenant_rate: float = 0.0,
        tenant_burst: float = 8.0,
        priority_aging: float = 0.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.capacity = int(capacity)
        self.max_bytes = int(max_bytes)
        self.stats = stats if stats is not None else ServeStats()
        self._weight_for = weight_for or (lambda tenant: 1.0)
        self._tenant_rate = float(tenant_rate)
        self._tenant_burst = float(tenant_burst)
        self._aging = float(priority_aging)
        self._clock = clock
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        #: flow (tenant, priority) -> its queued entries, FIFO.
        self._pending: Dict[Tuple[str, str], Deque[RequestEntry]] = {}
        self._buckets: Dict[str, TokenBucket] = {}
        self._finish_tags: Dict[Tuple[str, str], float] = {}
        self._vclock = 0.0
        self._depth = 0
        self._inflight_bytes = 0
        self._running = 0
        self._draining = False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def depth(self) -> int:
        return self._depth

    @property
    def inflight_bytes(self) -> int:
        return self._inflight_bytes

    @property
    def running(self) -> int:
        return self._running

    @property
    def draining(self) -> bool:
        return self._draining

    def idle(self) -> bool:
        with self._lock:
            return self._depth == 0 and self._running == 0

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #

    def submit(self, entry: RequestEntry) -> None:
        """Admit ``entry`` or raise a structured shed error (fast, O(1))."""
        tenant = entry.tenant
        self.stats.bump(tenant, "requests")
        with self._lock:
            if self._draining:
                self.stats.bump(tenant, "rejected_draining")
                raise ServerDraining(
                    "server is draining; not accepting new requests",
                    tenant=tenant,
                )
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets[tenant] = TokenBucket(
                    self._tenant_rate, self._tenant_burst, self._clock
                )
            if not bucket.try_admit():
                self.stats.bump(tenant, "rejected_quota")
                raise TenantQuotaExceeded(
                    f"tenant {tenant!r} exceeded its admission rate",
                    tenant=tenant,
                    rate=self._tenant_rate,
                    burst=self._tenant_burst,
                )
            if self._depth >= self.capacity:
                self.stats.bump(tenant, "rejected_overload")
                raise ServerOverloaded(
                    "request queue is full",
                    tenant=tenant,
                    queue_depth=self._depth,
                    capacity=self.capacity,
                )
            if (
                self._inflight_bytes + entry.nbytes > self.max_bytes
                and self._inflight_bytes > 0
            ):
                self.stats.bump(tenant, "rejected_overload")
                raise ServerOverloaded(
                    "in-flight payload byte budget exhausted",
                    tenant=tenant,
                    inflight_bytes=self._inflight_bytes,
                    max_bytes=self.max_bytes,
                )
            # SFQ tags: start at max(virtual clock, flow's last finish).
            # The flow is (tenant, priority); the priority class scales
            # the tenant's weight, so interactive finish tags advance
            # 16x slower than batch ones within the same tenant.
            flow = entry.flow
            weight = max(
                1e-9,
                self._weight_for(tenant)
                * PRIORITY_WEIGHTS[entry.priority],
            )
            start = max(self._vclock, self._finish_tags.get(flow, 0.0))
            entry.start_tag = start
            entry.finish_tag = start + 1.0 / weight
            self._finish_tags[flow] = entry.finish_tag
            queue = self._pending.get(flow)
            if queue is None:
                queue = self._pending[flow] = deque()
            queue.append(entry)
            self._depth += 1
            self._inflight_bytes += entry.nbytes
            self.stats.bump(tenant, "admitted")
            self._not_empty.notify()

    # ------------------------------------------------------------------ #
    # Dequeue
    # ------------------------------------------------------------------ #

    def _rank_locked(self, entry: RequestEntry, now: float) -> float:
        """Dequeue rank: the finish tag, aged down by queue wait.

        Within a flow the finish tags are monotonic and the waits only
        grow, so the head always has its flow's best rank — ranking the
        heads is ranking the queue.
        """
        if self._aging <= 0:
            return entry.finish_tag
        return entry.finish_tag - self._aging * (now - entry.enqueued_at)

    def _pop_next_locked(self) -> Optional[RequestEntry]:
        """The SFQ pick: flow-head entry with the smallest aged rank."""
        best: Optional[RequestEntry] = None
        best_flow: Optional[Tuple[str, str]] = None
        best_rank = 0.0
        now = self._clock()
        for flow, queue in self._pending.items():
            if not queue:
                continue
            head = queue[0]
            rank = self._rank_locked(head, now)
            if best is None or rank < best_rank or (
                rank == best_rank and head.id < best.id
            ):
                best, best_flow, best_rank = head, flow, rank
        if best is None:
            return None
        self._pending[best_flow].popleft()
        self._vclock = max(self._vclock, best.start_tag)
        return best

    def _finalize_expired_locked(self, entry: RequestEntry) -> None:
        entry.state = DONE
        entry.error = DeadlineExceeded(
            "deadline expired while queued (request never started)",
            tenant=entry.tenant,
            deadline=entry.deadline,
            stage="queued",
        )
        self._depth -= 1
        self._inflight_bytes -= entry.nbytes
        self.stats.bump(entry.tenant, "deadline_expired")
        entry.done.set()
        self._idle.notify_all()

    def take(self, timeout: Optional[float] = None) -> Optional[RequestEntry]:
        """Next runnable entry (marked RUNNING), or ``None`` on timeout.

        Expired queued entries are finalized with ``DeadlineExceeded``
        on the way — they never run, and their budget is released here.
        """
        deadline = (
            self._clock() + timeout if timeout is not None else None
        )
        with self._lock:
            while True:
                entry = self._pop_next_locked()
                if entry is not None:
                    if entry.state != QUEUED:
                        # Cancelled entries are removed eagerly; this is
                        # belt-and-braces against a lost race.
                        continue
                    if entry.expired(self._clock()):
                        self._finalize_expired_locked(entry)
                        continue
                    entry.state = RUNNING
                    entry.queue_wait = self._clock() - entry.enqueued_at
                    self._depth -= 1
                    self._running += 1
                    self.stats.record_wait(
                        entry.tenant, entry.queue_wait,
                        priority=entry.priority,
                    )
                    return entry
                if deadline is not None:
                    remaining = deadline - self._clock()
                    if remaining <= 0:
                        return None
                    self._not_empty.wait(remaining)
                else:
                    self._not_empty.wait()

    def collect_batch(
        self, entry: RequestEntry, limit: int
    ) -> List[RequestEntry]:
        """``entry`` plus up to ``limit - 1`` queued entries sharing its
        ``batch_key`` *and priority class*, all marked RUNNING — the
        cross-request batching hook.  Coalescing across priorities
        would let batch backlog ride along in (and inflate) an
        interactive group, defeating the class separation, so only
        same-priority entries join.  Entries keep their submission
        order; expired ones are finalized instead of joining."""
        group = [entry]
        if entry.batch_key is None or limit <= 1:
            return group
        with self._lock:
            for flow, queue in self._pending.items():
                if len(group) >= limit:
                    break
                if flow[1] != entry.priority:
                    continue
                kept: Deque[RequestEntry] = deque()
                while queue and len(group) < limit:
                    candidate = queue.popleft()
                    if candidate.state != QUEUED:
                        continue
                    if candidate.batch_key != entry.batch_key:
                        kept.append(candidate)
                        continue
                    if candidate.expired(self._clock()):
                        self._finalize_expired_locked(candidate)
                        continue
                    candidate.state = RUNNING
                    candidate.queue_wait = (
                        self._clock() - candidate.enqueued_at
                    )
                    self._depth -= 1
                    self._running += 1
                    self._vclock = max(self._vclock, candidate.start_tag)
                    self.stats.record_wait(
                        candidate.tenant, candidate.queue_wait,
                        priority=candidate.priority,
                    )
                    group.append(candidate)
                kept.extend(queue)
                queue.clear()
                queue.extend(kept)
        group.sort(key=lambda e: e.id)
        return group

    # ------------------------------------------------------------------ #
    # Completion / cancellation
    # ------------------------------------------------------------------ #

    def finish_queued(self, entry: RequestEntry, result: Any) -> bool:
        """Complete a still-QUEUED entry in place (the result-cache hit
        path): remove it from its flow, release its budget, and count
        it completed — the request is answered without ever running.

        Returns ``False`` when the entry is no longer QUEUED (a worker
        raced us and took it); the caller then falls back to waiting
        for the normal completion path.
        """
        with self._lock:
            if entry.state != QUEUED:
                return False
            queue = self._pending.get(entry.flow)
            if queue is None:
                return False
            try:
                queue.remove(entry)
            except ValueError:  # pragma: no cover - lost race
                return False
            entry.state = DONE
            entry.result = result
            entry.queue_wait = self._clock() - entry.enqueued_at
            self._depth -= 1
            self._inflight_bytes -= entry.nbytes
            self.stats.bump(entry.tenant, "completed")
            self.stats.record_wait(
                entry.tenant, entry.queue_wait, priority=entry.priority
            )
            entry.done.set()
            self._idle.notify_all()
            return True

    def finish(self, entry: RequestEntry, result: Any) -> None:
        """Mark a RUNNING entry done with ``result``; release its budget."""
        with self._lock:
            if entry.state != RUNNING:
                return
            entry.state = DONE
            entry.result = result
            self._running -= 1
            self._inflight_bytes -= entry.nbytes
            if not entry.abandoned:
                self.stats.bump(entry.tenant, "completed")
                if entry.batched_with > 1:
                    self.stats.bump(entry.tenant, "batched")
            entry.done.set()
            self._idle.notify_all()

    def fail(self, entry: RequestEntry, error: BaseException) -> None:
        """Mark a RUNNING entry failed; release its budget."""
        with self._lock:
            if entry.state != RUNNING:
                return
            entry.state = DONE
            entry.error = error
            self._running -= 1
            self._inflight_bytes -= entry.nbytes
            if not entry.abandoned:
                if isinstance(error, DeadlineExceeded):
                    self.stats.bump(entry.tenant, "deadline_expired")
                else:
                    self.stats.bump(entry.tenant, "failed")
            entry.done.set()
            self._idle.notify_all()

    def cancel(self, entry: RequestEntry, reason: str = "disconnect") -> None:
        """Client gave up (disconnect or client-side deadline).

        A QUEUED entry is removed and its budget released immediately
        (the no-leak guarantee); a RUNNING entry is flagged abandoned —
        its executor finishes and releases the budget, but the result is
        discarded and not counted as completed.
        """
        with self._lock:
            if entry.state == QUEUED:
                queue = self._pending.get(entry.flow)
                if queue is not None:
                    try:
                        queue.remove(entry)
                    except ValueError:  # pragma: no cover - lost race
                        pass
                entry.state = CANCELLED
                self._depth -= 1
                self._inflight_bytes -= entry.nbytes
                if reason == "deadline":
                    self.stats.bump(entry.tenant, "deadline_expired")
                else:
                    self.stats.bump(entry.tenant, "cancelled")
                entry.done.set()
                self._idle.notify_all()
            elif entry.state == RUNNING and not entry.abandoned:
                entry.abandoned = True
                if reason == "deadline":
                    self.stats.bump(entry.tenant, "deadline_expired")
                else:
                    self.stats.bump(entry.tenant, "cancelled")

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def drain(self) -> None:
        """Refuse new admissions; queued/running work keeps going."""
        with self._lock:
            self._draining = True
            self._not_empty.notify_all()

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no queued or running entries remain."""
        deadline = (
            self._clock() + timeout if timeout is not None else None
        )
        with self._lock:
            while self._depth > 0 or self._running > 0:
                if deadline is not None:
                    remaining = deadline - self._clock()
                    if remaining <= 0:
                        return False
                    self._idle.wait(remaining)
                else:
                    self._idle.wait()
            return True
