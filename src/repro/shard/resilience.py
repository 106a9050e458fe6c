"""The resilience layer: retries, re-dispatch, quarantine, degradation.

DESIGN.md §11.  The :class:`FailureDirector` sits between
:class:`~repro.shard.context.ShardContext` and the shard backends and
treats worker failure as a normal event, with a fixed state machine:

1. **retry** — a failed or timed-out shard is retried with exponential
   backoff and deterministic seeded jitter, each attempt under a *fresh*
   monotonic deadline (a slow first attempt cannot starve its retry);
2. **re-dispatch** — only the still-pending items are re-planned, onto
   the remaining healthy workers (remote) or a freshly forked pool
   (process);
3. **quarantine** — a worker that keeps failing is quarantined for a
   cooldown and re-admitted afterwards (remote fleets shrink and heal
   instead of thrashing on one bad host);
4. **degrade** — when a rung of the ladder ``remote -> process ->
   serial`` is exhausted, execution falls to the next rung with a loud
   :class:`~repro.utils.errors.ShardDegradation` warning instead of a
   crash.  Degradation is sticky for the context's lifetime — a dead
   fleet is not re-probed on every dispatch.

Correctness under all of this is free by construction: task results are
keyed by their global item position (:class:`~repro.shard.plan.
ShardPlan` reassembly), every rung runs identical task code on identical
payloads, and retries only ever *re-run* deterministic tasks — so ``w*``
and labels cannot depend on which failures happened.

Failure taxonomy: **infrastructure** failures (timeout, worker death,
transport errors, injected faults) are retryable; **task** failures (the
task function raised a real exception) are deterministic caller bugs and
fail fast with the original error, exactly like the in-process path.
"""

from __future__ import annotations

import hashlib
import struct
import time
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.shard.faults import FaultedTask, FaultPlan
from repro.shard.plan import ShardPlan
from repro.shard.base import get_backend
from repro.utils.errors import ShardDegradation, ShardError, ValidationError

#: the degradation ladder, topmost rung first.
LADDER: Tuple[str, ...] = ("remote", "process", "serial")


@dataclass(frozen=True)
class RetryPolicy:
    """Per-dispatch retry schedule: attempts, backoff, per-attempt deadline.

    ``max_attempts`` counts attempts *per ladder rung* (1 = no retries).
    Backoff between attempts is ``base_delay * backoff_factor**attempt``
    capped at ``max_delay``, plus deterministic jitter in ``[0, jitter *
    delay]`` drawn from a keyed hash of ``(seed, dispatch, attempt)`` —
    seeded so reruns are bit-reproducible, jittered so a fleet of
    dispatchers does not retry in lockstep.  ``deadline`` is the
    per-attempt budget in seconds, measured on the monotonic clock from
    the moment the attempt is submitted (``None`` waits indefinitely).
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    backoff_factor: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValidationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValidationError("retry delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValidationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValidationError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValidationError(
                f"deadline must be positive, got {self.deadline}"
            )

    def delay(self, attempt: int, key: int = 0) -> float:
        """Backoff before retry number ``attempt`` (0-based), jittered."""
        base = min(
            self.max_delay, self.base_delay * self.backoff_factor ** attempt
        )
        if self.jitter == 0.0 or base == 0.0:
            return base
        payload = struct.pack(">qqq", self.seed, key, attempt)
        digest = hashlib.blake2b(
            payload, digest_size=8, key=b"repro-retry"
        ).digest()
        fraction = struct.unpack(">Q", digest)[0] / float(1 << 64)
        return base * (1.0 + self.jitter * fraction)


@dataclass
class ShardFailure:
    """One retryable unit failure reported by a backend's ``try_run``.

    ``indices`` are the *global* item indices of the failed unit (one
    shard, or one worker's request).  ``worker`` attributes the failure
    for quarantine accounting (``None`` for anonymous pool workers).
    """

    indices: List[int]
    error: BaseException
    shard_index: Optional[int] = None
    worker: Optional[str] = None


@dataclass
class _WorkerHealth:
    consecutive_failures: int = 0
    quarantined_until: float = 0.0


class FailureDirector:
    """Per-context orchestration of retry / re-dispatch / quarantine /
    degrade.  One director lives on each :class:`ShardContext`; all its
    state (worker health, the sticky ladder position, the dispatch
    sequence number used for fault keys) is per-run, like the pool.
    """

    def __init__(
        self,
        policy: RetryPolicy,
        fault_plan: Optional[FaultPlan] = None,
        quarantine_after: int = 2,
        quarantine_cooldown: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if quarantine_after < 1:
            raise ValidationError(
                f"quarantine_after must be >= 1, got {quarantine_after}"
            )
        if quarantine_cooldown < 0:
            raise ValidationError("quarantine_cooldown must be >= 0")
        self.policy = policy
        self.fault_plan = fault_plan
        self.quarantine_after = quarantine_after
        self.quarantine_cooldown = quarantine_cooldown
        self._clock = clock
        self._health: Dict[str, _WorkerHealth] = {}
        self._rung = 0  # sticky ladder position (index into the ladder)
        self._dispatch_seq = 0

    # ------------------------------------------------------------------ #
    # Worker health / quarantine
    # ------------------------------------------------------------------ #

    def record_failure(self, worker: Optional[str], stats=None) -> None:
        """Note one failure; quarantine after ``quarantine_after`` in a row."""
        if worker is None:
            return
        health = self._health.setdefault(worker, _WorkerHealth())
        health.consecutive_failures += 1
        if (
            health.consecutive_failures >= self.quarantine_after
            and not self.is_quarantined(worker)
        ):
            health.quarantined_until = (
                self._clock() + self.quarantine_cooldown
            )
            if stats is not None:
                stats.workers_quarantined += 1

    def record_success(self, worker: Optional[str]) -> None:
        if worker is None:
            return
        health = self._health.setdefault(worker, _WorkerHealth())
        health.consecutive_failures = 0
        health.quarantined_until = 0.0

    def is_quarantined(self, worker: str) -> bool:
        health = self._health.get(worker)
        if health is None:
            return False
        if health.quarantined_until and self._clock() >= health.quarantined_until:
            # Cooldown elapsed: re-admit with a clean slate (one more
            # failure re-quarantines immediately at quarantine_after=1
            # semantics would thrash; resetting the streak gives the
            # re-admitted worker a real second chance).
            health.quarantined_until = 0.0
            health.consecutive_failures = 0
            return False
        return bool(health.quarantined_until)

    def healthy_workers(self, workers: Sequence[str]) -> List[str]:
        """Filter ``workers`` down to the non-quarantined ones."""
        return [w for w in workers if not self.is_quarantined(w)]

    # ------------------------------------------------------------------ #
    # Ladder
    # ------------------------------------------------------------------ #

    def ladder_for(self, backend: str) -> Tuple[str, ...]:
        """The degradation ladder starting at ``backend``.

        Only ``remote`` has rungs below it; ``process`` and ``serial``
        (and any plugin backend) fail fast after their retries, because
        silently re-running arbitrary workloads in-process is the wrong
        default for a single-host dispatch failure.
        """
        if backend == LADDER[0]:
            return LADDER
        return (backend,)

    def effective_backend(self, backend: str) -> str:
        """Where dispatches currently start, given sticky degradation."""
        ladder = self.ladder_for(backend)
        return ladder[min(self._rung, len(ladder) - 1)]

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #

    def execute(
        self,
        context,
        func,
        items: List[Any],
        common: Optional[dict],
        costs: Optional[Sequence[float]] = None,
    ) -> List[Any]:
        """Run ``func`` over ``items`` with the full resilience machine.

        Returns results in global item order.  Raises the original error
        for non-retryable task failures, and a structured
        :class:`ShardError` when every rung of the ladder is exhausted.
        """
        ladder = self.ladder_for(context.backend)
        self._dispatch_seq += 1
        seq = self._dispatch_seq
        started = self._clock()
        results: Dict[int, Any] = {}
        pending: Dict[int, Any] = dict(enumerate(items))
        attempts: Dict[int, int] = {index: 0 for index in pending}
        counted_shards = False
        last_failure: Optional[ShardFailure] = None
        total_attempts = 0

        rung = min(self._rung, len(ladder) - 1)
        while rung < len(ladder):
            backend_name = ladder[rung]
            backend = get_backend(backend_name)
            deadline = (
                self.policy.deadline
                if self.policy.deadline is not None
                else context.timeout
            )
            for attempt in range(self.policy.max_attempts):
                if not pending:
                    break
                indices = sorted(pending)
                plan = ShardPlan.build(
                    len(indices),
                    max(1, backend.capacity(context)),
                    costs=(
                        [costs[i] for i in indices]
                        if costs is not None
                        else None
                    ),
                )
                if not counted_shards:
                    context.stats.shards_used += plan.n_shards
                    counted_shards = True
                run_func, run_items = self._wrap(
                    func, seq, indices, pending, attempts
                )
                total_attempts += 1
                got, failures = backend.try_run(
                    run_func,
                    list(zip(indices, run_items)),
                    common,
                    plan,
                    context,
                    deadline=deadline,
                    attempt=total_attempts,
                )
                for index, value in got.items():
                    results[index] = value
                    pending.pop(index, None)
                failed_workers = set()
                for failure in failures:
                    last_failure = failure
                    for index in failure.indices:
                        attempts[index] += 1
                    failed_workers.add(failure.worker)
                for worker in failed_workers:
                    self.record_failure(worker, stats=context.stats)
                if pending and attempt + 1 < self.policy.max_attempts:
                    context.stats.retries += 1
                    context.stats.redispatches += len(pending)
                    time.sleep(self.policy.delay(attempt, key=seq))
            if not pending:
                break
            # Rung exhausted.  Degrade if there is a rung below; the
            # degradation is sticky so later dispatches skip the dead
            # rung without re-probing it.
            if rung + 1 < len(ladder):
                context.stats.degradations += 1
                self._rung = rung + 1
                last_error = last_failure.error if last_failure else "unknown"
                warnings.warn(
                    f"shard backend {backend_name!r} exhausted "
                    f"{self.policy.max_attempts} attempts on "
                    f"{len(pending)} item(s) (last error: {last_error}); "
                    f"degrading to {ladder[rung + 1]!r} for the rest of "
                    f"this run",
                    ShardDegradation,
                    stacklevel=3,
                )
                rung += 1
                continue
            context.stats.failures += 1
            last_error = last_failure.error if last_failure else None
            raise ShardError(
                f"shard dispatch failed on every ladder rung "
                f"{ladder} after {total_attempts} attempt(s); "
                f"last error: {last_error}",
                backend=backend_name,
                shard_index=(
                    last_failure.shard_index if last_failure else None
                ),
                worker=last_failure.worker if last_failure else None,
                attempts=total_attempts,
                elapsed=self._clock() - started,
            ) from (last_error if last_error is not None else None)
        return [results[index] for index in range(len(items))]

    def _wrap(
        self,
        func,
        seq: int,
        indices: List[int],
        pending: Dict[int, Any],
        attempts: Dict[int, int],
    ):
        """Fault-wrap the task when a plan is armed; pass through otherwise."""
        if self.fault_plan is None:
            return func, [pending[index] for index in indices]
        wrapped = [
            (seq * 1_000_003 + index, attempts[index], pending[index])
            for index in indices
        ]
        return FaultedTask(func, self.fault_plan), wrapped
