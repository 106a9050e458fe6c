"""The resilience layer: retries and re-dispatch (DESIGN.md §11).

The :class:`FailureDirector` sits between
:class:`~repro.shard.context.ShardContext` and the process pool and
treats worker failure as a normal event:

1. **retry** — a failed or timed-out shard is retried with exponential
   backoff and deterministic seeded jitter, each attempt under a *fresh*
   monotonic deadline (a slow first attempt cannot starve its retry);
2. **re-dispatch** — only the still-pending items are re-planned, onto
   a freshly forked pool when the old one died or hung;
3. **fault wrapping** — with a :class:`~repro.shard.faults.FaultPlan`
   armed, every task runs under its seeded fault decision.

When the retries are exhausted the dispatch fails with one structured
:class:`~repro.utils.errors.ShardError`.

Correctness under all of this is free by construction: task results are
keyed by their global item position (:class:`~repro.shard.plan.
ShardPlan` reassembly), every attempt runs identical task code on
identical payloads, and retries only ever *re-run* deterministic tasks
— so ``w*`` and labels cannot depend on which failures happened.

Failure taxonomy: **infrastructure** failures (timeout, worker death,
injected faults) are retryable; **task** failures (the task function
raised a real exception) are deterministic caller bugs and fail fast
with the original error, exactly like the in-process path.
"""

from __future__ import annotations

import hashlib
import struct
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.shard.backends import BACKEND, run_pool_attempt
from repro.shard.faults import FaultedTask, FaultPlan
from repro.shard.plan import ShardPlan
from repro.utils.errors import ShardError, ValidationError


@dataclass(frozen=True)
class RetryPolicy:
    """Per-dispatch retry schedule: attempts and backoff.

    ``max_attempts`` counts attempts per dispatch (1 = no retries).
    Backoff between attempts is ``base_delay * backoff_factor**attempt``
    capped at ``max_delay``, plus deterministic jitter in ``[0, jitter *
    delay]`` drawn from a keyed hash of ``(seed, dispatch, attempt)`` —
    seeded so reruns are bit-reproducible, jittered so a fleet of
    dispatchers does not retry in lockstep.  The per-attempt deadline
    is the context's ``timeout``, read at each dispatch.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    backoff_factor: float = 2.0
    jitter: float = 0.5
    seed: int = 0

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
    """One retryable shard failure reported by :func:`~repro.shard.
    backends.run_pool_attempt`.

    ``indices`` are the *global* item indices of the failed shard (or of
    the whole attempt, when the pool broke before submit).
    """

    indices: List[int]
    error: BaseException
    shard_index: Optional[int] = None


class FailureDirector:
    """Per-context orchestration of retry and re-dispatch.  One director
    lives on each :class:`ShardContext`; its state (the dispatch
    sequence number used for fault keys) is per-run, like the pool.
    """

    def __init__(
        self, policy: RetryPolicy, fault_plan: Optional[FaultPlan] = None
    ) -> None:
        self.policy = policy
        self.fault_plan = fault_plan
        self._dispatch_seq = 0

    def execute(
        self,
        context,
        func,
        items: List[Any],
        common: Optional[dict],
        costs: Optional[Sequence[float]] = None,
    ) -> List[Any]:
        """Run ``func`` over ``items`` on the pool, with retries.

        Returns results in global item order.  Raises the original error
        for non-retryable task failures, and a structured
        :class:`ShardError` once every attempt has failed.
        """
        self._dispatch_seq += 1
        seq = self._dispatch_seq
        started = time.monotonic()
        results: Dict[int, Any] = {}
        pending: Dict[int, Any] = dict(enumerate(items))
        attempts: Dict[int, int] = {index: 0 for index in pending}
        last_failure: Optional[ShardFailure] = None
        for attempt in range(self.policy.max_attempts):
            indices = sorted(pending)
            plan = ShardPlan.build(
                len(indices),
                max(1, int(context.workers)),
                costs=(
                    [costs[i] for i in indices]
                    if costs is not None
                    else None
                ),
            )
            if attempt == 0:
                context.stats.shards_used += plan.n_shards
            run_func, run_items = self._wrap(
                func, seq, indices, pending, attempts
            )
            got, failures = run_pool_attempt(
                run_func,
                list(zip(indices, run_items)),
                common,
                plan,
                context,
                deadline=context.timeout,
                attempt=attempt + 1,
            )
            for index, value in got.items():
                results[index] = value
                pending.pop(index, None)
            for failure in failures:
                last_failure = failure
                for index in failure.indices:
                    attempts[index] += 1
            if not pending:
                return [results[index] for index in range(len(items))]
            if attempt + 1 < self.policy.max_attempts:
                context.stats.retries += 1
                context.stats.redispatches += len(pending)
                time.sleep(self.policy.delay(attempt, key=seq))
        context.stats.failures += 1
        last_error = last_failure.error if last_failure else None
        raise ShardError(
            f"shard dispatch failed after {self.policy.max_attempts} "
            f"attempt(s); last error: {last_error}",
            backend=BACKEND,
            shard_index=(
                last_failure.shard_index if last_failure else None
            ),
            attempts=self.policy.max_attempts,
            elapsed=time.monotonic() - started,
        ) from last_error

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
