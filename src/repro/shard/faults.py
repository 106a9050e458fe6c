"""Deterministic fault injection for shard dispatches (DESIGN.md §11).

Chaos testing is only trustworthy when every failure is a *fixture*: a
seeded, replayable event that fires at the same place in every run.  A
:class:`FaultPlan` is a pure function ``(seed, task_key, attempt) ->
fault kind`` — no global state, no wall clock, no randomness at decision
time — so a chaos test that fails can be re-run under the identical
fault schedule, and the chaos gate (``tests/test_chaos.py``,
``benchmarks/bench_chaos.py``) can assert bit-identical ``w*`` / labels
against the fault-free run.

Five failure modes, each surfacing in the pool worker as the failed
shard its real counterpart would produce:

==========  =========================================================
``crash``   the task raises :class:`FaultInjected` before computing,
            surfacing as a failed shard
``hang``    the task stalls for ``hang_seconds`` — the per-attempt
            deadline must fire, not the caller's patience
``slow``    the task sleeps ``slow_seconds`` and then answers
            *correctly* — exercises deadline headroom, never a failure
``corrupt`` the task computes, then raises :class:`FaultInjected` (a
            detected corruption of its result)
``drop``    the task raises :class:`FaultInjected` before computing,
            like a reply that never arrived
==========  =========================================================

Injected faults never kill a pool process.  A pool process that really
dies surfaces as ``BrokenProcessPool`` and is retried the same way, on a
freshly forked pool; ``tests/test_resilience.py`` kills real processes
to cover that path.

Faults only fire while ``attempt < max_faulted_attempts`` (default 1), so
a retried task always has a fault-free path to success — which is what
lets the chaos suite demand *completion* with exact results, not merely
survival.  Raising ``max_faulted_attempts`` past the retry budget turns
the same plan into an exhausted-retries stressor.
"""

from __future__ import annotations

import hashlib
import struct
import time
from dataclasses import dataclass, fields
from typing import Any, Optional, Tuple

from repro.utils.errors import ValidationError

#: the recognized fault kinds, in cumulative-probability order.
FAULT_KINDS: Tuple[str, ...] = ("crash", "hang", "slow", "corrupt", "drop")


class FaultInjected(Exception):
    """Raised by an injected fault (never by real library code).

    The resilience layer treats it as an *infrastructure* failure —
    retryable — unlike ordinary task exceptions, which are deterministic
    caller bugs and fail fast.  ``kind`` names the fault; ``task_key`` identifies the
    seeded decision that fired, so failures are traceable to the plan.
    """

    def __init__(self, kind: str, task_key: int) -> None:
        super().__init__(f"injected {kind} fault (task_key={task_key})")
        self.kind = kind
        self.task_key = task_key

    def __reduce__(self):  # exceptions cross process boundaries pickled
        return (type(self), (self.kind, self.task_key))


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, replayable schedule of injected faults.

    ``crash_rate`` .. ``drop_rate`` are independent per-task
    probabilities; their sum must be <= 1 (the remainder is the healthy
    path).  ``decide`` draws one uniform variate per ``(task_key,
    attempt)`` from a keyed BLAKE2b hash, so the schedule is a pure
    function of the plan — identical across processes and runs.
    """

    seed: int = 0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    slow_rate: float = 0.0
    corrupt_rate: float = 0.0
    drop_rate: float = 0.0
    #: how long a ``hang`` stalls; must exceed the dispatch deadline for
    #: the hang to be observable as a timeout.
    hang_seconds: float = 30.0
    #: how long a ``slow`` task sleeps before answering correctly.
    slow_seconds: float = 0.05
    #: attempts with index below this may be faulted; later attempts run
    #: clean, guaranteeing eventual success under retry.
    max_faulted_attempts: int = 1

    def __post_init__(self) -> None:
        for name in ("crash_rate", "hang_rate", "slow_rate",
                     "corrupt_rate", "drop_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValidationError(
                    f"{name} must be in [0, 1], got {rate}"
                )
        if self.total_rate > 1.0 + 1e-12:
            raise ValidationError(
                f"fault rates sum to {self.total_rate}, must be <= 1"
            )
        if self.hang_seconds < 0 or self.slow_seconds < 0:
            raise ValidationError("fault durations must be >= 0")
        if self.max_faulted_attempts < 0:
            raise ValidationError("max_faulted_attempts must be >= 0")

    @property
    def total_rate(self) -> float:
        return (
            self.crash_rate + self.hang_rate + self.slow_rate
            + self.corrupt_rate + self.drop_rate
        )

    def _uniform(self, task_key: int, attempt: int) -> float:
        payload = struct.pack(">qqq", self.seed, task_key, attempt)
        digest = hashlib.blake2b(
            payload, digest_size=8, key=b"repro-faults"
        ).digest()
        return struct.unpack(">Q", digest)[0] / float(1 << 64)

    def decide(self, task_key: int, attempt: int) -> Optional[str]:
        """The fault (or ``None``) for one task attempt — pure, seeded."""
        if attempt >= self.max_faulted_attempts:
            return None
        draw = self._uniform(int(task_key), int(attempt))
        edge = 0.0
        for kind in FAULT_KINDS:
            edge += getattr(self, f"{kind}_rate")
            if draw < edge:
                return kind
        return None

    def describe(self) -> str:
        """One-line digest for logs and benchmark output."""
        rates = ", ".join(
            f"{kind}={getattr(self, kind + '_rate'):.0%}"
            for kind in FAULT_KINDS
            if getattr(self, f"{kind}_rate") > 0
        )
        return f"FaultPlan(seed={self.seed}, {rates or 'no faults'})"


@dataclass(frozen=True)
class FaultedTask:
    """Picklable wrapper executing ``func`` under a :class:`FaultPlan`.

    The resilience layer wraps each dispatched item as ``(task_key,
    attempt, item)`` and the task function as ``FaultedTask(func,
    plan)``; every pool process then makes the *same* seeded decision
    for the same task.  ``slow`` and ``hang`` sleep here; ``crash`` /
    ``corrupt`` / ``drop`` raise :class:`FaultInjected`, which the
    dispatch returns as a retryable failed shard.
    """

    func: Any
    plan: FaultPlan

    def __call__(self, wrapped_item, common):
        task_key, attempt, item = wrapped_item
        kind = self.plan.decide(task_key, attempt)
        if kind == "crash":
            raise FaultInjected("crash", task_key)
        if kind == "drop":
            raise FaultInjected("drop", task_key)
        if kind == "hang":
            time.sleep(self.plan.hang_seconds)
        elif kind == "slow":
            time.sleep(self.plan.slow_seconds)
        result = self.func(item, common)
        if kind == "corrupt":
            raise FaultInjected("corrupt", task_key)
        return result


def plan_from_dict(payload: Optional[dict]) -> Optional[FaultPlan]:
    """Rebuild a :class:`FaultPlan` from its dict form (CLI/bench JSON)."""
    if payload is None:
        return None
    known = {f.name for f in fields(FaultPlan)}
    unknown = set(payload) - known
    if unknown:
        raise ValidationError(
            f"unknown FaultPlan fields: {sorted(unknown)}"
        )
    return FaultPlan(**payload)
