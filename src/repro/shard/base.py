"""Core types of the process-sharded execution subsystem (DESIGN.md §10).

Every dispatch answers one question: *given a picklable task function
and a planned partition of its work items, run every item and hand back
the results in global item order.*  :func:`run_shard_items` is the unit
of work — the in-process serial path calls it directly and the process
pool ships it to its workers — and :class:`ShardStats` counts the
dispatches, observable end to end (the CLI prints it next to the solver
and neighbor stats lines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.utils.counters import Counters

#: a task function: ``(item, common) -> result``; must be module-level
#: (picklable by reference) so the process pool can ship it.
TaskFunc = Callable[[Any, Optional[dict]], Any]


@dataclass
class ShardStats(Counters):
    """Counters accumulated across the dispatches of one shard context.

    The headline split is ``dispatches`` (multi-process fan-outs) vs
    ``serial_dispatches`` (graceful in-process fallbacks: the context was
    inactive, the item count was below ``min_items``, or the payload was
    too small to amortize process overhead).  ``bytes_shared`` counts the
    zero-copy shared-memory traffic, which is the quantity the subsystem
    saves relative to pickling every payload through the pool's pipes.
    """

    dispatches: int = 0
    serial_dispatches: int = 0
    tasks: int = 0
    shards_used: int = 0
    segments: int = 0
    bytes_shared: int = 0
    failures: int = 0
    #: resilience counters (DESIGN.md §11): retry attempts after a
    #: failure, and items re-planned onto a re-forked pool.
    retries: int = 0
    redispatches: int = 0

    def summary(self) -> str:
        """One-line human-readable digest (used by the CLI)."""
        mb = self.bytes_shared / (1024.0 * 1024.0)
        extras = []
        if self.failures:
            extras.append(f"{self.failures} failed")
        if self.retries:
            extras.append(
                f"{self.retries} retries/{self.redispatches} redispatched"
            )
        tail = (", " + ", ".join(extras)) if extras else ""
        return (
            f"{self.dispatches} sharded + {self.serial_dispatches} serial "
            f"dispatches ({self.tasks} tasks over {self.shards_used} "
            f"shards; {mb:.1f} MB shared in {self.segments} segments"
            f"{tail})"
        )


def run_shard_items(
    func: TaskFunc, items: List[Any], common: Optional[dict]
) -> List[Any]:
    """Run one shard's item list in order (the unit every path shares).

    This is the function the process pool ships to workers and the
    serial path calls in-process, so the two paths execute *identical*
    code on identical payloads — the root of the bit-identity guarantee.
    """
    return [func(item, common) for item in items]
