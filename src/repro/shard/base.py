"""Core types of the process-sharded execution subsystem (DESIGN.md §10).

A shard backend answers one question: *given a picklable task function
and a planned partition of its work items, run every item and hand back
the results in global item order.*  Everything around that answer —
payload preparation, shared-memory transfer, stats merging, result
reassembly — is shared by :class:`repro.shard.context.ShardContext`, so
backends only implement dispatch.

The design mirrors ``repro.solvers`` and ``repro.neighbors``: a
string-keyed registry (:func:`register_backend` below), a shared
execution context threaded through call sites, and a
:class:`ShardStats` counter object observable end to end (the CLI
prints it next to the solver and neighbor stats lines).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.shard.plan import ShardPlan
from repro.utils.counters import Counters
from repro.utils.registry import Registry

#: a task function: ``(item, common) -> result``; must be module-level
#: (picklable by reference) so the process backend can ship it.
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
    #: failure, items re-planned onto other workers, ladder degradations,
    #: and workers placed in quarantine.
    retries: int = 0
    redispatches: int = 0
    degradations: int = 0
    workers_quarantined: int = 0

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
        if self.degradations:
            extras.append(f"{self.degradations} degraded")
        if self.workers_quarantined:
            extras.append(f"{self.workers_quarantined} quarantined")
        tail = (", " + ", ".join(extras)) if extras else ""
        return (
            f"{self.dispatches} sharded + {self.serial_dispatches} serial "
            f"dispatches ({self.tasks} tasks over {self.shards_used} "
            f"shards; {mb:.1f} MB shared in {self.segments} segments"
            f"{tail})"
        )


class ShardBackend(ABC):
    """A dispatch strategy, registered by its ``name`` key.

    Backends must be stateless with respect to individual dispatches —
    per-run state (the persistent process pool, shared-memory segment
    handles, statistics) lives on the
    :class:`~repro.shard.context.ShardContext` passed into :meth:`run`.
    """

    name: str = ""

    @abstractmethod
    def run(
        self,
        func: TaskFunc,
        items: List[Any],
        common: Optional[dict],
        plan: ShardPlan,
        context,
    ) -> List[Any]:
        """Execute ``func`` over every item; results in global item order."""

    def capacity(self, context) -> int:
        """How many shards one dispatch can usefully run in parallel.

        The resilience layer sizes each attempt's :class:`ShardPlan`
        from this (the remote backend reports its healthy worker count,
        which shrinks under quarantine).
        """
        return max(1, int(context.workers))

    def try_run(
        self,
        func: TaskFunc,
        indexed_items: List[Any],
        common: Optional[dict],
        plan: ShardPlan,
        context,
        deadline: Optional[float] = None,
        attempt: int = 1,
    ):
        """Partial-failure dispatch: the resilience layer's entry point.

        ``indexed_items`` is a list of ``(global_index, item)`` pairs.
        Returns ``(results, failures)`` where ``results`` maps global
        index -> result for every item that completed and ``failures``
        is a list of :class:`~repro.shard.resilience.ShardFailure` for
        retryable (infrastructure) losses.  Non-retryable task errors
        are *raised* — with their original type for clean library
        errors, as :class:`~repro.utils.errors.ShardError` for poison —
        exactly matching :meth:`run`'s failure semantics.

        The default implementation is all-or-nothing around :meth:`run`
        (injected faults become one retryable failure covering every
        item); ``process`` and ``remote`` override it with per-shard /
        per-worker granularity.
        """
        from repro.shard.faults import FaultInjected
        from repro.shard.resilience import ShardFailure

        indices = [index for index, _ in indexed_items]
        items = [item for _, item in indexed_items]
        try:
            out = self.run(func, items, common, plan, context)
        except FaultInjected as error:
            return {}, [ShardFailure(indices=indices, error=error)]
        return dict(zip(indices, out)), []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


#: the dispatch strategies (``"process"``, ``"serial"``, ``"remote"``);
#: adding an MPI bridge or an accelerator-host dispatcher is one
#: :func:`register_backend` call, no call-site changes.
_BACKENDS: Registry[ShardBackend] = Registry("shard backend")
register_backend = _BACKENDS.register
unregister_backend = _BACKENDS.unregister
get_backend = _BACKENDS.get
available_backends = _BACKENDS.available


def run_shard_items(
    func: TaskFunc, items: List[Any], common: Optional[dict]
) -> List[Any]:
    """Run one shard's item list in order (the unit both backends share).

    This is the function the process backend ships to workers and the
    serial backend calls in-process, so the two paths execute *identical*
    code on identical payloads — the root of the bit-identity guarantee.
    """
    return [func(item, common) for item in items]
