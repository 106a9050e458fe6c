"""The built-in single-host shard backends: ``serial`` and ``process``.

``serial`` executes the shard plan in-process, shard by shard, in shard
order.  ``process`` fans the shards out over the context's persistent
``ProcessPoolExecutor``.  Both call the *same*
:func:`repro.shard.base.run_shard_items` on the same payloads and both
reassemble results in global item order, so their numerical output is
bitwise identical — ``serial`` is simultaneously the debugging backend,
the graceful fallback, the bottom rung of the resilience ladder, and
the reference the other backends' determinism is tested against.  (The
distributed ``remote`` backend lives in :mod:`repro.shard.remote`.)

Failure semantics (tested in ``tests/test_shard.py`` /
``tests/test_resilience.py``): **task** failures — the task function
raised a real exception — are deterministic caller bugs; a clean library
:class:`~repro.utils.errors.ReproError` propagates with its own type and
leaves the pool healthy, anything else is rebranded as one structured
:class:`~repro.utils.errors.ShardError` and tears the pool down.
**Infrastructure** failures — a worker killed mid-task
(``BrokenProcessPool``), a shard exceeding the per-attempt deadline, an
injected :class:`~repro.shard.faults.FaultInjected` — are *returned* to
the resilience layer as retryable :class:`~repro.shard.resilience.
ShardFailure`\\ s (per shard, with the completed shards' results kept),
never a hang: the deadline is monotonic per attempt and a dirty pool is
killed, not joined, so neither the dispatch nor interpreter shutdown can
block on a hung worker.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Optional

from repro.shard.base import (
    ShardBackend,
    TaskFunc,
    register_backend,
    run_shard_items,
)
from repro.shard.faults import FaultInjected
from repro.shard.plan import ShardPlan
from repro.utils.errors import ReproError, ShardError


def _reassemble(
    plan: ShardPlan, per_shard_results: List[List[Any]]
) -> List[Any]:
    """Scatter per-shard result lists back into global item order."""
    out: List[Any] = [None] * plan.n_items
    for indices, results in zip(plan.assignments(), per_shard_results):
        for index, result in zip(indices, results):
            out[index] = result
    return out


class SerialShardBackend(ShardBackend):
    """Execute the plan in-process (reference semantics, zero overhead)."""

    name = "serial"

    def capacity(self, context) -> int:
        return 1

    def run(
        self,
        func: TaskFunc,
        items: List[Any],
        common: Optional[dict],
        plan: ShardPlan,
        context,
    ) -> List[Any]:
        per_shard = [
            run_shard_items(func, [items[i] for i in indices], common)
            for indices in plan.assignments()
        ]
        return _reassemble(plan, per_shard)

    def try_run(
        self,
        func: TaskFunc,
        indexed_items,
        common: Optional[dict],
        plan: ShardPlan,
        context,
        deadline: Optional[float] = None,
        attempt: int = 1,
    ):
        """Item-granular serial execution.

        Injected faults fail only their own item (retryable); real task
        errors propagate with their original type, exactly like
        :meth:`run` — the serial rung never converts a caller bug into a
        dispatch failure.  The deadline is not enforceable in-process (a
        compute cannot be interrupted), which is why ``serial`` is the
        ladder's *last* rung, not a retry target for hung tasks.
        """
        from repro.shard.resilience import ShardFailure

        results: Dict[int, Any] = {}
        failures: List[ShardFailure] = []
        for index, item in indexed_items:
            try:
                results[index] = func(item, common)
            except FaultInjected as error:
                failures.append(
                    ShardFailure(indices=[index], error=error)
                )
        return results, failures


class ProcessShardBackend(ShardBackend):
    """Fan shards out over the context's persistent process pool."""

    name = "process"

    def run(
        self,
        func: TaskFunc,
        items: List[Any],
        common: Optional[dict],
        plan: ShardPlan,
        context,
    ) -> List[Any]:
        """All-or-nothing dispatch (legacy contract, no retries).

        Thin wrapper over :meth:`try_run`: any retryable loss is raised
        as one :class:`ShardError` after tearing the pool down.  The
        resilience layer calls :meth:`try_run` directly instead.
        """
        indexed = list(enumerate(items))
        results, failures = self.try_run(
            func, indexed, common, plan, context,
            deadline=context.timeout,
        )
        if failures:
            context.stats.failures += 1
            first = failures[0]
            raise ShardError(
                f"{len(failures)} shard(s) failed: {first.error}",
                backend=self.name,
                shard_index=first.shard_index,
            ) from first.error
        return [results[index] for index in range(len(items))]

    def try_run(
        self,
        func: TaskFunc,
        indexed_items,
        common: Optional[dict],
        plan: ShardPlan,
        context,
        deadline: Optional[float] = None,
        attempt: int = 1,
    ):
        from repro.shard.resilience import ShardFailure

        indices = [index for index, _ in indexed_items]
        items = [item for _, item in indexed_items]
        # Reject unpicklable payloads *before* anything enters the pool:
        # a pickling failure inside the executor's queue-feeder thread
        # leaves that thread wedged, which turns interpreter shutdown
        # into a permanent hang (the atexit handler joins it).  Payloads
        # here are tiny — task refs, shared-memory descriptors, scalars
        # — so the extra serialization is noise.
        try:
            pickle.dumps((func, items, common))
        except Exception as error:
            context.stats.failures += 1
            raise ShardError(
                f"shard payload is not picklable ({type(error).__name__}: "
                f"{error}); task functions must be module-level and "
                "payloads must travel as ArraySpec descriptors",
                backend=self.name,
                attempts=attempt,
            ) from error
        executor = context.executor()
        assignments = plan.assignments()
        futures = [
            executor.submit(
                run_shard_items, func,
                [items[position] for position in positions], common,
            )
            for positions in assignments
        ]
        # Monotonic per-attempt deadline, anchored at submit: every
        # shard of this attempt shares the same absolute expiry, and a
        # retry gets a fresh budget (satellite: a slow first attempt
        # cannot starve its retry).
        expires_at = (
            time.monotonic() + deadline if deadline is not None else None
        )
        results: Dict[int, Any] = {}
        failures: List[ShardFailure] = []
        pool_dirty = False
        try:
            for shard, (future, positions) in enumerate(
                zip(futures, assignments)
            ):
                shard_indices = [indices[position] for position in positions]
                remaining = (
                    max(0.0, expires_at - time.monotonic())
                    if expires_at is not None
                    else None
                )
                try:
                    shard_results = future.result(timeout=remaining)
                except FaultInjected as error:
                    failures.append(ShardFailure(
                        indices=shard_indices, error=error,
                        shard_index=shard,
                    ))
                    continue
                except FutureTimeoutError:
                    pool_dirty = True
                    failures.append(ShardFailure(
                        indices=shard_indices,
                        error=ShardError(
                            f"shard {shard}/{plan.n_shards} timed out "
                            f"after {deadline}s",
                            backend=self.name,
                            shard_index=shard,
                            attempts=attempt,
                        ),
                        shard_index=shard,
                    ))
                    continue
                except BrokenProcessPool as error:
                    pool_dirty = True
                    failures.append(ShardFailure(
                        indices=shard_indices,
                        error=ShardError(
                            f"shard {shard}/{plan.n_shards} died (worker "
                            f"process crashed): {error}",
                            backend=self.name,
                            shard_index=shard,
                            attempts=attempt,
                        ),
                        shard_index=shard,
                    ))
                    continue
                except ShardError:
                    raise
                except ReproError:
                    # Library errors propagate with their own type (a
                    # ValidationError in a worker is a caller bug, not a
                    # dispatch failure) — the workers are healthy, so
                    # the pool is kept (see the except clause below).
                    raise
                except Exception as error:
                    # Only plain exceptions are rebranded; a user
                    # KeyboardInterrupt / SystemExit keeps its type (the
                    # outer handler still tears the pool down for it).
                    raise ShardError(
                        f"shard {shard}/{plan.n_shards} failed: "
                        f"{type(error).__name__}: {error}",
                        backend=self.name,
                        shard_index=shard,
                        attempts=attempt,
                    ) from error
                for index, result in zip(shard_indices, shard_results):
                    results[index] = result
        except BaseException as error:
            for future in futures:
                future.cancel()
            # A clean library error from a healthy worker leaves the
            # pool reusable; everything else (poison wrapped as
            # ShardError, interrupts) tears it down so the next dispatch
            # forks fresh, unpoisoned workers.
            if isinstance(error, ShardError) or not isinstance(
                error, ReproError
            ):
                context.stats.failures += 1
                context.reset_executor()
            raise
        if pool_dirty:
            # A timeout or broken pool leaves workers hung or dead;
            # kill them so the retry (or the caller) starts from a
            # fresh, unpoisoned pool and shutdown cannot hang.
            for future in futures:
                future.cancel()
            context.reset_executor()
        return results, failures


register_backend(SerialShardBackend())
register_backend(ProcessShardBackend())
