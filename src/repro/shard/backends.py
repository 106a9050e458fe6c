"""One dispatch attempt over the context's persistent process pool.

:func:`run_pool_attempt` fans the shards of one :class:`~repro.shard.
plan.ShardPlan` out over :meth:`ShardContext.executor
<repro.shard.context.ShardContext.executor>` and collects their results
by global item index.  The pool runs the same
:func:`repro.shard.base.run_shard_items` on the same payloads as the
in-process serial path, and results are reassembled in global item
order, so sharded output is bitwise identical to serial output.

Failure semantics (tested in ``tests/test_shard.py`` /
``tests/test_resilience.py``): **task** failures — the task function
raised a real exception — are deterministic caller bugs; a clean library
:class:`~repro.utils.errors.ReproError` propagates with its own type and
leaves the pool healthy, anything else is rebranded as one structured
:class:`~repro.utils.errors.ShardError` and tears the pool down.
**Infrastructure** failures — a worker killed mid-task or between
dispatches (``BrokenProcessPool``), a shard exceeding the per-attempt
deadline, an injected :class:`~repro.shard.faults.FaultInjected` — are
*returned* to the :class:`~repro.shard.resilience.FailureDirector` as
retryable :class:`~repro.shard.resilience.ShardFailure`\\ s (per shard,
with the completed shards' results kept), never a hang: the deadline is
monotonic per attempt and a dirty pool is killed, not joined, so neither
the dispatch nor interpreter shutdown can block on a hung worker.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Optional

from repro.shard.base import TaskFunc, run_shard_items
from repro.shard.faults import FaultInjected
from repro.shard.plan import ShardPlan
from repro.utils.errors import ReproError, ShardError

#: the ``backend`` field of every :class:`ShardError` a dispatch raises.
BACKEND = "process"


def run_pool_attempt(
    func: TaskFunc,
    indexed_items,
    common: Optional[dict],
    plan: ShardPlan,
    context,
    deadline: Optional[float] = None,
    attempt: int = 1,
):
    """Run one attempt of a dispatch; partial failures are returned.

    ``indexed_items`` is a list of ``(global_index, item)`` pairs and
    ``plan`` partitions their positions.  Returns ``(results,
    failures)``: ``results`` maps global index -> result for every item
    that completed, ``failures`` lists a
    :class:`~repro.shard.resilience.ShardFailure` per lost shard.
    Non-retryable task errors are raised (see the module docstring).
    """
    from repro.shard.resilience import ShardFailure

    indices = [index for index, _ in indexed_items]
    items = [item for _, item in indexed_items]
    # Reject unpicklable payloads *before* anything enters the pool:
    # a pickling failure inside the executor's queue-feeder thread
    # leaves that thread wedged, which turns interpreter shutdown into
    # a permanent hang (the atexit handler joins it).  Payloads here
    # are tiny — task refs, shared-memory descriptors, scalars — so the
    # extra serialization is noise.
    try:
        pickle.dumps((func, items, common))
    except Exception as error:
        context.stats.failures += 1
        raise ShardError(
            f"shard payload is not picklable ({type(error).__name__}: "
            f"{error}); task functions must be module-level and "
            "payloads must travel as ArraySpec descriptors",
            backend=BACKEND,
            attempts=attempt,
        ) from error
    executor = context.executor()
    assignments = plan.assignments()
    try:
        futures = [
            executor.submit(
                run_shard_items, func,
                [items[position] for position in positions], common,
            )
            for positions in assignments
        ]
    except BrokenProcessPool as error:
        # A pool process died since the last dispatch (the OOM killer,
        # an operator's kill): the executor refuses new work.  Fork a
        # fresh pool and hand every item back as one retryable loss.
        context.reset_executor()
        return {}, [ShardFailure(
            indices=indices,
            error=ShardError(
                f"process pool broken before submit (a worker process "
                f"died between dispatches): {error}",
                backend=BACKEND,
                attempts=attempt,
            ),
        )]
    # Monotonic per-attempt deadline, anchored at submit: every shard
    # of this attempt shares the same absolute expiry, and a retry gets
    # a fresh budget (a slow first attempt cannot starve its retry).
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
                    indices=shard_indices, error=error, shard_index=shard,
                ))
                continue
            except FutureTimeoutError:
                pool_dirty = True
                failures.append(ShardFailure(
                    indices=shard_indices,
                    error=ShardError(
                        f"shard {shard}/{plan.n_shards} timed out "
                        f"after {deadline}s",
                        backend=BACKEND,
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
                        backend=BACKEND,
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
                # dispatch failure) — the workers are healthy, so the
                # pool is kept (see the except clause below).
                raise
            except Exception as error:
                # Only plain exceptions are rebranded; a user
                # KeyboardInterrupt / SystemExit keeps its type (the
                # outer handler still tears the pool down for it).
                raise ShardError(
                    f"shard {shard}/{plan.n_shards} failed: "
                    f"{type(error).__name__}: {error}",
                    backend=BACKEND,
                    shard_index=shard,
                    attempts=attempt,
                ) from error
            for index, result in zip(shard_indices, shard_results):
                results[index] = result
    except BaseException as error:
        for future in futures:
            future.cancel()
        # A clean library error from a healthy worker leaves the pool
        # reusable; everything else (poison wrapped as ShardError,
        # interrupts) tears it down so the next dispatch forks fresh,
        # unpoisoned workers.
        if isinstance(error, ShardError) or not isinstance(
            error, ReproError
        ):
            context.stats.failures += 1
            context.reset_executor()
        raise
    if pool_dirty:
        # A timeout or broken pool leaves workers hung or dead; kill
        # them so the retry (or the caller) starts from a fresh,
        # unpoisoned pool and shutdown cannot hang.
        for future in futures:
            future.cancel()
        context.reset_executor()
    return results, failures
