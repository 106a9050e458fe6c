"""ShardContext — per-run sharded-dispatch state: pool, segments, stats.

A :class:`ShardContext` is what call sites thread through the pipeline
next to :class:`repro.solvers.SolverContext` and
:class:`repro.neighbors.NeighborStats`.  It owns three things:

* the **persistent process pool** — forked lazily on the first dispatch
  and reused by every later one (SGLA view builds, SGLA+ sample batches,
  streaming refreshes), so the fork/import cost is paid once per run;
* **shared-memory segment lifecycle** — ephemeral segments created for
  one dispatch are unlinked as soon as its futures resolve; persistent
  segments (e.g. a stacked-Laplacian pattern reused across every weight
  batch of a run) live until :meth:`close`;
* **statistics** — dispatches vs serial fallbacks, tasks, shards, bytes
  shared, so the process-sharding benefit is measurable end to end.

One context is meant to live for one logical run (one ``fit``, one
pipeline invocation, one CLI command) and is shared across its stages.
Contexts are context managers; :meth:`close` is idempotent.

Start method: ``fork`` where the platform offers it — workers inherit
the loaded interpreter and modules by copy-on-write page sharing (no
re-import, microsecond spawn) — falling back to the platform default
(``spawn``) elsewhere.  The pool is forked lazily at the first dispatch,
from a known quiescent point (no library locks held); see DESIGN.md §10
for the fork-vs-spawn rationale.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.shard.base import ShardStats, TaskFunc, run_shard_items
from repro.shard.faults import FaultPlan
from repro.shard.resilience import FailureDirector, RetryPolicy
from repro.shard.shm import ArraySpec, create_segment, inline_spec
from repro.utils.errors import ValidationError

#: dispatches with fewer work items than this fall back to serial.
MIN_SHARD_ITEMS = 2

#: dispatches whose shared payload is smaller than this (bytes) fall
#: back to serial — process overhead would dwarf the win.
MIN_SHARD_BYTES = 1 << 20


def default_shard_workers() -> int:
    """Worker count used when the caller does not pin one."""
    return max(1, os.cpu_count() or 1)


class ShardContext:
    """Shared process-sharding state for one run.

    Parameters
    ----------
    workers:
        Process budget; ``None`` uses the host core count.  A context
        with ``workers <= 1`` executes every dispatch through the serial
        path (same task code, in-process) — the reference the
        determinism contract is anchored to.
    min_items, min_bytes:
        Serial-fallback thresholds (see :data:`MIN_SHARD_ITEMS` /
        :data:`MIN_SHARD_BYTES`); tests pin them to 0 to force process
        dispatch on tiny fixtures.
    timeout:
        Optional *per-attempt* shard deadline in seconds, measured on
        the monotonic clock from attempt submit (``None`` waits
        indefinitely); an exhausted deadline surfaces through the
        resilience machine as retries and, ultimately, a clean
        :class:`~repro.utils.errors.ShardError`.  Each dispatch reads
        the attribute afresh, so a caller may tighten it between
        dispatches (the serve daemon passes on each request's
        remaining deadline this way).
    retries:
        Retry attempts *beyond the first* per dispatch (default 2, i.e.
        three attempts).
    fault_plan:
        Optional :class:`~repro.shard.faults.FaultPlan` arming
        deterministic fault injection on every dispatch (chaos tests).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        min_items: int = MIN_SHARD_ITEMS,
        min_bytes: int = MIN_SHARD_BYTES,
        timeout: Optional[float] = None,
        retries: int = 2,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if workers is not None and workers < 0:
            raise ValidationError(f"workers must be >= 0, got {workers}")
        if retries < 0:
            raise ValidationError(f"retries must be >= 0, got {retries}")
        if timeout is not None and timeout <= 0:
            raise ValidationError(
                f"shard timeout (deadline) must be positive seconds, "
                f"got {timeout}"
            )
        self.workers = (
            default_shard_workers() if workers is None else int(workers)
        )
        self.min_items = int(min_items)
        self.min_bytes = int(min_bytes)
        self.timeout = timeout
        self.retry_policy = RetryPolicy(max_attempts=retries + 1)
        self.fault_plan = fault_plan
        self.director = FailureDirector(self.retry_policy, fault_plan)
        self.stats = ShardStats()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._ephemeral: List[Any] = []  # open SharedMemory handles
        self._persistent: Dict[int, Tuple[Any, ArraySpec, Any]] = {}
        self._closed = False

    # ------------------------------------------------------------------ #
    # Policy
    # ------------------------------------------------------------------ #

    @property
    def active(self) -> bool:
        """Whether dispatches may leave the parent process at all."""
        return not self._closed and self.workers > 1

    def should_dispatch(
        self, n_items: int, payload_bytes: int = 0
    ) -> bool:
        """The serial-fallback rule for one prospective dispatch."""
        return (
            self.active
            and n_items >= max(self.min_items, 2)
            and payload_bytes >= self.min_bytes
        )

    # ------------------------------------------------------------------ #
    # Process pool
    # ------------------------------------------------------------------ #

    def executor(self) -> ProcessPoolExecutor:
        """The persistent pool, forked lazily on first use."""
        if self._closed:
            raise ValidationError("shard context is closed")
        if self._executor is None:
            # Prefer fork only where it is actually safe (Linux, where
            # it is also the platform default).  macOS *lists* fork but
            # made spawn the default in 3.8 because forking a process
            # that touched Accelerate BLAS / the ObjC runtime aborts;
            # mere availability must not override that.
            use_fork = (
                sys.platform.startswith("linux")
                and "fork" in multiprocessing.get_all_start_methods()
            )
            context = multiprocessing.get_context(
                "fork" if use_fork else None
            )
            self._executor = ProcessPoolExecutor(
                max_workers=max(1, self.workers), mp_context=context
            )
        return self._executor

    def reset_executor(self) -> None:
        """Tear the pool down hard (next dispatch forks fresh workers).

        Worker processes are killed, not joined: this path only runs on
        failed dispatches (poison, broken pool, timeout), and a worker
        stuck in a hung task would otherwise survive ``shutdown(
        wait=False)`` and block ``concurrent.futures``' atexit join of
        the old management thread — turning interpreter shutdown into
        the very hang the timeout just reported.
        """
        executor, self._executor = self._executor, None
        if executor is not None:
            # Snapshot before shutdown(): it nulls the _processes map.
            processes = list(
                (getattr(executor, "_processes", None) or {}).values()
            )
            executor.shutdown(wait=False, cancel_futures=True)
            for process in processes:
                try:
                    process.kill()
                except Exception:  # pragma: no cover - already dead
                    pass

    # ------------------------------------------------------------------ #
    # Shared-memory payloads
    # ------------------------------------------------------------------ #

    def share(self, array: np.ndarray, inline: bool = False) -> ArraySpec:
        """Expose ``array`` to workers; ephemeral (freed after dispatch).

        ``inline=True`` skips the segment and ships the array in the
        descriptor itself — the serial path's transport (same bytes, no
        copy, no kernel object).
        """
        if inline or not self.active:
            return inline_spec(array)
        segment, spec = create_segment(array)
        self._ephemeral.append(segment)
        self.stats.segments += 1
        self.stats.bytes_shared += spec.nbytes
        return spec

    def share_persistent(self, array: np.ndarray) -> ArraySpec:
        """Like :meth:`share`, but the segment lives until :meth:`close`.

        Cached by the array object's identity — sharing the same
        (immutable, by convention) array again returns the existing
        descriptor, which is how a stacked-Laplacian pattern crosses the
        fence once per run instead of once per weight batch.  The cache
        holds a reference to ``array``, so an id is never recycled while
        its entry is alive; do **not** use this for arrays mutated in
        place (the segment holds a copy from share time).
        """
        if not self.active:
            return inline_spec(array)
        key = id(array)
        entry = self._persistent.get(key)
        if entry is not None:
            return entry[1]
        segment, spec = create_segment(array)
        self._persistent[key] = (segment, spec, array)
        self.stats.segments += 1
        self.stats.bytes_shared += spec.nbytes
        return spec

    def _release_ephemeral(self) -> None:
        segments, self._ephemeral = self._ephemeral, []
        for segment in segments:
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #

    def run(
        self,
        func: TaskFunc,
        items: Sequence[Any],
        common: Optional[dict] = None,
        costs: Optional[Sequence[float]] = None,
        dispatch: Optional[bool] = None,
    ) -> List[Any]:
        """Execute ``func`` over ``items``; results in item order.

        ``dispatch`` pins the serial/process decision (callers that
        prepared payloads with :meth:`share` already settled it through
        :meth:`should_dispatch`); ``None`` re-derives it from the item
        count alone.  Dispatched work goes through the
        :class:`~repro.shard.resilience.FailureDirector` (retries and
        re-dispatch onto the process pool); the serial path runs the
        items in-process, in order.  Ephemeral segments are released on
        the way out, success or failure.
        """
        items = list(items)
        if not items:
            return []
        if dispatch is None:
            dispatch = self.should_dispatch(
                len(items), payload_bytes=self.min_bytes
            )
        self.stats.tasks += len(items)
        try:
            if not dispatch:
                self.stats.serial_dispatches += 1
                return run_shard_items(func, items, common)
            self.stats.dispatches += 1
            return self.director.execute(
                self, func, items, common, costs
            )
        finally:
            self._release_ephemeral()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Release the pool and every shared-memory segment.

        Idempotent and safe at interpreter shutdown: a second (or
        concurrent ``__del__``-triggered) close is a no-op, and when the
        interpreter is finalizing — e.g. a long-lived daemon-owned
        context collected at exit — the pool is torn down without
        joining worker processes (``thread.join`` and fresh thread
        spawns are unreliable during finalization and are what produced
        spurious ``Exception ignored in: ...`` warnings).
        """
        if self._closed:
            return
        self._closed = True
        finalizing = sys.is_finalizing()
        executor, self._executor = self._executor, None
        if executor is not None:
            try:
                if finalizing:
                    # Joining forked workers needs live threading
                    # machinery; just kill them — the work is moot.
                    processes = list(
                        (getattr(executor, "_processes", None) or {})
                        .values()
                    )
                    executor.shutdown(wait=False, cancel_futures=True)
                    for process in processes:
                        try:
                            process.kill()
                        except Exception:
                            pass
                else:
                    executor.shutdown(wait=True, cancel_futures=True)
            except Exception:  # pragma: no cover - shutdown races
                pass
        self._release_ephemeral()
        persistent, self._persistent = self._persistent, {}
        for segment, _, _ in persistent.values():
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "ShardContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


@contextmanager
def shard_scope(config, shard: Optional[ShardContext]):
    """Yield the shard context a pipeline stage should use.

    A caller-supplied ``shard`` is passed through untouched (the caller
    owns its lifecycle); otherwise one is built from ``config.
    make_shard()`` — possibly ``None`` when sharding is disabled — and
    closed on exit.  This is the single owned-context rule every entry
    point (``integrate``, ``cluster_mvag``/``embed_mvag``,
    ``SGLA.fit``/``SGLAPlus.fit``) shares.
    """
    if shard is not None:
        yield shard
        return
    owned = config.make_shard() if config is not None else None
    try:
        yield owned
    finally:
        if owned is not None:
            owned.close()
