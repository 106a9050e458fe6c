"""The serving daemon: sockets, executor threads, lifecycle.

Thread anatomy of one :class:`ServeDaemon` (the accept and connection
threads are the :class:`~repro.serve.protocol.FrameServer` front it
shares with the router):

* one **accept** thread hands each TCP connection to a
* **connection** thread (one per client, cheap: it parses frames,
  admits into the :class:`~repro.serve.queue.AdmissionQueue`, consults
  the deterministic :class:`~repro.serve.results.ResultCache` — a hit
  answers the admitted request in place, bit-identically, without ever
  reaching a worker — then *waits* — watching both the request's
  deadline and the client socket, so an expired deadline gets a
  structured reply the instant it passes and a disconnected client
  frees its queue slot immediately);
* ``workers`` **executor** threads, each owning a persistent
  :class:`~repro.shard.ShardContext` (when a ``shard_factory`` is
  given; :meth:`ServeDaemon.start` builds them before any thread starts,
  so a bad shard setting fails startup instead of killing executors).
  A worker takes the fair-queue head, coalesces compatible objective
  requests into one batch, propagates the request's remaining deadline
  into the shard context's per-attempt deadline (thread-owned context,
  so the write is race-free), and runs the job.

``health`` / ``stats`` ops are answered inline on the connection thread
— they never touch the queue, so monitoring keeps working while the
queue is shedding load.  A shard pool process that dies is retried
around on a freshly forked pool while the daemon keeps serving.

SIGTERM handling lives in :mod:`repro.serve.__main__`; this class only
exposes the mechanism (:meth:`drain` + :meth:`stop`).
"""

from __future__ import annotations

import os
import pickle
import select
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.serve.config import ServeConfig
from repro.serve.jobs import (
    DatasetCache,
    batch_key,
    check_job,
    run_cluster,
    run_embed,
    run_objective_group,
)
from repro.serve.protocol import FrameServer, error_reply
from repro.serve.queue import AdmissionQueue, RequestEntry
from repro.serve.results import ResultCache, result_key
from repro.serve.stats import ServeStats
from repro.utils.errors import ServeError, ValidationError

#: slice used when a connection thread waits on an entry — bounds how
#: late a deadline reply or a disconnect cleanup can be.
WAIT_SLICE = 0.05


def _socket_eof(sock: socket.socket) -> bool:
    """True when the peer closed its end (readable + empty peek)."""
    try:
        readable, _, _ = select.select([sock], [], [], 0)
        if not readable:
            return False
        return sock.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT) == b""
    except (BlockingIOError, InterruptedError):
        return False
    except OSError:
        return True


class ServeDaemon(FrameServer):
    """One multi-tenant serving daemon (see module docstring).

    Parameters
    ----------
    config:
        The validated :class:`~repro.serve.config.ServeConfig`.
    shard_factory:
        Optional zero-argument callable returning a fresh
        :class:`~repro.shard.ShardContext`; called once per executor
        thread by :meth:`start` (each worker owns its context for the
        daemon's lifetime — required for race-free per-request deadline
        propagation).  ``None`` serves everything through the
        in-process serial path.
    """

    role = "serve"

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        shard_factory: Optional[Callable[[], Any]] = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        super().__init__(self.config.bind, self.config.authkey)
        self.shard_factory = shard_factory
        self.stats = ServeStats()
        self.queue = AdmissionQueue(
            capacity=self.config.queue_depth,
            max_bytes=self.config.max_inflight_bytes,
            stats=self.stats,
            weight_for=self.config.weight_for,
            tenant_rate=self.config.tenant_rate,
            tenant_burst=self.config.tenant_burst,
            priority_aging=self.config.priority_aging,
        )
        self.datasets = DatasetCache(max_bytes=self.config.max_dataset_bytes)
        #: deterministic result cache (None when disabled): identical
        #: repeat requests are answered from memory, bit-identically.
        self.results: Optional[ResultCache] = (
            ResultCache(max_bytes=self.config.max_results_bytes)
            if self.config.result_cache else None
        )
        #: test hook: clear to hold executor threads before their next
        #: take() — lets tests stack compatible requests into one batch
        #: or fill the queue deterministically; set to release.  Use
        #: :meth:`hold_workers` to also wait until every executor is
        #: parked (a worker already blocked inside ``take()`` finishes
        #: that poll first).
        self.worker_gate = threading.Event()
        self.worker_gate.set()
        self._parked: set = set()
        self._workers: List[threading.Thread] = []
        self._shards: List[Any] = []
        self._drain_requested = threading.Event()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> str:
        """Bind, listen, start threads; returns the actual ``host:port``.

        Every executor's shard context is built first (a context forks
        nothing until its first dispatch), so a failing
        ``shard_factory`` raises out of here with nothing listening.
        """
        shards = []
        try:
            for _ in range(self.config.workers):
                shards.append(
                    self.shard_factory() if self.shard_factory else None
                )
            address = self._open_front()
        except BaseException:
            for shard in shards:
                if shard is not None:
                    shard.close()
            raise
        self._shards = [shard for shard in shards if shard is not None]
        for index, shard in enumerate(shards):
            worker = threading.Thread(
                target=self._worker_loop,
                args=(shard,),
                name=f"repro-serve-worker-{index}",
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)
        return address

    def drain(self) -> None:
        """Stop admitting; in-flight work keeps running (SIGTERM step 1)."""
        self._drain_requested.set()
        self.queue.drain()

    def stop(self, drain: bool = True, grace: Optional[float] = None) -> bool:
        """Shut down; returns ``True`` if in-flight work finished.

        ``drain=True`` waits up to ``grace`` (default: the config's
        ``drain_grace``) for queued + running requests to complete
        before tearing threads down; ``drain=False`` abandons them.
        """
        drained = True
        if drain:
            self.drain()
            grace = self.config.drain_grace if grace is None else grace
            drained = self.queue.wait_idle(timeout=grace)
        self._close_front()
        self.worker_gate.set()
        for worker in self._workers:
            worker.join(timeout=5)
        shards, self._shards = self._shards, []
        for shard in shards:
            try:
                shard.close()
            except Exception:
                pass
        return drained

    # ------------------------------------------------------------------ #
    # Health
    # ------------------------------------------------------------------ #

    def health_snapshot(self) -> Dict[str, Any]:
        """The health/stats payload (also what the CLI renders from)."""
        return {
            "ok": True,
            "address": self.address,
            "draining": self.queue.draining,
            "queue_depth": self.queue.depth,
            "running": self.queue.running,
            "inflight_bytes": self.queue.inflight_bytes,
            "queue_capacity": self.config.queue_depth,
            "shard": {"contexts": len(self._shards)},
            "cache": self.datasets.snapshot(),
            "results": (
                self.results.snapshot()
                if self.results is not None else {"enabled": False}
            ),
            "stats": self.stats.snapshot(),
        }

    # ------------------------------------------------------------------ #
    # Requests (answered on the connection threads)
    # ------------------------------------------------------------------ #

    def _handle(
        self, sock: socket.socket, message: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        op = message["op"]
        if op == "ping":
            return {"ok": True, "pid": os.getpid()}
        if op in ("health", "stats"):
            # Inline, never queued: monitoring works under overload.
            return self.health_snapshot()
        if op == "drain":
            self.drain()
            return {"ok": True, "draining": True}
        return self._handle_submit(sock, message)

    def _handle_submit(
        self, sock: socket.socket, message: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        job = message["job"]
        try:
            check_job(job)
        except ValidationError as error:
            return error_reply(error)
        deadline = message.get("deadline")
        if deadline is None:
            deadline = self.config.default_deadline
        entry = RequestEntry(
            tenant=message.get("tenant", "default"),
            job=job,
            nbytes=len(pickle.dumps(job, pickle.HIGHEST_PROTOCOL)),
            deadline=deadline,
            batch_key=batch_key(job),
            priority=message.get("priority") or "normal",
        )
        try:
            self.queue.submit(entry)
        except ServeError as error:
            return error_reply(error)
        # Admitted: check the result cache *after* admission, so repeat
        # traffic still pays the front door (quotas, depth, bytes) and
        # a cache-hit flood cannot starve the admission gates of their
        # accounting.  A hit completes the queued entry in place — the
        # reply is the cached (bit-identical) result, in microseconds.
        if self.results is not None:
            entry.result_key = result_key(job)
            cached = self.results.get(entry.result_key)
            if cached is not None and self.queue.finish_queued(
                entry, cached
            ):
                self.stats.bump(entry.tenant, "result_hits")
                return {
                    "ok": True,
                    "result": cached,
                    "queue_wait": entry.queue_wait,
                    "batched": entry.batched_with,
                    "cached": True,
                }
        # Wait for completion, watching deadline + socket.
        while not entry.done.wait(WAIT_SLICE):
            if entry.expired():
                # Structured reply *at* the deadline, even if the job is
                # still running (its result is discarded on arrival).
                from repro.utils.errors import DeadlineExceeded

                self.queue.cancel(entry, reason="deadline")
                return error_reply(DeadlineExceeded(
                    "deadline expired before a result was produced",
                    tenant=entry.tenant,
                    deadline=entry.deadline,
                    stage="running" if entry.state == "running" else "queued",
                ))
            if _socket_eof(sock):
                self.queue.cancel(entry, reason="disconnect")
                return None
        if entry.error is not None:
            return error_reply(entry.error)
        return {
            "ok": True,
            "result": entry.result,
            "queue_wait": entry.queue_wait,
            "batched": entry.batched_with,
        }

    # ------------------------------------------------------------------ #
    # Executor threads
    # ------------------------------------------------------------------ #

    def hold_workers(self, timeout: float = 10.0) -> bool:
        """Test hook: freeze every executor thread at the gate.

        Clears :attr:`worker_gate` and waits until all workers are
        parked, so subsequently submitted requests deterministically
        stay queued until the gate is re-set.
        """
        self.worker_gate.clear()
        limit = time.monotonic() + timeout
        while time.monotonic() < limit:
            if len(self._parked) >= len(self._workers):
                return True
            time.sleep(0.005)
        return False

    def _worker_loop(self, shard) -> None:
        name = threading.current_thread().name
        while not self._stopping.is_set():
            if not self.worker_gate.is_set():
                self._parked.add(name)
                self.worker_gate.wait(timeout=0.2)
                if self.worker_gate.is_set():
                    self._parked.discard(name)
                continue
            entry = self.queue.take(timeout=0.2)
            if entry is None:
                continue
            group = self.queue.collect_batch(entry, self.config.batch_limit)
            self._execute(group, shard)

    def _store_result(self, entry: RequestEntry, result) -> None:
        """Insert a successfully computed result into the result cache.

        Only successes are cached (a failure must stay retryable), and
        only under the key the connection thread derived at admission —
        deterministic execution guarantees the value is the one any
        future identical request would compute.
        """
        if self.results is not None and entry.result_key is not None:
            self.results.put(entry.result_key, result)

    def _execute(self, group: List[RequestEntry], shard) -> None:
        # Second-chance result-cache lookup: an identical request may
        # have completed (and been inserted) between this entry's
        # admission and its dequeue.  count=False keeps the cache's
        # hit/miss counters at one lookup per request — the connection
        # thread already counted this entry's miss.
        if self.results is not None:
            remaining_group = []
            for entry in group:
                cached = self.results.get(entry.result_key, count=False)
                if cached is not None:
                    self.stats.bump(entry.tenant, "result_hits")
                    self.queue.finish(entry, cached)
                else:
                    remaining_group.append(entry)
            group = remaining_group
            if not group:
                return
        for member in group:
            member.batched_with = len(group)
        # Propagate the tightest remaining deadline of the group into the
        # shard context's per-attempt deadline: a hung shard dispatch is
        # reclaimed by the FailureDirector instead of outliving the
        # request.  The context is thread-owned, so the write is safe.
        saved_timeout = None
        if shard is not None:
            saved_timeout = shard.timeout
            remaining = [
                entry.remaining() for entry in group
                if entry.remaining() is not None
            ]
            if remaining:
                tightest = max(0.01, min(remaining))
                shard.timeout = (
                    min(saved_timeout, tightest)
                    if saved_timeout is not None else tightest
                )
        try:
            kind = group[0].job.get("kind")
            if kind == "objective":
                results = run_objective_group(
                    [entry.job for entry in group], self.datasets, shard
                )
                for entry, result in zip(group, results):
                    self._store_result(entry, result)
                    self.queue.finish(entry, result)
            else:
                entry = group[0]  # cluster/embed never batch
                if kind == "cluster":
                    result = run_cluster(entry.job, self.datasets, shard)
                else:
                    result = run_embed(entry.job, self.datasets, shard)
                self._store_result(entry, result)
                self.queue.finish(entry, result)
        except Exception as error:
            for entry in group:
                self.queue.fail(entry, error)
        finally:
            if shard is not None:
                shard.timeout = saved_timeout


# ---------------------------------------------------------------------- #
# Subprocess helpers (tests, benchmarks, examples)
# ---------------------------------------------------------------------- #

class SpawnedProcess:
    """A server subprocess owned by this process (spawn, watch, stop)."""

    def __init__(self, process: subprocess.Popen, address: str) -> None:
        self.process = process
        self.address = address

    def alive(self) -> bool:
        return self.process.poll() is None

    def terminate(self) -> None:
        """Send SIGTERM (the graceful-drain signal)."""
        if self.alive():
            self.process.terminate()

    def wait(self, timeout: float = 30.0) -> Optional[int]:
        """The exit code, or ``None`` if still running after ``timeout``."""
        try:
            return self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return None

    def kill(self) -> None:
        """SIGKILL (if still running), reap, and close the pipes."""
        if self.alive():
            try:
                self.process.kill()
            except OSError:
                pass
        self.wait(timeout=5)
        for stream in (self.process.stdout, self.process.stderr):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass


def spawn_server(
    module: str,
    argv: Sequence[str],
    ready_tag: str,
    error: type,
    capture_stderr: bool = False,
    authkey: Optional[bytes] = None,
) -> SpawnedProcess:
    """Start ``python -m module *argv`` and wait for its ready line.

    Every server entry point binds (port 0 picks a free port) and then
    prints ``<ready_tag> host port pid`` on stdout; blocking on that
    line beats polling the port.  Anything else raises ``error`` with
    what the child printed.  ``authkey`` reaches the child through
    ``REPRO_SHARD_AUTHKEY`` (see
    :func:`~repro.serve.protocol.resolve_authkey`).
    """
    import repro

    env = dict(os.environ)
    # Propagate the parent's full import path, the way multiprocessing's
    # spawn does: task functions are pickled by reference, so whatever
    # module defines them (the library, a script, a test module) must be
    # importable in the child too.
    package_root = str(os.path.dirname(os.path.dirname(repro.__file__)))
    entries = [package_root] + [p for p in sys.path if p]
    existing = env.get("PYTHONPATH", "")
    if existing:
        entries.append(existing)
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(entries))
    if authkey is not None:
        env["REPRO_SHARD_AUTHKEY"] = authkey.decode("latin-1")
    process = subprocess.Popen(
        [sys.executable, "-m", module, *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE if capture_stderr else subprocess.DEVNULL,
        text=True,
    )
    started = time.monotonic()
    line = process.stdout.readline()
    if not line.startswith(ready_tag):
        process.kill()
        raise error(
            f"{module} failed to start (output: {line!r}, "
            f"exit={process.poll()}, waited "
            f"{time.monotonic() - started:.1f}s)"
        )
    _, host, port, _pid = line.split()
    return SpawnedProcess(process, f"{host}:{port}")


def spawn_daemon(
    argv_extra: Optional[List[str]] = None,
    bind_host: str = "127.0.0.1",
    capture_stderr: bool = False,
) -> SpawnedProcess:
    """Start ``python -m repro.serve`` on a free port; returns once the
    daemon prints its ``REPRO-SERVE-READY host port pid`` line."""
    return spawn_server(
        "repro.serve",
        ["--bind", f"{bind_host}:0", *(argv_extra or [])],
        "REPRO-SERVE-READY",
        ServeError,
        capture_stderr=capture_stderr,
    )
