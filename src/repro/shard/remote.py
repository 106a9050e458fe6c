"""The ``remote`` shard backend: TCP worker hosts, stdlib only.

DESIGN.md §11.  Dispatches :mod:`repro.shard` tasks to worker processes
started with ``python -m repro.shard.worker --bind HOST:PORT`` — on the
same host (the :class:`WorkerFleet` spawns them itself when given a
count) or on other machines (pass ``host:port`` addresses).  Payloads
travel as length-prefixed, integrity-checked frames over plain sockets;
the shared-memory transport of the ``process`` backend is replaced by
the wire, so the existing :class:`~repro.shard.shm.ArraySpec` payload
descriptors simply ship in **inline** mode (the descriptor carries the
array) and task functions are oblivious to the transport, exactly as
they are to the serial fallback.

Wire format (one frame per message, both directions)::

    MAGIC(4) | LENGTH(8, big-endian) | DIGEST(16) | BODY(pickle)

``DIGEST`` is a keyed BLAKE2b MAC of the body.  It serves two purposes:
a cheap shared-secret handshake (frames from strangers fail the check
and drop the connection) and corruption detection — a damaged frame
raises :class:`FrameCorrupted`, which the resilience layer treats as a
retryable transport failure.  This is a lab protocol: it authenticates
and integrity-checks, it does not encrypt; run it on networks you trust.

Worker lifecycle: the fleet performs a ``hello`` handshake on connect
(worker pid + task counter = registration), treats any send/receive
failure as worker death (the resilience layer quarantines repeat
offenders), respawns dead or self-recycled *spawned* workers, and
leaves externally managed addresses alone.  Workers started with
``--max-tasks N`` exit cleanly after ``N`` tasks (announcing the
recycle on their last reply) — cheap leak hygiene for long-lived
fleets; the director re-admits the replacement transparently.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import socket
import struct
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.shard.base import ShardBackend, TaskFunc, register_backend
from repro.shard.plan import ShardPlan
from repro.utils.errors import ReproError, ShardError, ValidationError

MAGIC = b"RSF1"
_HEADER = struct.Struct(">8s")  # length only; magic/digest handled apart
DIGEST_SIZE = 16
DEFAULT_AUTHKEY = b"repro-shard"

#: connect timeout for the TCP handshake.
CONNECT_TIMEOUT = 10.0


class FrameError(ShardError):
    """A wire-protocol violation (bad magic, short read, oversize)."""


class FrameCorrupted(FrameError):
    """A frame failed its integrity check — retryable transport loss."""


class RemoteTaskError(Exception):
    """Internal envelope: the worker reported a task exception."""

    def __init__(self, original: BaseException) -> None:
        super().__init__(str(original))
        self.original = original


def _digest(body: bytes, authkey: bytes) -> bytes:
    return hashlib.blake2b(
        body, digest_size=DIGEST_SIZE, key=authkey
    ).digest()


def send_frame(
    sock: socket.socket,
    obj: Any,
    authkey: bytes = DEFAULT_AUTHKEY,
    corrupt: bool = False,
) -> int:
    """Pickle ``obj`` into one frame and send it; returns bytes sent.

    ``corrupt=True`` flips one byte of the body *after* computing the
    digest — the receiver's integrity check must catch it.  Only fault
    injection uses it.
    """
    body = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    digest = _digest(body, authkey)
    if corrupt and body:
        body = bytearray(body)
        body[len(body) // 2] ^= 0xFF
        body = bytes(body)
    frame = MAGIC + struct.pack(">Q", len(body)) + digest + body
    sock.sendall(frame)
    return len(frame)


def _recv_exact(
    sock: socket.socket, n: int, expires_at: Optional[float]
) -> bytes:
    chunks = []
    got = 0
    while got < n:
        if expires_at is not None:
            remaining = expires_at - time.monotonic()
            if remaining <= 0:
                raise socket.timeout("frame receive deadline expired")
            sock.settimeout(remaining)
        chunk = sock.recv(min(n - got, 1 << 20))
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock: socket.socket,
    authkey: bytes = DEFAULT_AUTHKEY,
    expires_at: Optional[float] = None,
    max_bytes: Optional[int] = None,
) -> Any:
    """Receive one frame; verify integrity; unpickle the body.

    ``expires_at`` is an absolute monotonic deadline shared by every
    read of the frame.  ``max_bytes`` caps the body length the header
    may declare; it is checked before any body byte is read, so an
    oversized header never makes the receiver buffer its body.  Raises
    :class:`FrameError` on bad magic or an oversized header,
    :class:`FrameCorrupted` on a digest mismatch, ``ConnectionError``
    on EOF, ``socket.timeout`` past the deadline.
    """
    header = _recv_exact(sock, 4 + 8 + DIGEST_SIZE, expires_at)
    if header[:4] != MAGIC:
        raise FrameError(f"bad frame magic {header[:4]!r}")
    (length,) = struct.unpack(">Q", header[4:12])
    if max_bytes is not None and length > max_bytes:
        raise FrameError(
            f"frame declares {length} body bytes, over the "
            f"{max_bytes}-byte limit"
        )
    digest = header[12:]
    body = _recv_exact(sock, length, expires_at)
    if _digest(body, authkey) != digest:
        raise FrameCorrupted("frame integrity check failed")
    return pickle.loads(body)


def parse_address(
    address: str, allow_port_zero: bool = False, what: str = "remote worker"
) -> Tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` with validation.

    Rejects missing hosts, non-integer or out-of-range ports, with a
    clear :class:`~repro.utils.errors.ValidationError` naming the bad
    string — the shared front door for worker ``--bind`` strings, serve
    daemon binds, and fleet addresses, so a typo fails at construction
    instead of as a deep ``socket`` stack trace.  ``allow_port_zero``
    admits the kernel-assigned-port convention used by bind strings.
    """
    if not isinstance(address, str):
        raise ValidationError(
            f"{what} address must be a host:port string, "
            f"got {type(address).__name__}"
        )
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValidationError(
            f"{what} address must be host:port, got {address!r}"
        )
    try:
        port_number = int(port)
    except ValueError:
        raise ValidationError(
            f"{what} address has a non-integer port: {address!r}"
        ) from None
    floor = 0 if allow_port_zero else 1
    if not floor <= port_number <= 65535:
        raise ValidationError(
            f"{what} address port must be in [{floor}, 65535], "
            f"got {address!r}"
        )
    return host, port_number


class WorkerClient:
    """One parent-side connection to one worker host."""

    def __init__(self, address: str, authkey: bytes = DEFAULT_AUTHKEY) -> None:
        self.address = address
        self.authkey = authkey
        self._sock: Optional[socket.socket] = None
        self.pid: Optional[int] = None
        self.tasks_done = 0

    def connect(self) -> None:
        if self._sock is not None:
            return
        host, port = parse_address(self.address)
        sock = socket.create_connection(
            (host, port), timeout=CONNECT_TIMEOUT
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        reply = self.request({"op": "hello"})
        self.pid = reply.get("pid")
        self.tasks_done = int(reply.get("tasks_done", 0))

    def request(
        self, message: dict, expires_at: Optional[float] = None, stats=None
    ) -> dict:
        """One request/response round trip under an absolute deadline."""
        self.connect()
        sock = self._sock
        assert sock is not None
        if expires_at is not None:
            sock.settimeout(max(0.01, expires_at - time.monotonic()))
        else:
            sock.settimeout(None)
        sent = send_frame(sock, message, self.authkey)
        if stats is not None:
            stats.bytes_shared += sent
        reply = recv_frame(sock, self.authkey, expires_at)
        if not isinstance(reply, dict):
            raise FrameError(f"malformed reply: {type(reply).__name__}")
        return reply

    def ping(self) -> bool:
        try:
            return bool(self.request({"op": "ping"}).get("ok"))
        except Exception:
            return False

    def run(
        self,
        func: TaskFunc,
        items: List[Any],
        common: Optional[dict],
        expires_at: Optional[float],
        stats=None,
    ) -> Tuple[List[Any], bool]:
        """Ship one shard; returns ``(results, worker_is_recycling)``.

        Task exceptions reported by the worker are re-raised here
        wrapped in :class:`RemoteTaskError` for the backend to classify.
        """
        reply = self.request(
            {"op": "run", "func": func, "items": items, "common": common},
            expires_at,
            stats=stats,
        )
        if not reply.get("ok"):
            payload = reply.get("error")
            try:
                original = pickle.loads(payload)
            except Exception:
                original = ShardError(
                    f"worker {self.address} reported an undecodable "
                    f"error: {reply.get('repr', '<unknown>')}"
                )
            raise RemoteTaskError(original)
        self.tasks_done = int(reply.get("tasks_done", self.tasks_done))
        return list(reply["results"]), bool(reply.get("recycling"))

    def shutdown(self) -> None:
        try:
            if self._sock is not None:
                send_frame(self._sock, {"op": "shutdown"}, self.authkey)
        except Exception:
            pass

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except Exception:
                pass


def resolve_authkey(flag: Optional[str]) -> bytes:
    """The frame key a server entry point runs with.

    The ``--authkey`` flag wins, then the ``REPRO_SHARD_AUTHKEY``
    environment variable (how :func:`spawn_server` hands a key to its
    child without putting it on the command line), then the built-in
    development key.
    """
    if flag is not None:
        return flag.encode("latin-1")
    env = os.environ.get("REPRO_SHARD_AUTHKEY")
    return env.encode("latin-1") if env else DEFAULT_AUTHKEY


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
    ``REPRO_SHARD_AUTHKEY`` (see :func:`resolve_authkey`).
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


def spawn_worker(
    max_tasks: int = 0,
    authkey: bytes = DEFAULT_AUTHKEY,
    bind_host: str = "127.0.0.1",
) -> SpawnedProcess:
    """Start ``python -m repro.shard.worker`` on a free port."""
    argv = ["--bind", f"{bind_host}:0"]
    if max_tasks:
        argv += ["--max-tasks", str(max_tasks)]
    return spawn_server(
        "repro.shard.worker", argv, "SHARD-WORKER-READY", ShardError,
        authkey=authkey,
    )


class WorkerFleet:
    """The parent-side registry of remote workers for one shard context.

    Two modes, mixable in principle but used one at a time: **spawned**
    (``spawn`` local worker subprocesses, owned end to end: started
    lazily, respawned on death or self-recycle, terminated at close)
    and **external** (fixed ``addresses``, never spawned or respawned —
    a dead external worker stays dead until its operator restarts it,
    though the director's quarantine cooldown keeps re-probing it).
    """

    def __init__(
        self,
        addresses: Optional[Sequence[str]] = None,
        spawn: int = 0,
        max_tasks: int = 0,
        respawn: bool = True,
        authkey: bytes = DEFAULT_AUTHKEY,
    ) -> None:
        if not addresses and spawn < 1:
            raise ValidationError(
                "a WorkerFleet needs addresses or a spawn count"
            )
        self._external = list(addresses or [])
        self._spawn_target = int(spawn)
        self.max_tasks = int(max_tasks)
        self.respawn = bool(respawn)
        self.authkey = authkey
        self._spawned: List[SpawnedProcess] = []
        self._clients: Dict[str, WorkerClient] = {}
        self._started = False

    # ------------------------------------------------------------------ #

    def ensure(self) -> None:
        """Bring the fleet up (idempotent): spawn/connect + registration."""
        if not self._started:
            for address in self._external:
                parse_address(address)  # fail fast on typos
                self._clients[address] = WorkerClient(address, self.authkey)
            for _ in range(self._spawn_target):
                self._spawn_one()
            self._started = True
        elif self.respawn:
            # Heartbeat pass for spawned workers: replace dead processes
            # (a clean self-recycle exit or a crash) before dispatch.
            for worker in list(self._spawned):
                if not worker.alive():
                    self._forget(worker)
                    self._spawn_one()

    def _spawn_one(self) -> None:
        worker = spawn_worker(self.max_tasks, self.authkey)
        self._spawned.append(worker)
        self._clients[worker.address] = WorkerClient(
            worker.address, self.authkey
        )

    def _forget(self, worker: SpawnedProcess) -> None:
        worker.kill()
        self._spawned.remove(worker)
        client = self._clients.pop(worker.address, None)
        if client is not None:
            client.close()

    def worker_ids(self) -> List[str]:
        return sorted(self._clients)

    def client(self, worker_id: str) -> WorkerClient:
        return self._clients[worker_id]

    def mark_dead(self, worker_id: str) -> None:
        """Drop the connection; respawn if the worker was ours and died."""
        client = self._clients.get(worker_id)
        if client is not None:
            client.close()
        for worker in list(self._spawned):
            if worker.address == worker_id and not worker.alive():
                self._forget(worker)
                if self.respawn:
                    self._spawn_one()
                break

    def recycled(self, worker_id: str) -> None:
        """A worker announced self-recycling: let it exit, replace it."""
        client = self._clients.get(worker_id)
        if client is not None:
            client.close()
        for worker in list(self._spawned):
            if worker.address == worker_id:
                worker.wait(timeout=10)
                self._forget(worker)
                if self.respawn:
                    self._spawn_one()
                break

    def kill_all(self) -> None:
        """Hard-kill every spawned worker (chaos tests' dead-fleet lever)."""
        for worker in self._spawned:
            try:
                worker.process.kill()
            except Exception:
                pass

    def close(self) -> None:
        for client in self._clients.values():
            client.shutdown()
            client.close()
        self._clients.clear()
        for worker in list(self._spawned):
            worker.kill()
        self._spawned.clear()
        self._started = False


class RemoteShardBackend(ShardBackend):
    """Dispatch shards to TCP worker hosts (the resilience layer's top rung)."""

    name = "remote"
    #: tells ShardContext.share to keep payloads inline — descriptors
    #: travel inside the wire frames, shared memory cannot cross hosts.
    wire_payloads = True

    def capacity(self, context) -> int:
        try:
            fleet = context.remote_fleet()
            fleet.ensure()
        except Exception:
            return 0
        healthy = context.director.healthy_workers(fleet.worker_ids())
        return len(healthy)

    def run(
        self,
        func: TaskFunc,
        items: List[Any],
        common: Optional[dict],
        plan: ShardPlan,
        context,
    ) -> List[Any]:
        indexed = list(enumerate(items))
        results, failures = self.try_run(
            func, indexed, common, plan, context, deadline=context.timeout
        )
        if failures:
            context.stats.failures += 1
            first = failures[0]
            raise ShardError(
                f"{len(failures)} remote shard(s) failed: {first.error}",
                backend=self.name,
                shard_index=first.shard_index,
                worker=first.worker,
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
        try:
            fleet = context.remote_fleet()
            fleet.ensure()
            healthy = context.director.healthy_workers(fleet.worker_ids())
        except Exception as error:
            return {}, [ShardFailure(
                indices=indices,
                error=ShardError(
                    f"remote fleet unavailable: "
                    f"{type(error).__name__}: {error}",
                    backend=self.name,
                    attempts=attempt,
                ),
            )]
        if not healthy:
            return {}, [ShardFailure(
                indices=indices,
                error=ShardError(
                    "no healthy remote workers",
                    backend=self.name,
                    attempts=attempt,
                ),
            )]
        expires_at = (
            time.monotonic() + deadline if deadline is not None else None
        )
        assignments = plan.assignments()
        results: Dict[int, Any] = {}
        failures: List[ShardFailure] = []
        raised: List[BaseException] = []

        def _one(shard: int, positions: List[int]) -> None:
            worker_id = healthy[shard % len(healthy)]
            shard_indices = [indices[p] for p in positions]
            shard_items = [items[p] for p in positions]
            client = fleet.client(worker_id)
            try:
                shard_results, recycling = client.run(
                    func, shard_items, common, expires_at,
                    stats=context.stats,
                )
            except RemoteTaskError as envelope:
                original = envelope.original
                from repro.shard.faults import FaultInjected

                if isinstance(original, FaultInjected):
                    failures.append(ShardFailure(
                        indices=shard_indices, error=original,
                        shard_index=shard, worker=worker_id,
                    ))
                    return
                if isinstance(original, ReproError) and not isinstance(
                    original, ShardError
                ):
                    # Clean library error from a healthy worker: caller
                    # bug, propagate with its own type, keep the worker.
                    raised.append(original)
                    return
                raised.append(ShardError(
                    f"remote shard {shard}/{plan.n_shards} failed: "
                    f"{type(original).__name__}: {original}",
                    backend=self.name,
                    shard_index=shard,
                    worker=worker_id,
                    attempts=attempt,
                ))
                return
            except (
                FrameCorrupted, FrameError, ConnectionError, OSError,
                socket.timeout, EOFError, pickle.UnpicklingError,
            ) as error:
                # Transport loss: dead worker, dropped reply, damaged
                # frame, or deadline expiry — retryable, attributed.
                client.close()
                fleet.mark_dead(worker_id)
                failures.append(ShardFailure(
                    indices=shard_indices,
                    error=ShardError(
                        f"remote shard {shard}/{plan.n_shards} lost on "
                        f"worker {worker_id}: "
                        f"{type(error).__name__}: {error}",
                        backend=self.name,
                        shard_index=shard,
                        worker=worker_id,
                        attempts=attempt,
                    ),
                    shard_index=shard,
                    worker=worker_id,
                ))
                return
            for index, result in zip(shard_indices, shard_results):
                results[index] = result
            context.director.record_success(worker_id)
            if recycling:
                fleet.recycled(worker_id)

        if len(assignments) == 1:
            _one(0, assignments[0])
        else:
            with ThreadPoolExecutor(
                max_workers=min(len(assignments), 32),
                thread_name_prefix="repro-remote",
            ) as pool:
                list(pool.map(
                    _one, range(len(assignments)), assignments
                ))
        if raised:
            raise raised[0]
        return results, failures


register_backend(RemoteShardBackend())
