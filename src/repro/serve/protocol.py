"""The serve tier's wire: frames, message schema, and the TCP front.

Every message is one frame, in both directions::

    MAGIC(4) | LENGTH(8, big-endian) | DIGEST(16) | BODY(pickle)

``DIGEST`` is a keyed BLAKE2b MAC of the body.  It serves two purposes:
a cheap shared-secret handshake (frames from strangers fail the check
and drop the connection) and corruption detection — a damaged frame
raises :class:`FrameCorrupted`, which clients treat as a retryable
transport failure.  This is a lab protocol: it authenticates and
integrity-checks, it does not encrypt; run it on networks you trust.
:func:`send_frame` / :func:`recv_frame` implement it; the ``RSF1``
magic and the ``REPRO_SHARD_AUTHKEY`` variable keep their names from
the shard worker hosts that first spoke it, so deployments keep
working.

This module also pins the frame *bodies*:

Request (client -> daemon), one dict per frame::

    {"op": "submit", "tenant": str, "deadline": float|None,
     "priority": "interactive"|"normal"|"batch" (optional, default
     "normal" — absent on older clients),
     "job": {"kind": "cluster"|"embed"|"objective", ...}}
    {"op": "health"} | {"op": "stats"} | {"op": "ping"} | {"op": "drain"}

Reply (daemon -> client)::

    {"ok": True, "result": ..., "queue_wait": float, "batched": int,
     "cached": True (present only on result-cache hits)}
    {"ok": False, "error": {"kind": str, "message": str, "fields": dict}}

Errors cross the wire as structured ``(kind, message, fields)`` triples
— never pickled exception objects — so a client can't be handed an
arbitrary class to unpickle, and :func:`reply_to_error` rebuilds the
typed exception from the ``kind`` tag on the other side.

:class:`FrameServer` is the threaded TCP front that speaks this schema
for both the serving daemon and the router.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import socket
import struct
import threading
import time
from typing import Any, Dict, Optional, Set, Tuple

from repro.serve.stats import PRIORITIES
from repro.utils.errors import (
    DeadlineExceeded,
    NoHealthyReplica,
    ReproError,
    ServeError,
    ServerDraining,
    ServerOverloaded,
    ShardError,
    TenantQuotaExceeded,
    ValidationError,
)

MAGIC = b"RSF1"
DIGEST_SIZE = 16
DEFAULT_AUTHKEY = b"repro-shard"

#: connect timeout for the TCP handshake.
CONNECT_TIMEOUT = 10.0


class FrameError(ShardError):
    """A wire-protocol violation (bad magic, short read, oversize)."""


class FrameCorrupted(FrameError):
    """A frame failed its integrity check — retryable transport loss."""


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
    address: str, allow_port_zero: bool = False, what: str = "server"
) -> Tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` with validation.

    Rejects missing hosts, non-integer or out-of-range ports, with a
    clear :class:`~repro.utils.errors.ValidationError` naming the bad
    string — the shared front door for daemon and router binds, router
    daemon lists and client addresses, so a typo fails at construction
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


def resolve_authkey(flag: Optional[str]) -> bytes:
    """The frame key a server entry point runs with.

    The ``--authkey`` flag wins, then the ``REPRO_SHARD_AUTHKEY``
    environment variable (how :func:`~repro.serve.daemon.spawn_server`
    hands a key to its child without putting it on the command line),
    then the built-in development key.
    """
    if flag is not None:
        return flag.encode("latin-1")
    env = os.environ.get("REPRO_SHARD_AUTHKEY")
    return env.encode("latin-1") if env else DEFAULT_AUTHKEY


#: daemon-side operations; anything else gets a structured error reply.
OPS = ("submit", "health", "stats", "ping", "drain")

#: job kinds the executor understands.
JOB_KINDS = ("cluster", "embed", "objective")

#: largest request body a front reads (16 MiB).  A request is a job
#: description carrying at most ``r`` weights, never an array; a header
#: declaring more drops the connection before any body byte is read.
MAX_REQUEST_BYTES = 16 * 2**20

#: wire ``kind`` -> exception class, the client-side decoder ring.
KIND_TO_ERROR = {
    "overloaded": ServerOverloaded,
    "quota": TenantQuotaExceeded,
    "draining": ServerDraining,
    "deadline": DeadlineExceeded,
    "no-replica": NoHealthyReplica,
    "serve": ServeError,
    "validation": ValidationError,
    "shard": ShardError,
}


def error_reply(error: BaseException) -> Dict[str, Any]:
    """Encode any exception as the structured ``ok=False`` reply."""
    if isinstance(error, ServeError):
        kind, fields = error.kind, dict(error.fields)
        message = Exception.__str__(error)  # fields rendered separately
    elif isinstance(error, ValidationError):
        kind, fields, message = "validation", {}, str(error)
    elif isinstance(error, ShardError):
        kind, fields = "shard", error.context()
        message = Exception.__str__(error)
    elif isinstance(error, ReproError):
        kind, fields, message = "serve", {}, str(error)
    else:
        kind, fields = "serve", {"type": type(error).__name__}
        message = f"internal error: {type(error).__name__}: {error}"
    return {
        "ok": False,
        "error": {"kind": kind, "message": message, "fields": fields},
    }


def reply_to_error(payload: Dict[str, Any]) -> ReproError:
    """Rebuild the typed exception from an ``ok=False`` reply body."""
    detail = payload.get("error") or {}
    kind = detail.get("kind", "serve")
    message = detail.get("message", "server reported an error")
    fields = detail.get("fields") or {}
    cls = KIND_TO_ERROR.get(kind, ServeError)
    if issubclass(cls, ServeError):
        return cls(message, **fields)
    if cls is ShardError:
        return ShardError(message, **fields)
    return cls(message)


def check_request(message: Any) -> Dict[str, Any]:
    """Validate an inbound frame body; raise ``ValidationError`` if bad."""
    if not isinstance(message, dict):
        raise ValidationError(
            f"request must be a dict, got {type(message).__name__}"
        )
    op = message.get("op")
    if op not in OPS:
        raise ValidationError(f"unknown op {op!r} (expected one of {OPS})")
    if op == "submit":
        job = message.get("job")
        if not isinstance(job, dict):
            raise ValidationError("submit requires a 'job' dict")
        if job.get("kind") not in JOB_KINDS:
            raise ValidationError(
                f"unknown job kind {job.get('kind')!r} "
                f"(expected one of {JOB_KINDS})"
            )
        deadline = message.get("deadline")
        if deadline is not None and (
            not isinstance(deadline, (int, float)) or deadline <= 0
        ):
            raise ValidationError(
                f"deadline must be positive seconds, got {deadline!r}"
            )
        tenant = message.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            raise ValidationError(
                f"tenant must be a non-empty string, got {tenant!r}"
            )
        priority = message.get("priority")
        if priority is not None and priority not in PRIORITIES:
            raise ValidationError(
                f"unknown priority {priority!r} "
                f"(expected one of {PRIORITIES})"
            )
    return message


class FrameServer:
    """Threaded framed-TCP front shared by the daemon and the router.

    One accept thread hands each connection to its own thread, which
    loops ``recv_frame`` -> :meth:`_handle` -> ``send_frame``.  Requests
    are read under :data:`MAX_REQUEST_BYTES`; a frame that breaks the
    protocol (:class:`FrameError`) drops its connection, as a vanished
    client does.  A subclass implements :meth:`_handle` plus its lifecycle, ``start()``
    and ``stop(drain=...)``, built on :meth:`_open_front` and
    :meth:`_close_front`; ``with`` starts it and stops it undrained.
    """

    #: names the threads and the bind errors (``"serve"``, ``"router"``).
    role = "frame"

    def __init__(self, bind: str, authkey: bytes) -> None:
        self._bind = bind
        self._authkey = authkey
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._connections: Set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        self._stopping = threading.Event()
        self.address: Optional[str] = None

    def __enter__(self) -> "FrameServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop(drain=False)

    def _open_front(self) -> str:
        """Bind, listen, start accepting; returns the actual ``host:port``."""
        host, port = parse_address(
            self._bind, allow_port_zero=True, what=f"{self.role} bind"
        )
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((host, port))
            listener.listen(128)
        except OSError:
            listener.close()
            raise
        listener.settimeout(0.2)
        self._listener = listener
        bound_host, bound_port = listener.getsockname()[:2]
        self.address = f"{bound_host}:{bound_port}"
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"repro-{self.role}-accept",
            daemon=True,
        )
        self._accept_thread.start()
        return self.address

    def _close_front(self) -> None:
        """Stop listening and answering, in an order that leaves no gap.

        The accept thread is joined first: its in-flight ``poll`` keeps
        the listening socket alive past ``close()``, so a connect made
        in that window would be accepted into the backlog and then
        reset instead of refused.  Then the listener closes, and every
        accepted connection is shut down, so a request sent on a
        connection opened before the stop fails at once instead of
        waiting out its deadline.
        """
        self._stopping.set()
        if self._accept_thread is not None:
            self._accept_thread.join()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._connections_lock:
            connections = list(self._connections)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._connections_lock:
                self._connections.add(conn)
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name=f"repro-{self.role}-conn",
                daemon=True,
            ).start()

    def _serve_connection(self, sock: socket.socket) -> None:
        try:
            while not self._stopping.is_set():
                try:
                    sock.settimeout(None)
                    message = recv_frame(
                        sock, self._authkey, max_bytes=MAX_REQUEST_BYTES
                    )
                except (ConnectionError, socket.timeout, OSError):
                    return
                except FrameError:
                    return  # bad magic, oversized or corrupt: drop it
                try:
                    reply = self._handle(sock, check_request(message))
                except Exception as error:  # never kill the connection
                    reply = error_reply(error)
                if reply is None:
                    return  # client vanished mid-request
                try:
                    send_frame(sock, reply, self._authkey)
                except (ConnectionError, OSError):
                    return
        finally:
            with self._connections_lock:
                self._connections.discard(sock)
            try:
                sock.close()
            except OSError:
                pass

    def _handle(
        self, sock: socket.socket, message: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """One checked request -> its reply (``None``: drop the client)."""
        raise NotImplementedError
