"""Serve wire schema on top of the shard frame protocol.

Frames are the ``MAGIC | length | keyed-BLAKE2b-MAC | pickle`` format of
:mod:`repro.shard.remote` (:func:`~repro.shard.remote.send_frame` /
:func:`~repro.shard.remote.recv_frame`), reused verbatim — same
integrity check, same shared-key handshake.  This module only pins the
*bodies*:

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

import socket
import threading
from typing import Any, Dict, Optional, Set

from repro.serve.stats import PRIORITIES
from repro.shard.remote import (
    FrameError,
    parse_address,
    recv_frame,
    send_frame,
)
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
    protocol (:class:`~repro.shard.remote.FrameError`) drops its
    connection, as a vanished client does.  A subclass implements :meth:`_handle` plus its lifecycle, ``start()``
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
