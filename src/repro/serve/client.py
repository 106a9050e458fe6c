"""Client for the serving daemon: typed errors, deadline-aware sockets.

One :class:`ServeClient` holds one TCP connection (reconnecting lazily
after a drop) and speaks the :mod:`repro.serve.protocol` schema.  Error
replies come back as the *typed* exceptions —
:class:`~repro.utils.errors.ServerOverloaded`,
:class:`~repro.utils.errors.DeadlineExceeded`, ... — rebuilt from the
wire ``kind`` tag, so calling code writes ``except ServerOverloaded:``
instead of string-matching messages.

Socket timeouts track the request deadline plus a grace window: the
daemon promises a structured reply *at* the deadline, and the grace
covers wire latency — a client never hangs on a dead daemon either.

Transport loss on *idempotent* traffic is retried transparently: all
current job kinds (cluster / embed / objective) are deterministic and
read-only, so a connection reset or corrupted frame mid-reply is
answered by reconnecting and resending — the caller sees the result,
not the blip.  Retries are bounded (``retries`` attempts after the
first) and never applied to non-retryable failures: a structured error
reply travels a healthy connection and is raised as its typed
exception, and a socket timeout means the deadline budget is spent.
Any other frame error (bad magic) is raised unretried and drops the
connection, since the unread frame body leaves the stream out of step.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, Optional

from repro.serve.protocol import (
    CONNECT_TIMEOUT,
    DEFAULT_AUTHKEY,
    FrameCorrupted,
    FrameError,
    parse_address,
    recv_frame,
    reply_to_error,
    send_frame,
)
from repro.utils.errors import ServeError

#: wire-latency allowance on top of a request deadline.
REPLY_GRACE = 10.0

#: job kinds safe to resend after transport loss (deterministic,
#: read-only pipelines; mirrors ``repro.serve.router.IDEMPOTENT_KINDS``).
IDEMPOTENT_KINDS = frozenset({"cluster", "embed", "objective"})

#: transport failures that warrant reconnect-and-resend on idempotent
#: traffic: a dropped/reset connection (``ConnectionError``, which also
#: covers ``ConnectionResetError`` and EOF mid-frame) or a frame that
#: failed its integrity check.  ``socket.timeout`` is deliberately NOT
#: here — a timed-out request has spent its deadline budget.
RETRYABLE_ERRORS = (FrameCorrupted, ConnectionError)


class ServeClient:
    """Typed front door to one serving daemon.

    Parameters
    ----------
    address:
        The daemon's ``host:port``.
    tenant:
        Tenant identity attached to every submit (quotas, fair share,
        and per-tenant stats key off it).
    authkey:
        Frame-integrity key; must match the daemon's.
    timeout:
        Socket timeout for deadline-less requests (``None`` waits
        indefinitely, matching the daemon's no-deadline contract).
    retries:
        Transparent resend attempts after transport loss, applied only
        to idempotent traffic (read-only job kinds and the health /
        stats / ping / drain ops).  ``0`` disables retrying.  The
        router does not go through this class: it dispatches on its
        own pooled raw sockets (``_Endpoint``) and does its own
        failure accounting.
    """

    def __init__(
        self,
        address: str,
        tenant: str = "default",
        authkey: bytes = DEFAULT_AUTHKEY,
        timeout: Optional[float] = None,
        retries: int = 2,
    ) -> None:
        parse_address(address, what="serve daemon")
        if retries < 0:
            raise ServeError(f"retries must be >= 0, got {retries}")
        self.address = address
        self.tenant = tenant
        self.authkey = authkey
        self.timeout = timeout
        self.retries = int(retries)
        #: transport retries performed over this client's lifetime
        #: (observability: a noisy network shows up here, not nowhere).
        self.retried = 0
        self._sock: Optional[socket.socket] = None

    # ------------------------------------------------------------------ #

    def connect(self) -> None:
        if self._sock is not None:
            return
        host, port = parse_address(self.address, what="serve daemon")
        sock = socket.create_connection(
            (host, port), timeout=CONNECT_TIMEOUT
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "ServeClient":
        self.connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #

    def request(
        self,
        message: Dict[str, Any],
        timeout: Optional[float] = None,
        retryable: bool = False,
    ) -> Dict[str, Any]:
        """One request/reply; drops the connection on transport errors.

        With ``retryable=True`` (idempotent traffic only), transport
        loss triggers up to ``self.retries`` reconnect-and-resend
        attempts inside the same overall timeout budget — a connection
        killed mid-reply is invisible to the caller.
        """
        effective = timeout if timeout is not None else self.timeout
        expires_at = (
            time.monotonic() + effective if effective is not None else None
        )
        attempts = 1 + (self.retries if retryable else 0)
        last_error: Optional[BaseException] = None
        for attempt in range(attempts):
            if attempt > 0:
                self.retried += 1
            remaining = None
            if expires_at is not None:
                remaining = expires_at - time.monotonic()
                if remaining <= 0:
                    break
            try:
                self.connect()
                sock = self._sock
                assert sock is not None
                sock.settimeout(remaining if effective is not None else None)
                send_frame(sock, message, self.authkey)
                reply = recv_frame(sock, self.authkey, expires_at)
            except RETRYABLE_ERRORS as error:
                self.close()
                last_error = error
                continue
            except (FrameError, socket.timeout, OSError):
                # A bad frame leaves its body unread in the socket, so
                # the connection is out of step: drop it, never reuse it.
                self.close()
                raise
            if not isinstance(reply, dict):
                self.close()
                raise ServeError(
                    f"malformed daemon reply: {type(reply).__name__}"
                )
            return reply
        if last_error is None:  # zero/negative timeout budget
            raise socket.timeout("request timeout budget exhausted")
        raise last_error

    def _checked(
        self,
        message: Dict[str, Any],
        timeout: Optional[float] = None,
        retryable: bool = False,
    ) -> Dict[str, Any]:
        reply = self.request(message, timeout, retryable=retryable)
        if not reply.get("ok"):
            raise reply_to_error(reply)
        return reply

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #

    def submit(
        self,
        job: Dict[str, Any],
        deadline: Optional[float] = None,
        tenant: Optional[str] = None,
        priority: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Submit one job; returns the full ``ok`` reply
        (``result`` / ``queue_wait`` / ``batched``, plus
        ``cached=True`` when the daemon answered from its
        deterministic result cache).

        ``priority`` is the scheduling class (``"interactive"`` /
        ``"normal"`` / ``"batch"``); ``None`` omits the field, which
        the daemon reads as ``"normal"`` (and which keeps the message
        compatible with pre-priority daemons).

        Raises the typed shed/deadline errors on refusal.  The socket
        timeout is the deadline plus :data:`REPLY_GRACE` — the daemon
        replies at the deadline, the grace only covers the wire.

        Read-only job kinds (all current ones) are resent transparently
        after a reset or corrupted frame, up to ``self.retries`` times;
        an unknown (potentially mutating) kind is never retried.
        """
        timeout = deadline + REPLY_GRACE if deadline is not None else None
        message = {
            "op": "submit",
            "tenant": tenant if tenant is not None else self.tenant,
            "deadline": deadline,
            "job": job,
        }
        if priority is not None:
            message["priority"] = priority
        return self._checked(
            message,
            timeout=timeout,
            retryable=job.get("kind") in IDEMPOTENT_KINDS,
        )

    def ping(self, timeout: float = CONNECT_TIMEOUT) -> bool:
        try:
            return bool(
                self.request(
                    {"op": "ping"}, timeout, retryable=True
                ).get("ok")
            )
        except Exception:
            return False

    def health(self, timeout: float = CONNECT_TIMEOUT) -> Dict[str, Any]:
        """The daemon's health snapshot (answered inline, even under
        overload)."""
        return self._checked(
            {"op": "health"}, timeout=timeout, retryable=True
        )

    def stats(self, timeout: float = CONNECT_TIMEOUT) -> Dict[str, Any]:
        """Per-tenant statistics (the ``stats`` half of the snapshot)."""
        return self._checked(
            {"op": "stats"}, timeout=timeout, retryable=True
        )["stats"]

    def drain(self, timeout: float = CONNECT_TIMEOUT) -> None:
        """Ask the daemon to stop admitting (idempotent: draining twice
        is draining)."""
        self._checked({"op": "drain"}, timeout=timeout, retryable=True)
