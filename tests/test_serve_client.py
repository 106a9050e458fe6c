"""Regression tests of the client's transparent transport retry.

A byte-level TCP proxy sits between :class:`ServeClient` and a live
daemon and injects the two RETRYABLE failure modes on command: killing
the connection after the daemon has *accepted and answered* (the
mid-reply EOF of a crashing peer) and flipping a payload byte (a
corrupted frame caught by the keyed digest).  Idempotent traffic must
survive both invisibly; non-retryable paths must keep failing loudly.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro.serve import ServeClient, ServeConfig, ServeDaemon
from repro.serve.client import IDEMPOTENT_KINDS, RETRYABLE_ERRORS
from repro.serve.protocol import FrameCorrupted, FrameError, send_frame
from repro.utils.errors import ServeError

PROFILE = "rm_small"
R = 11


def make_job():
    return {
        "kind": "objective", "profile": PROFILE, "k": 2,
        "weights": np.full(R, 1.0 / R),
    }


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(n)
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _read_frame_bytes(sock: socket.socket) -> bytes:
    # MAGIC(4) | LENGTH(8, big-endian) | DIGEST(16) | BODY — see
    # repro.serve.protocol; the proxy relays frames without decoding them.
    header = _recv_exact(sock, 12)
    length = int.from_bytes(header[4:12], "big")
    return header + _recv_exact(sock, 16 + length)


class FlakyProxy:
    """Frame-aware proxy that sabotages replies on a scripted plan.

    Each entry in ``plan`` governs one request/reply exchange, in
    order: ``"ok"`` relays intact, ``"eof"`` reads the daemon's reply
    then closes the client side without relaying it (the request WAS
    executed — exactly the case where blind retry of a mutation would
    double-apply), ``"corrupt"`` flips the last body byte so the
    client's digest check fails.  Exchanges beyond the plan pass clean.
    """

    def __init__(self, upstream: str, plan):
        host, port = upstream.rsplit(":", 1)
        self.upstream = (host, int(port))
        self.plan = list(plan)
        self.served = []  # actions actually taken, in order
        self._lock = threading.Lock()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.address = "127.0.0.1:%d" % self._listener.getsockname()[1]
        self._stopping = False
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()

    def _next_action(self) -> str:
        with self._lock:
            action = self.plan.pop(0) if self.plan else "ok"
            self.served.append(action)
            return action

    def _accept_loop(self) -> None:
        while not self._stopping:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._handle, args=(client,), daemon=True
            ).start()

    def _handle(self, client: socket.socket) -> None:
        upstream = None
        try:
            upstream = socket.create_connection(self.upstream, 10.0)
            while True:
                request = _read_frame_bytes(client)
                upstream.sendall(request)
                reply = _read_frame_bytes(upstream)
                action = self._next_action()
                if action == "eof":
                    client.close()
                    return
                if action == "corrupt":
                    reply = reply[:-1] + bytes([reply[-1] ^ 0xFF])
                client.sendall(reply)
        except (ConnectionError, OSError):
            pass
        finally:
            for sock in (client, upstream):
                if sock is not None:
                    try:
                        sock.close()
                    except OSError:
                        pass

    def close(self) -> None:
        self._stopping = True
        try:
            self._listener.close()
        except OSError:
            pass

    def __enter__(self) -> "FlakyProxy":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class BadMagicServer:
    """Fake daemon whose first connection answers every request with a
    frame under the wrong magic, then keeps the connection open; later
    connections answer ``{"ok": True}``.  A client that reads the bad
    header but keeps its socket reads the unread body next."""

    BAD_FRAME = b"xxxx" + (64).to_bytes(8, "big") + bytes(16) + b"x" * 64

    def __init__(self):
        self.connections = 0
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.address = "127.0.0.1:%d" % self._listener.getsockname()[1]
        threading.Thread(target=self._accept_loop, daemon=True).start()

    def _accept_loop(self) -> None:
        while True:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            threading.Thread(
                target=self._handle,
                args=(client, self.connections == 1),
                daemon=True,
            ).start()

    def _handle(self, client: socket.socket, bad: bool) -> None:
        try:
            while True:
                _read_frame_bytes(client)
                if bad:
                    client.sendall(self.BAD_FRAME)
                else:
                    send_frame(client, {"ok": True})
        except (ConnectionError, OSError):
            pass
        finally:
            client.close()

    def __enter__(self) -> "BadMagicServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self._listener.close()


@pytest.fixture(scope="module")
def daemon():
    with ServeDaemon(ServeConfig(bind="127.0.0.1:0", workers=2)) as d:
        yield d


class TestTransparentRetry:
    def test_mid_reply_connection_kill_is_invisible(self, daemon):
        with ServeClient(daemon.address) as direct:
            expected = direct.submit(make_job())["result"]
        with FlakyProxy(daemon.address, ["eof"]) as proxy:
            with ServeClient(proxy.address, retries=2) as client:
                reply = client.submit(make_job())
                assert reply["result"]["value"] == expected["value"]
                assert np.array_equal(
                    reply["result"]["eigenvalues"],
                    expected["eigenvalues"],
                )
                assert client.retried == 1
                assert proxy.served == ["eof", "ok"]

    def test_corrupted_frame_is_invisible(self, daemon):
        with FlakyProxy(daemon.address, ["corrupt"]) as proxy:
            with ServeClient(proxy.address, retries=2) as client:
                reply = client.submit(make_job())
                assert reply["ok"] is True
                assert client.retried == 1
                assert proxy.served == ["corrupt", "ok"]

    def test_back_to_back_failures_within_budget(self, daemon):
        with FlakyProxy(daemon.address, ["eof", "corrupt"]) as proxy:
            with ServeClient(proxy.address, retries=2) as client:
                reply = client.submit(make_job())
                assert reply["ok"] is True
                assert client.retried == 2

    def test_retries_exhausted_raise_the_transport_error(self, daemon):
        with FlakyProxy(daemon.address, ["eof"] * 3) as proxy:
            with ServeClient(proxy.address, retries=2) as client:
                with pytest.raises(RETRYABLE_ERRORS):
                    client.submit(make_job())
                assert client.retried == 2

    def test_health_ops_retry(self, daemon):
        with FlakyProxy(daemon.address, ["eof"]) as proxy:
            with ServeClient(proxy.address, retries=1) as client:
                health = client.health()
                assert health["ok"] is True
                assert client.retried == 1

    def test_ping_retries(self, daemon):
        with FlakyProxy(daemon.address, ["corrupt"]) as proxy:
            with ServeClient(proxy.address, retries=1) as client:
                assert client.ping() is True
                assert client.retried == 1


class TestRetryBoundaries:
    def test_non_retryable_request_fails_loud(self, daemon):
        with FlakyProxy(daemon.address, ["eof"]) as proxy:
            with ServeClient(proxy.address, retries=2) as client:
                with pytest.raises(ConnectionError):
                    client.request({"op": "stats"}, retryable=False)
                assert client.retried == 0

    def test_unknown_job_kind_is_not_retried(self):
        # the retry gate is the kind allowlist, independent of the wire
        assert "objective" in IDEMPOTENT_KINDS
        assert "mutate_state" not in IDEMPOTENT_KINDS

    def test_zero_retries_disables(self, daemon):
        with FlakyProxy(daemon.address, ["eof"]) as proxy:
            with ServeClient(proxy.address, retries=0) as client:
                with pytest.raises(ConnectionError):
                    client.submit(make_job())
                assert client.retried == 0

    def test_bad_frame_drops_the_connection(self):
        # A bad frame is raised, never retried, and its connection is
        # dropped: the next request reconnects instead of reading the
        # bad frame's body as its reply.
        with BadMagicServer() as server:
            with ServeClient(server.address, timeout=10.0) as client:
                with pytest.raises(FrameError, match="magic"):
                    client.request({"op": "ping"}, retryable=True)
                assert client.retried == 0
                assert client.request({"op": "ping"}) == {"ok": True}
                assert server.connections == 2

    def test_negative_retries_rejected(self, daemon):
        with pytest.raises(ServeError):
            ServeClient(daemon.address, retries=-1)

    def test_retry_is_bounded_in_time_and_attempts(self, daemon):
        # every attempt fails: the retry loop stops at whichever runs
        # out first — the attempt budget or the overall timeout budget.
        with FlakyProxy(daemon.address, ["eof"] * 100) as proxy:
            with ServeClient(proxy.address, retries=10) as client:
                started = time.monotonic()
                with pytest.raises(
                    (socket.timeout, ConnectionError, OSError)
                ):
                    client.submit(make_job(), deadline=0.5)
                assert time.monotonic() - started < 30.0
                assert client.retried <= 10

    def test_structured_errors_never_retried(self, daemon):
        # a typed error reply travels a healthy connection: no resend
        with FlakyProxy(daemon.address, []) as proxy:
            with ServeClient(proxy.address, retries=2) as client:
                with pytest.raises(Exception) as excinfo:
                    client.submit({
                        "kind": "objective", "profile": PROFILE, "k": 2,
                        "weights": np.full(R, 1.0 / R),
                        "config": {"bogus_knob": 1},
                    })
                assert not isinstance(excinfo.value, FrameCorrupted)
                assert client.retried == 0
