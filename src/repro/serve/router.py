"""Replicated front tier: ring routing, health, breakers, failover.

``python -m repro.serve.router --daemons HOST:PORT,...`` runs a router
process speaking the *same* framed-TCP protocol as the daemons it
fronts — a :class:`~repro.serve.client.ServeClient` pointed at the
router needs no changes — and places every submit on a
:class:`~repro.serve.ring.HashRing` keyed by the job's dataset identity
(:func:`~repro.serve.ring.route_key`), so repeated traffic for one
profile lands on the daemon whose prepared-dataset cache is already
warm, and a fleet-membership change remaps only ~1/N of the keys.

Robustness machinery, per daemon:

* an **active health checker** polls the PR 8 ``health`` endpoint every
  ``health_interval`` seconds: dead daemons (probe failure) and
  draining daemons (SIGTERM in progress) leave the rotation at the
  next probe, and a daemon whose queue depth reaches
  :data:`OVERLOAD_DEPTH_FRACTION` of capacity is treated as browned
  out and deprioritized;
* a **circuit breaker** (CLOSED → OPEN after ``breaker_failures``
  consecutive infrastructure failures → one HALF_OPEN probe after
  ``breaker_cooldown`` → CLOSED on success) stops the router from
  burning deadline budget re-dialing a daemon that just failed;
* **deadline-aware failover**: a failed dispatch of an idempotent job
  class moves to the next replica in ring order while budget remains —
  transport loss, ``ShardError`` replies (the daemon's compute
  substrate is broken, a sibling's may not be), overload and draining
  refusals all fail over; client errors (validation, tenant quota,
  global deadline) propagate immediately.

Each dispatch is one synchronous request/reply on one pooled socket,
made by the failover loop in :meth:`Router._route`.

Every decision is counted in a :class:`RouteStats`
(failovers, breaker transitions, per-daemon outcomes), and the
router's ``health`` op aggregates the whole fleet — queue depths,
breaker states, per-daemon stats — which ``repro.cli serve-stats``
renders.  All daemons are deterministic (PR 8's bit-identity
contract), so a request's results are bit-identical whichever replica
ends up serving it; failures change *where* work runs, never *what* it
returns.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import sys
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.serve.client import REPLY_GRACE
from repro.serve.config import RouterConfig
from repro.serve.protocol import (
    CONNECT_TIMEOUT,
    FrameCorrupted,
    FrameError,
    FrameServer,
    parse_address,
    recv_frame,
    reply_to_error,
    resolve_authkey,
    send_frame,
)
from repro.serve.results import ResultCache
from repro.serve.ring import HashRing, route_key
from repro.serve.stats import ServeStats, percentile
from repro.utils.counters import merge_snapshots
from repro.utils.errors import (
    DeadlineExceeded,
    NoHealthyReplica,
    ReproError,
    ServeError,
    ServerDraining,
    ServerOverloaded,
    ShardError,
)

#: job kinds safe to re-dispatch (deterministic, read-only pipelines);
#: a future mutating job kind must not be listed here.
IDEMPOTENT_KINDS = frozenset({"cluster", "embed", "objective"})

#: transport-level failures: the daemon (or the wire to it) is gone.
TRANSPORT_ERRORS = (
    FrameCorrupted, FrameError, ConnectionError, socket.timeout, OSError,
    EOFError,
)

#: dispatch latency samples kept for the ``route:`` line's p50/p99.
LATENCY_SAMPLES = 512

#: a daemon whose probed queue depth is at least this fraction of its
#: capacity is browned out: sorted after healthy replicas, still eligible.
OVERLOAD_DEPTH_FRACTION = 0.9

#: idle pooled dispatch connections kept per daemon.
POOL_SIZE = 8

#: breaker states.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"

_COUNTERS = (
    "requests", "completed", "failed", "failovers", "breaker_opens",
    "breaker_probes", "breaker_closes", "breaker_rejections",
    "skipped_unhealthy", "no_replica",
)

#: per daemon, every ``routed`` dispatch ends ``completed`` or ``failed``.
_DAEMON_COUNTERS = ("routed", "completed", "failed")


class RouteStats:
    """Routing counters (the ``route:`` line's backing store).

    Same conventions as ``ServeStats``: thread-safe counters observable
    end to end, a wire :meth:`snapshot`, a one-line ``summary()``, and a
    bounded dispatch-latency reservoir (the snapshot's p50/p99).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        for name in _COUNTERS:
            setattr(self, name, 0)
        self._daemons: Dict[str, Dict[str, int]] = {}
        self._latencies: Deque[float] = deque(maxlen=LATENCY_SAMPLES)

    def bump(self, counter: str, by: int = 1) -> None:
        if counter not in _COUNTERS:
            raise KeyError(counter)
        with self._lock:
            setattr(self, counter, getattr(self, counter) + by)

    def bump_daemon(self, address: str, counter: str, by: int = 1) -> None:
        if counter not in _DAEMON_COUNTERS:
            raise KeyError(counter)
        with self._lock:
            per = self._daemons.setdefault(
                address, {name: 0 for name in _DAEMON_COUNTERS}
            )
            per[counter] += by

    def observe_latency(self, seconds: float) -> None:
        with self._lock:
            self._latencies.append(float(seconds))

    def snapshot(self) -> dict:
        with self._lock:
            payload = {name: getattr(self, name) for name in _COUNTERS}
            payload["daemons"] = {
                address: dict(per)
                for address, per in sorted(self._daemons.items())
            }
            samples = list(self._latencies)
        payload["dispatch_p50_ms"] = percentile(samples, 50) * 1e3
        payload["dispatch_p99_ms"] = percentile(samples, 99) * 1e3
        return payload

    def summary(self) -> str:
        return self.summary_from_snapshot(self.snapshot())

    @staticmethod
    def summary_from_snapshot(snap: dict) -> str:
        """Render the one-line ``route:`` digest (CLI + shutdown log)."""
        return (
            f"{snap['requests']} requests over "
            f"{len(snap['daemons'])} daemon(s), "
            f"{snap['completed']} completed, {snap['failed']} failed, "
            f"{snap['failovers']} failovers, breakers "
            f"{snap['breaker_opens']} opened / "
            f"{snap['breaker_closes']} closed; dispatch "
            f"p50 {snap['dispatch_p50_ms']:.1f}ms / "
            f"p99 {snap['dispatch_p99_ms']:.1f}ms"
        )


class CircuitBreaker:
    """Per-daemon breaker: CLOSED → OPEN → HALF_OPEN probe → CLOSED.

    Only *infrastructure* failures count (transport loss, ``ShardError``
    replies); admission refusals and client errors never trip it.  A
    probe is granted only while no other dispatch to the daemon is in
    flight, so HALF_OPEN admits exactly one concurrent request — a
    recovering daemon sees a single request, not the thundering herd.
    """

    def __init__(
        self,
        failures: int = 3,
        cooldown: float = 5.0,
        stats: Optional[RouteStats] = None,
        clock=time.monotonic,
    ) -> None:
        self.failures = int(failures)
        self.cooldown = float(cooldown)
        self.stats = stats
        self._clock = clock
        self._lock = threading.Lock()
        self.state = CLOSED
        self._consecutive = 0
        self._opened_at = 0.0
        self._inflight = 0  # slots granted by allow() and not yet settled

    def _probe_ready(self) -> bool:
        """Lock held: may a non-CLOSED breaker grant its probe now?"""
        if self._inflight:
            return False
        if self.state == OPEN:
            return self._clock() - self._opened_at >= self.cooldown
        return True  # HALF_OPEN with its probe settled

    def would_allow(self) -> bool:
        """Non-mutating routing check (candidate ordering)."""
        with self._lock:
            return self.state == CLOSED or self._probe_ready()

    def allow(self) -> bool:
        """Claim a dispatch slot (mutating; settle it with exactly one
        of record_success / record_failure / release_probe)."""
        with self._lock:
            if self.state != CLOSED:
                if not self._probe_ready():
                    if self.stats is not None:
                        self.stats.bump("breaker_rejections")
                    return False
                self.state = HALF_OPEN
                if self.stats is not None:
                    self.stats.bump("breaker_probes")
            self._inflight += 1
            return True

    def _settle(self) -> None:
        # Clamped at zero: a record_* call with no grant behind it
        # (forcing a breaker open by hand) must not bank a credit that
        # would later admit a second probe beside the first.
        self._inflight = max(0, self._inflight - 1)

    def record_success(self) -> None:
        with self._lock:
            self._settle()
            if self.state != CLOSED and self.stats is not None:
                self.stats.bump("breaker_closes")
            self.state = CLOSED
            self._consecutive = 0

    def release_probe(self) -> None:
        """Neutral outcome: free a slot claimed by :meth:`allow` without
        judging the daemon.

        Every ``allow()`` must be balanced by exactly one of
        ``record_success`` / ``record_failure`` / ``release_probe``, or
        the slot stays claimed forever and, once the breaker opens, the
        daemon is permanently excluded from routing.  The neutral cases:
        admission refusals (draining/overloaded) and typed client errors
        (validation, quota, deadline — they say nothing about the
        daemon)."""
        with self._lock:
            self._settle()

    def record_failure(self) -> None:
        with self._lock:
            self._settle()
            self._consecutive += 1
            if self.state == HALF_OPEN or (
                self.state == CLOSED and self._consecutive >= self.failures
            ):
                if self.stats is not None:
                    self.stats.bump("breaker_opens")
                self.state = OPEN
                self._opened_at = self._clock()
            elif self.state == OPEN:
                # A straggler failure while already open: refresh the
                # cooldown so a dead daemon is not probed every failure.
                self._opened_at = self._clock()


class DaemonHealth:
    """Last probed health of one daemon (written by the health thread,
    read by routing; the GIL makes the individual field reads safe and
    routing only needs a consistent-enough picture)."""

    def __init__(self) -> None:
        self.alive = True  # optimistic until the first probe says no
        self.draining = False
        self.queue_depth = 0
        self.queue_capacity = 1
        self.probed_at = 0.0
        self.rtt = 0.0
        self.error: Optional[str] = None
        self.snapshot: Optional[dict] = None

    def overloaded(self) -> bool:
        return self.queue_depth >= max(1, int(
            self.queue_capacity * OVERLOAD_DEPTH_FRACTION
        ))


class _Endpoint:
    """Pooled raw connections to one daemon (router side).

    Raw sockets, not :class:`ServeClient`: the router owns failover and
    retry itself, so a dead socket must surface at once as a typed
    failure, not be retried behind its back.
    """

    def __init__(self, address: str) -> None:
        parse_address(address, what="router daemon")
        self.address = address
        self._idle: List[socket.socket] = []
        self._lock = threading.Lock()

    def checkout(self) -> socket.socket:
        with self._lock:
            if self._idle:
                return self._idle.pop()
        host, port = parse_address(self.address, what="router daemon")
        sock = socket.create_connection((host, port), CONNECT_TIMEOUT)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def checkin(self, sock: socket.socket) -> None:
        with self._lock:
            if len(self._idle) < POOL_SIZE:
                self._idle.append(sock)
                return
        self.discard(sock)

    @staticmethod
    def discard(sock: socket.socket) -> None:
        try:
            sock.close()
        except OSError:
            pass

    def close_all(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for sock in idle:
            self.discard(sock)


class _AttemptFailed(Exception):
    """Internal: one dispatch attempt failed; carries failover intent."""

    def __init__(self, error: BaseException, infrastructure: bool) -> None:
        super().__init__(str(error))
        self.error = error
        #: True for transport/ShardError failures (count against the
        #: breaker); False for admission refusals (health signal only).
        self.infrastructure = infrastructure


class Router:
    """The routing core: ring placement + health + breakers + failover.

    Library-embeddable (tests drive it without sockets via
    :meth:`submit`); :class:`RouterDaemon` adds the TCP front.
    """

    def __init__(self, config: RouterConfig) -> None:
        self.config = config
        self.ring = HashRing(config.daemons, vnodes=config.vnodes)
        self.stats = RouteStats()
        self._endpoints = {
            address: _Endpoint(address) for address in config.daemons
        }
        self.health = {address: DaemonHealth() for address in config.daemons}
        self.breakers = {
            address: CircuitBreaker(
                config.breaker_failures,
                config.breaker_cooldown,
                stats=self.stats,
            )
            for address in config.daemons
        }
        self._monitors: Dict[str, Optional[socket.socket]] = {
            address: None for address in config.daemons
        }
        self._stopping = threading.Event()
        self._draining = False
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._idle = threading.Condition(self._inflight_lock)
        self._health_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """One synchronous probe round, then the background checker."""
        self.probe_now()
        thread = threading.Thread(
            target=self._health_loop, name="repro-router-health", daemon=True
        )
        thread.start()
        self._health_thread = thread

    def drain(self) -> None:
        self._draining = True

    @property
    def draining(self) -> bool:
        return self._draining

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no forwarded request is in flight."""
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        with self._idle:
            while self._inflight > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(remaining)
            return True

    def close(self) -> None:
        self._stopping.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=5)
        for monitor in self._monitors.values():
            if monitor is not None:
                _Endpoint.discard(monitor)
        self._monitors = {address: None for address in self._monitors}
        for endpoint in self._endpoints.values():
            endpoint.close_all()

    def __enter__(self) -> "Router":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Health checking
    # ------------------------------------------------------------------ #

    def _health_loop(self) -> None:
        while not self._stopping.wait(self.config.health_interval):
            self.probe_now()

    def probe_now(self) -> None:
        """One probe round over every daemon (synchronous)."""
        for address in self._endpoints:
            if self._stopping.is_set():
                return
            self._probe_one(address)

    def _probe_one(self, address: str) -> None:
        health = self.health[address]
        expires_at = time.monotonic() + self.config.health_timeout
        monitor = self._monitors.get(address)
        try:
            if monitor is None:
                host, port = parse_address(address, what="router daemon")
                monitor = socket.create_connection(
                    (host, port), self.config.health_timeout
                )
                monitor.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
                self._monitors[address] = monitor
            started = time.monotonic()
            monitor.settimeout(self.config.health_timeout)
            send_frame(monitor, {"op": "health"}, self.config.authkey)
            reply = recv_frame(monitor, self.config.authkey, expires_at)
        except Exception as error:
            if monitor is not None:
                _Endpoint.discard(monitor)
            self._monitors[address] = None
            health.alive = False
            health.error = f"{type(error).__name__}: {error}"
            health.snapshot = None
            health.probed_at = time.monotonic()
            return
        health.alive = bool(reply.get("ok"))
        health.draining = bool(reply.get("draining"))
        health.queue_depth = int(reply.get("queue_depth", 0))
        health.queue_capacity = max(1, int(reply.get("queue_capacity", 1)))
        health.rtt = time.monotonic() - started
        health.error = None
        health.snapshot = reply
        health.probed_at = time.monotonic()

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    def _candidates(self, key: str) -> Tuple[List[str], Dict[str, str]]:
        """Replica preference order, filtered and annotated.

        Returns ``(ordered_candidates, skipped)`` where ``skipped``
        maps excluded addresses to the reason — the material for a
        loud :class:`NoHealthyReplica` instead of a silent failure.
        Browned-out (overloaded) replicas sort after healthy ones but
        stay eligible: a slow replica beats no replica.
        """
        preferred: List[str] = []
        brownout: List[str] = []
        skipped: Dict[str, str] = {}
        for address in self.ring.lookup(key, self.config.replication):
            health = self.health[address]
            if not health.alive:
                skipped[address] = f"dead ({health.error})"
                continue
            if health.draining:
                skipped[address] = "draining"
                continue
            if not self.breakers[address].would_allow():
                skipped[address] = "breaker-open"
                continue
            if health.overloaded():
                brownout.append(address)
            else:
                preferred.append(address)
        if skipped:
            self.stats.bump("skipped_unhealthy", len(skipped))
        return preferred + brownout, skipped

    def submit(
        self,
        job: Dict[str, Any],
        tenant: str = "default",
        deadline: Optional[float] = None,
        priority: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Route one job; returns the serving daemon's ``ok`` reply
        augmented with ``routed_to`` / ``failovers``.

        ``priority`` (``"interactive"`` / ``"normal"`` / ``"batch"``)
        is forwarded verbatim to the serving daemon's priority-aware
        fair queue; ``None`` omits the field.

        Raises the same typed errors a direct daemon submit would, plus
        :class:`NoHealthyReplica` when the key's whole replica set is
        unavailable.
        """
        if self._draining:
            raise ServerDraining(
                "router is draining; not accepting new requests",
                tenant=tenant,
            )
        if deadline is None:
            deadline = self.config.default_deadline
        expires_at = (
            time.monotonic() + deadline if deadline is not None else None
        )
        self.stats.bump("requests")
        with self._inflight_lock:
            self._inflight += 1
        try:
            reply = self._route(job, tenant, deadline, expires_at, priority)
            self.stats.bump("completed")
            return reply
        except BaseException:
            self.stats.bump("failed")
            raise
        finally:
            with self._idle:
                self._inflight -= 1
                if self._inflight == 0:
                    self._idle.notify_all()

    def _route(
        self,
        job: Dict[str, Any],
        tenant: str,
        deadline: Optional[float],
        expires_at: Optional[float],
        priority: Optional[str] = None,
    ) -> Dict[str, Any]:
        key = route_key(job)
        candidates, skipped = self._candidates(key)
        idempotent = job.get("kind") in IDEMPOTENT_KINDS
        failures: Dict[str, str] = dict(skipped)
        failovers = 0
        for address in candidates:
            if expires_at is not None and (
                expires_at - time.monotonic() <= 0
            ):
                raise DeadlineExceeded(
                    "deadline expired while routing (replica failover)",
                    tenant=tenant,
                    deadline=deadline,
                    stage="routing",
                )
            breaker = self.breakers[address]
            if not breaker.allow():
                failures[address] = "breaker-open"
                continue
            remaining = None
            if expires_at is not None:
                remaining = max(0.01, expires_at - time.monotonic())
            message = {
                "op": "submit", "tenant": tenant,
                "deadline": remaining, "job": job,
            }
            if priority is not None:
                message["priority"] = priority
            self.stats.bump_daemon(address, "routed")
            started = time.monotonic()
            try:
                reply = self._wire_submit(address, message, expires_at)
            except _AttemptFailed as failed:
                failures[address] = (
                    f"{type(failed.error).__name__}: {failed.error}"
                )
                if failed.infrastructure:
                    breaker.record_failure()
                else:
                    breaker.release_probe()
                self.stats.bump_daemon(address, "failed")
                if not idempotent:
                    raise failed.error
                failovers += 1
                self.stats.bump("failovers")
                continue
            except BaseException:
                # Typed client errors (validation, quota, deadline) say
                # nothing about the daemon's health.
                breaker.release_probe()
                self.stats.bump_daemon(address, "failed")
                raise
            self.stats.observe_latency(time.monotonic() - started)
            breaker.record_success()
            self.stats.bump_daemon(address, "completed")
            reply = dict(reply)
            reply["routed_to"] = address
            reply["failovers"] = failovers
            return reply
        self.stats.bump("no_replica")
        raise NoHealthyReplica(
            f"no replica could serve key {key!r}",
            tenant=tenant,
            key=key,
            replicas=len(self.ring.lookup(key, self.config.replication)),
            outcomes=", ".join(
                f"{address}: {reason}"
                for address, reason in sorted(failures.items())
            ) or None,
        )

    # ------------------------------------------------------------------ #
    # Dispatch (one request/reply on one pooled socket)
    # ------------------------------------------------------------------ #

    def _wire_submit(
        self,
        address: str,
        message: Dict[str, Any],
        expires_at: Optional[float],
    ) -> Dict[str, Any]:
        """One request/reply on a pooled socket; raises typed errors.

        Transport failures raise :class:`_AttemptFailed` with
        ``infrastructure=True``; structured error replies are decoded
        and classified.
        """
        endpoint = self._endpoints[address]
        try:
            sock = endpoint.checkout()
        except TRANSPORT_ERRORS as error:
            self.health[address].alive = False
            self.health[address].error = f"{type(error).__name__}: {error}"
            raise _AttemptFailed(
                ShardError(
                    f"daemon {address} unreachable: "
                    f"{type(error).__name__}: {error}",
                    worker=address,
                ),
                infrastructure=True,
            ) from error
        try:
            timeout = None
            if expires_at is not None:
                timeout = max(
                    0.01, expires_at - time.monotonic()
                ) + REPLY_GRACE
            sock.settimeout(timeout)
            send_frame(sock, message, self.config.authkey)
            reply = recv_frame(
                sock,
                self.config.authkey,
                expires_at + REPLY_GRACE if expires_at is not None else None,
            )
        except TRANSPORT_ERRORS as error:
            endpoint.discard(sock)
            if not isinstance(error, socket.timeout):
                # A deadline-bounded submit timing out is one slow job,
                # not evidence the daemon is down: the breaker accounts
                # for it below, and liveness stays with the active
                # health checker.  Everything else (RST, EOF, corrupt
                # frame) marks the daemon dead until the next probe.
                self.health[address].alive = False
                self.health[address].error = (
                    f"{type(error).__name__}: {error}"
                )
            raise _AttemptFailed(
                ShardError(
                    f"daemon {address} lost mid-dispatch: "
                    f"{type(error).__name__}: {error}",
                    worker=address,
                ),
                infrastructure=True,
            ) from error
        if not isinstance(reply, dict):
            endpoint.discard(sock)
            raise _AttemptFailed(
                ServeError(f"malformed reply from {address}"),
                infrastructure=True,
            )
        endpoint.checkin(sock)
        if reply.get("ok"):
            return reply
        error = reply_to_error(reply)
        if isinstance(error, ShardError):
            # The daemon's compute substrate failed — a sibling replica
            # has its own shard contexts and may serve the job fine.
            raise _AttemptFailed(error, infrastructure=True)
        if isinstance(error, (ServerDraining, ServerOverloaded)):
            # Admission refusal: a health signal, not an infrastructure
            # fault (TenantQuotaExceeded subclasses ServerOverloaded
            # but is the *tenant's* fault — it must propagate, or the
            # router would defeat daemon-side quotas by failover).
            from repro.utils.errors import TenantQuotaExceeded

            if isinstance(error, TenantQuotaExceeded):
                raise error
            health = self.health[address]
            if isinstance(error, ServerDraining):
                health.draining = True
            else:
                health.queue_depth = health.queue_capacity
            raise _AttemptFailed(error, infrastructure=False)
        raise error  # validation, deadline, quota: the client's problem

    # ------------------------------------------------------------------ #
    # Fleet aggregation (the serve-stats view)
    # ------------------------------------------------------------------ #

    def health_snapshot(self) -> Dict[str, Any]:
        """The aggregated fleet health payload (the router's ``health``
        op reply; ``repro.cli serve-stats`` renders it)."""
        daemons: Dict[str, Any] = {}
        snapshots: List[dict] = []
        for address in sorted(self._endpoints):
            health = self.health[address]
            breaker = self.breakers[address]
            entry: Dict[str, Any] = {
                "alive": health.alive,
                "draining": health.draining,
                "queue_depth": health.queue_depth,
                "queue_capacity": health.queue_capacity,
                "breaker": breaker.state,
                "error": health.error,
            }
            if health.snapshot is not None:
                snapshots.append(health.snapshot)
            daemons[address] = entry
        return {
            "ok": True,
            "router": True,
            "draining": self._draining,
            "ring": {
                "nodes": self.ring.nodes,
                "replication": self.config.replication,
                "vnodes": self.config.vnodes,
            },
            "daemons": daemons,
            "route_stats": self.stats.snapshot(),
            "stats": merge_snapshots(
                [snap.get("stats") for snap in snapshots],
                ServeStats.ZERO_SNAPSHOT,
            ),
            "results": merge_snapshots(
                [snap.get("results") for snap in snapshots],
                ResultCache.ZERO_SNAPSHOT,
            ),
        }


class RouterDaemon(FrameServer):
    """TCP front of a :class:`Router`: same wire protocol as a daemon.

    One accept thread, one connection thread per client; submits are
    forwarded synchronously on the connection thread (admission control
    lives daemon-side — the router adds no second queue, so shed
    decisions stay where the capacity is known).
    """

    role = "router"

    def __init__(self, config: RouterConfig) -> None:
        super().__init__(config.bind, config.authkey)
        self.config = config
        self.router = Router(config)

    def start(self) -> str:
        address = self._open_front()
        self.router.start()
        return address

    def drain(self) -> None:
        self.router.drain()

    def stop(self, drain: bool = True, grace: float = 30.0) -> bool:
        drained = True
        if drain:
            self.router.drain()
            drained = self.router.wait_idle(timeout=grace)
        self._close_front()
        self.router.close()
        return drained

    def _handle(
        self, sock: socket.socket, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        op = message["op"]
        if op == "ping":
            return {"ok": True, "pid": os.getpid(), "router": True}
        if op in ("health", "stats"):
            return self.router.health_snapshot()
        if op == "drain":
            self.router.drain()
            return {"ok": True, "draining": True}
        return self.router.submit(
            message["job"],
            tenant=message.get("tenant", "default"),
            deadline=message.get("deadline"),
            priority=message.get("priority"),
        )


# ---------------------------------------------------------------------- #
# ``python -m repro.serve.router``
# ---------------------------------------------------------------------- #


def _parse_daemons(values: List[str]) -> Tuple[str, ...]:
    addresses: List[str] = []
    for value in values:
        addresses.extend(
            part.strip() for part in value.split(",") if part.strip()
        )
    return tuple(addresses)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.router",
        description="Consistent-hash routing front tier over serving "
                    "daemons (framed TCP, stdlib only).",
    )
    parser.add_argument(
        "--daemons", action="append", default=[], metavar="HOST:PORT,...",
        help="daemon addresses (comma separated and/or repeated)",
    )
    parser.add_argument(
        "--bind", default="127.0.0.1:0", metavar="HOST:PORT",
        help="router listen address; port 0 picks a free port",
    )
    parser.add_argument("--replication", type=int, default=2,
                        help="replica-set size per route key")
    parser.add_argument("--vnodes", type=int, default=128,
                        help="virtual nodes per daemon on the hash ring")
    parser.add_argument("--health-interval", type=float, default=0.5,
                        help="seconds between daemon health probes")
    parser.add_argument("--health-timeout", type=float, default=5.0,
                        help="per-probe socket timeout")
    parser.add_argument("--breaker-failures", type=int, default=3,
                        help="consecutive failures that open a breaker")
    parser.add_argument("--breaker-cooldown", type=float, default=5.0,
                        help="seconds an open breaker blocks dispatch")
    parser.add_argument("--default-deadline", type=float, default=None,
                        help="deadline applied to submits carrying none")
    parser.add_argument("--drain-grace", type=float, default=30.0,
                        help="seconds a SIGTERM drain waits for in-flight "
                             "forwards")
    parser.add_argument(
        "--authkey", default=None,
        help="shared frame-integrity key (default: REPRO_SHARD_AUTHKEY "
             "env var, else the built-in development key)",
    )
    args = parser.parse_args(argv)
    try:
        config = RouterConfig(
            daemons=_parse_daemons(args.daemons),
            bind=args.bind,
            replication=args.replication,
            vnodes=args.vnodes,
            health_interval=args.health_interval,
            health_timeout=args.health_timeout,
            breaker_failures=args.breaker_failures,
            breaker_cooldown=args.breaker_cooldown,
            default_deadline=args.default_deadline,
            authkey=resolve_authkey(args.authkey),
        )
        daemon = RouterDaemon(config)
        address = daemon.start()
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: cannot bind {args.bind}: {error}", file=sys.stderr)
        return 2

    host, port = address.rsplit(":", 1)
    print(f"REPRO-ROUTER-READY {host} {port} {os.getpid()}", flush=True)

    shutdown = threading.Event()

    def _request_shutdown(signum, frame):
        shutdown.set()

    signal.signal(signal.SIGTERM, _request_shutdown)
    signal.signal(signal.SIGINT, _request_shutdown)

    shutdown.wait()
    drained = daemon.stop(drain=True, grace=args.drain_grace)
    print(f"route: {daemon.router.stats.summary()}", file=sys.stderr)
    if not drained:
        print(
            f"route: drain grace ({args.drain_grace}s) expired with "
            f"forwards in flight",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
