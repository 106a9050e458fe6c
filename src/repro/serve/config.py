"""Serving-daemon configuration (validated at construction).

Mirrors :class:`repro.core.sgla.SGLAConfig`'s style: a frozen dataclass
whose ``__post_init__`` rejects malformed values with a clear
:class:`~repro.utils.errors.ValidationError` — a typo'd bind string or
a zero queue depth fails before a socket is opened, not as a deep stack
trace under traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.serve.protocol import DEFAULT_AUTHKEY, parse_address
from repro.utils.errors import ValidationError


@dataclass(frozen=True)
class ServeConfig:
    """Front-door knobs of one :class:`~repro.serve.daemon.ServeDaemon`.

    Attributes
    ----------
    bind:
        ``host:port`` listen address; port ``0`` asks the kernel for a
        free port (the daemon announces the actual one).
    queue_depth:
        Maximum number of *queued* (admitted, not yet running) requests;
        the admission-control depth limit.
    max_inflight_mb:
        Ceiling on the summed payload bytes of queued + running
        requests — the never-OOM half of admission control.
    workers:
        Executor thread count; each worker owns one persistent
        :class:`~repro.shard.ShardContext` (when sharding is configured)
        shared across every request it serves.
    batch_limit:
        Maximum compatible objective requests coalesced into one
        cross-request batch (1 disables batching).
    tenant_rate:
        Token-bucket refill rate (requests/second) applied per tenant;
        ``0`` disables quotas.
    tenant_burst:
        Token-bucket capacity (the burst a quiet tenant may spend).
    tenant_weights:
        Optional ``{tenant: weight}`` overrides for the weighted-fair
        dequeue (default weight 1.0; higher = larger share).
    default_deadline:
        Deadline (seconds) applied to requests that carry none
        (``None`` = no implicit deadline).
    drain_grace:
        How long a SIGTERM-triggered drain waits for in-flight work
        before forcing exit.
    max_dataset_mb:
        Byte budget, the only bound, of the per-daemon prepared-dataset
        cache (:class:`~repro.serve.jobs.DatasetCache`: each dataset's
        view Laplacians): summed payload megabytes.  Inserting past the
        budget evicts least-recently-used entries until the cache fits,
        never the entry just inserted (eviction counters surface on the
        ``serve:`` stats line and in the health payload).
    result_cache:
        Whether to keep the deterministic result cache
        (:class:`~repro.serve.results.ResultCache`): computed job
        results keyed by the canonical job identity, replayed
        bit-identically on repeat traffic.  ``False`` recomputes every
        request.
    max_results_mb:
        Byte budget (MB) of the result cache; least-recently-used
        results are evicted past it.
    priority_aging:
        Anti-starvation aging rate of the priority-aware fair queue
        (virtual-time units per second of queue wait); ``0`` disables
        aging.  See :mod:`repro.serve.queue`.
    authkey:
        Shared frame-integrity key of the wire protocol.
    """

    bind: str = "127.0.0.1:0"
    queue_depth: int = 64
    max_inflight_mb: float = 256.0
    workers: int = 2
    batch_limit: int = 8
    tenant_rate: float = 0.0
    tenant_burst: float = 8.0
    tenant_weights: Optional[Dict[str, float]] = None
    default_deadline: Optional[float] = None
    drain_grace: float = 30.0
    max_dataset_mb: float = 256.0
    result_cache: bool = True
    max_results_mb: float = 64.0
    priority_aging: float = 0.1
    authkey: bytes = field(default=DEFAULT_AUTHKEY, repr=False)

    def __post_init__(self) -> None:
        parse_address(self.bind, allow_port_zero=True, what="serve bind")
        if self.queue_depth < 1:
            raise ValidationError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.max_inflight_mb <= 0:
            raise ValidationError(
                f"max_inflight_mb must be positive, "
                f"got {self.max_inflight_mb}"
            )
        if self.workers < 1:
            raise ValidationError(
                f"workers must be >= 1, got {self.workers}"
            )
        if self.batch_limit < 1:
            raise ValidationError(
                f"batch_limit must be >= 1, got {self.batch_limit}"
            )
        if self.tenant_rate < 0:
            raise ValidationError(
                f"tenant_rate must be >= 0, got {self.tenant_rate}"
            )
        if self.tenant_rate > 0 and self.tenant_burst < 1:
            raise ValidationError(
                f"tenant_burst must be >= 1 when quotas are on, "
                f"got {self.tenant_burst}"
            )
        for tenant, weight in (self.tenant_weights or {}).items():
            if weight <= 0:
                raise ValidationError(
                    f"tenant weight must be positive, "
                    f"got {weight} for {tenant!r}"
                )
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise ValidationError(
                f"default_deadline must be positive seconds, "
                f"got {self.default_deadline}"
            )
        if self.drain_grace < 0:
            raise ValidationError(
                f"drain_grace must be >= 0, got {self.drain_grace}"
            )
        if self.max_dataset_mb <= 0:
            raise ValidationError(
                f"max_dataset_mb must be positive, "
                f"got {self.max_dataset_mb}"
            )
        if self.max_results_mb <= 0:
            raise ValidationError(
                f"max_results_mb must be positive, "
                f"got {self.max_results_mb}"
            )
        if self.priority_aging < 0:
            raise ValidationError(
                f"priority_aging must be >= 0, got {self.priority_aging}"
            )

    @property
    def max_inflight_bytes(self) -> int:
        return int(self.max_inflight_mb * 1024 * 1024)

    @property
    def max_dataset_bytes(self) -> int:
        return int(self.max_dataset_mb * 1024 * 1024)

    @property
    def max_results_bytes(self) -> int:
        return int(self.max_results_mb * 1024 * 1024)

    def weight_for(self, tenant: str) -> float:
        return float((self.tenant_weights or {}).get(tenant, 1.0))


@dataclass(frozen=True)
class RouterConfig:
    """Knobs of one :class:`~repro.serve.router.Router` front tier.

    Attributes
    ----------
    daemons:
        The fleet's ``host:port`` addresses — the ring's node set.
    bind:
        Listen address of the router's own TCP front
        (:class:`~repro.serve.router.RouterDaemon`); ignored by
        library-embedded routers.
    replication:
        Replica-set size per route key: how many daemons, in ring
        order, are eligible to serve a key.  ``>= 2`` guarantees a live
        replica through any single daemon failure.
    vnodes:
        Virtual nodes per daemon on the hash ring.
    health_interval:
        Seconds between active health probes of each daemon.
    health_timeout:
        Per-probe socket timeout; an unanswered probe marks the daemon
        dead until a later probe succeeds.
    breaker_failures:
        Consecutive dispatch failures that trip a daemon's circuit
        breaker from CLOSED to OPEN.
    breaker_cooldown:
        Seconds an OPEN breaker blocks dispatch before allowing one
        HALF_OPEN probe request through.
    default_deadline:
        Deadline applied to forwarded submits that carry none (bounds
        failover: without any deadline a dead-fleet request would walk
        replicas with unbounded per-attempt waits).
    authkey:
        Shared frame-integrity key (must match the daemons').
    """

    daemons: Tuple[str, ...] = ()
    bind: str = "127.0.0.1:0"
    replication: int = 2
    vnodes: int = 128
    health_interval: float = 0.5
    health_timeout: float = 5.0
    breaker_failures: int = 3
    breaker_cooldown: float = 5.0
    default_deadline: Optional[float] = None
    authkey: bytes = field(default=DEFAULT_AUTHKEY, repr=False)

    def __post_init__(self) -> None:
        if not self.daemons:
            raise ValidationError("a router needs at least one daemon")
        seen = set()
        for address in self.daemons:
            parse_address(address, what="router daemon")
            if address in seen:
                raise ValidationError(
                    f"duplicate daemon address {address!r}"
                )
            seen.add(address)
        parse_address(self.bind, allow_port_zero=True, what="router bind")
        if self.replication < 1:
            raise ValidationError(
                f"replication must be >= 1, got {self.replication}"
            )
        if self.vnodes < 1:
            raise ValidationError(
                f"vnodes must be >= 1, got {self.vnodes}"
            )
        if self.health_interval <= 0:
            raise ValidationError(
                f"health_interval must be positive, "
                f"got {self.health_interval}"
            )
        if self.health_timeout <= 0:
            raise ValidationError(
                f"health_timeout must be positive, "
                f"got {self.health_timeout}"
            )
        if self.breaker_failures < 1:
            raise ValidationError(
                f"breaker_failures must be >= 1, "
                f"got {self.breaker_failures}"
            )
        if self.breaker_cooldown < 0:
            raise ValidationError(
                f"breaker_cooldown must be >= 0, "
                f"got {self.breaker_cooldown}"
            )
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise ValidationError(
                f"default_deadline must be positive seconds, "
                f"got {self.default_deadline}"
            )
