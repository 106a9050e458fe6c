"""Multi-tenant serving daemon in front of the SGLA pipeline (DESIGN.md §13).

``python -m repro.serve --bind HOST:PORT`` hosts a long-lived daemon
accepting framed-TCP requests (the MAGIC|len|keyed-BLAKE2b-MAC|pickle
wire protocol of :mod:`repro.serve.protocol`) for cluster / embed /
objective jobs and runs them through the existing pipeline on shared
per-worker :class:`~repro.shard.ShardContext`\\ s.  The robustness core:

* **admission control** (:class:`~repro.serve.queue.AdmissionQueue`) —
  a bounded queue by request count *and* in-flight payload bytes; past
  either limit new requests are shed with a fast, structured
  :class:`~repro.utils.errors.ServerOverloaded` instead of OOMing; a
  job with malformed fields is refused with a ``validation`` reply
  before it is admitted (:func:`~repro.serve.jobs.check_job`);
* **prepared datasets** (:class:`~repro.serve.jobs.DatasetCache`) —
  every job kind runs from a dataset's cached view Laplacians, keyed on
  profile, seed and kNN settings and bounded by a byte budget alone, so
  objective, cluster and embed traffic on one dataset builds its kNN
  graphs once;
* **per-request deadlines** — an expired queued request never starts; a
  running one has its remaining budget propagated into the
  :class:`~repro.shard.resilience.FailureDirector`'s per-attempt
  deadline machinery (hung shards are reclaimed), and the client gets a
  structured :class:`~repro.utils.errors.DeadlineExceeded` at its
  deadline — never a hang;
* **per-tenant isolation** — token-bucket admission quotas plus
  start-time-fair (SFQ) weighted dequeue, so one tenant's flood cannot
  starve another; queue-wait and outcome counters are kept per tenant;
* **priority classes** — each request carries ``interactive`` /
  ``normal`` / ``batch``, applied as a weight multiplier on the SFQ
  flow with an aging term so a batch flood never starves interactive
  traffic and interactive pressure never starves batch (DESIGN.md §15);
* **deterministic result caching**
  (:class:`~repro.serve.results.ResultCache`) — every job kind is a
  pure function of its request fields, so computed results are cached
  under a canonical identity digest and identical repeat requests are
  answered from memory in microseconds, bit-identical to recomputation;
* **cross-request batching** — compatible objective requests are
  coalesced into one :meth:`~repro.core.objective.SpectralObjective.
  evaluate_batch` call (row by row in-process, or through
  ``shard_objective_batch`` on a shard context); solves run cold
  (``warm_start=False``) so a request's results are bit-identical
  whether it was batched, served alone, or computed in-process — one
  tenant's traffic can never perturb another's numbers;
* **graceful lifecycle** — SIGTERM drains in-flight work and exits 0;
  ``health`` / ``stats`` ops answer immediately even under overload and
  report queue depth, cache counters and the executor shard contexts;
  a killed shard pool process is retried around on a freshly forked
  pool while the daemon keeps serving.

Gate: ``benchmarks/bench_serve.py`` (QPS + latency percentiles under
concurrent clients, the overload/shedding contract, batching
bit-identity, and a chaos leg killing shard pool processes between
request rounds).

On top of single daemons sits the **replicated front tier**
(DESIGN.md §14): ``python -m repro.serve.router`` places requests on a
consistent-hash ring (:mod:`repro.serve.ring`) keyed by dataset
identity so daemon caches stay warm, health-checks every daemon,
wraps dispatch in per-daemon circuit breakers with deadline-aware
failover (:mod:`repro.serve.router`), and :class:`~repro.serve.fleet.
FleetManager` owns the daemon subprocesses themselves.  Gate:
``benchmarks/bench_router.py`` (chaos SIGKILL mid-traffic with
bit-identity, membership-churn remap fraction).
"""

from repro.serve.client import ServeClient
from repro.serve.config import RouterConfig, ServeConfig
from repro.serve.daemon import ServeDaemon, spawn_daemon
from repro.serve.fleet import FleetManager, spawn_router
from repro.serve.queue import AdmissionQueue, RequestEntry, TokenBucket
from repro.serve.results import ResultCache, result_key
from repro.serve.ring import HashRing, remap_fraction, route_key
from repro.serve.router import (
    CircuitBreaker,
    Router,
    RouterDaemon,
    RouteStats,
)
from repro.serve.stats import ServeStats
from repro.utils.errors import (
    DeadlineExceeded,
    NoHealthyReplica,
    ServeError,
    ServerDraining,
    ServerOverloaded,
    TenantQuotaExceeded,
)

__all__ = [
    "AdmissionQueue",
    "CircuitBreaker",
    "DeadlineExceeded",
    "FleetManager",
    "HashRing",
    "NoHealthyReplica",
    "RequestEntry",
    "ResultCache",
    "RouteStats",
    "Router",
    "RouterConfig",
    "RouterDaemon",
    "ServeClient",
    "ServeConfig",
    "ServeDaemon",
    "ServeError",
    "ServeStats",
    "ServerDraining",
    "ServerOverloaded",
    "TenantQuotaExceeded",
    "TokenBucket",
    "remap_fraction",
    "result_key",
    "route_key",
    "spawn_daemon",
    "spawn_router",
]
