"""Per-tenant serving statistics: outcomes and queue-wait percentiles.

Follows the ``SolverStats`` / ``ShardStats`` convention — counters
observable end to end, a one-line ``summary()`` for the CLI ``serve:``
line — extended per tenant so the isolation story is measurable: the
health endpoint shows exactly which tenant was shed, expired, or served.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence

#: queue-wait samples kept per tenant (bounded so a long-lived daemon's
#: stats memory is O(tenants), not O(requests)).
WAIT_SAMPLES = 4096

#: request priority classes, best-served first.  Defined here (the
#: lowest serve module) so queue scheduling, wire validation, and stats
#: all share one vocabulary without import cycles.
PRIORITIES = ("interactive", "normal", "batch")

_COUNTERS = (
    "requests", "admitted", "completed", "failed",
    "rejected_overload", "rejected_quota", "rejected_draining",
    "deadline_expired", "cancelled", "batched", "result_hits",
)
_WAITS = ("queue_wait_p50_ms", "queue_wait_p99_ms")


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 on empty input."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1)))))
    return float(ordered[rank])


class TenantStats:
    """Counters + bounded queue-wait reservoir for one tenant."""

    def __init__(self) -> None:
        for name in _COUNTERS:
            setattr(self, name, 0)
        self.queue_waits: Deque[float] = deque(maxlen=WAIT_SAMPLES)

    def rejected_total(self) -> int:
        return (
            self.rejected_overload
            + self.rejected_quota
            + self.rejected_draining
        )

    def to_dict(self) -> dict:
        payload = {name: getattr(self, name) for name in _COUNTERS}
        payload["queue_wait_p50_ms"] = percentile(self.queue_waits, 50) * 1e3
        payload["queue_wait_p99_ms"] = percentile(self.queue_waits, 99) * 1e3
        return payload


class ServeStats:
    """Thread-safe per-tenant statistics of one daemon.

    Every mutation happens under one lock (the counters are touched by
    connection threads, queue internals, and executor threads alike);
    reads take a consistent snapshot.
    """

    #: the empty :meth:`snapshot`: the router folds its daemons' wire
    #: snapshots into it with ``merge_snapshots`` for the fleet view.
    ZERO_SNAPSHOT = {
        "totals": dict.fromkeys(_COUNTERS, 0) | dict.fromkeys(_WAITS, 0.0),
        "tenants": {},
        "priorities": {
            name: {"served": 0} | dict.fromkeys(_WAITS, 0.0)
            for name in PRIORITIES
        },
    }

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tenants: Dict[str, TenantStats] = {}
        # Daemon-wide per-priority wait reservoirs: the priority story
        # is about *class* latency across tenants, so these aggregate
        # globally rather than per tenant.
        self._priority_waits: Dict[str, Deque[float]] = {
            name: deque(maxlen=WAIT_SAMPLES) for name in PRIORITIES
        }
        self._priority_served: Dict[str, int] = {
            name: 0 for name in PRIORITIES
        }

    def _tenant(self, tenant: str) -> TenantStats:
        stats = self._tenants.get(tenant)
        if stats is None:
            stats = self._tenants[tenant] = TenantStats()
        return stats

    def bump(self, tenant: str, counter: str, by: int = 1) -> None:
        if counter not in _COUNTERS:
            raise KeyError(counter)
        with self._lock:
            stats = self._tenant(tenant)
            setattr(stats, counter, getattr(stats, counter) + by)

    def record_wait(
        self, tenant: str, seconds: float, priority: Optional[str] = None
    ) -> None:
        with self._lock:
            self._tenant(tenant).queue_waits.append(float(seconds))
            if priority in self._priority_waits:
                self._priority_waits[priority].append(float(seconds))
                self._priority_served[priority] += 1

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #

    def _all_waits(self) -> List[float]:
        waits: List[float] = []
        for stats in self._tenants.values():
            waits.extend(stats.queue_waits)
        return waits

    def total(self, counter: str) -> int:
        with self._lock:
            return sum(
                getattr(stats, counter) for stats in self._tenants.values()
            )

    def snapshot(self) -> dict:
        """Totals + per-tenant dict, as one consistent picture."""
        with self._lock:
            tenants = {
                name: stats.to_dict()
                for name, stats in sorted(self._tenants.items())
            }
            totals = {
                name: sum(t[name] for t in tenants.values())
                for name in _COUNTERS
            }
            waits = self._all_waits()
            priorities = {
                name: {
                    "served": self._priority_served[name],
                    "queue_wait_p50_ms": percentile(
                        self._priority_waits[name], 50
                    ) * 1e3,
                    "queue_wait_p99_ms": percentile(
                        self._priority_waits[name], 99
                    ) * 1e3,
                }
                for name in PRIORITIES
            }
        totals["queue_wait_p50_ms"] = percentile(waits, 50) * 1e3
        totals["queue_wait_p99_ms"] = percentile(waits, 99) * 1e3
        return {
            "totals": totals, "tenants": tenants, "priorities": priorities
        }

    def summary(self) -> str:
        """The one-line ``serve:`` digest (CLI and shutdown log)."""
        return self.summary_from_snapshot(self.snapshot())

    @staticmethod
    def summary_from_snapshot(snap: dict) -> str:
        """Render the ``serve:`` line from a health-endpoint snapshot.

        The CLI talks to a *remote* daemon, so it renders from the wire
        payload rather than a live object; keeping the renderer next to
        :meth:`summary` keeps the two formats identical.
        """
        totals = snap["totals"]
        rejected = (
            totals["rejected_overload"]
            + totals["rejected_quota"]
            + totals["rejected_draining"]
        )
        return (
            f"{totals['requests']} requests "
            f"({len(snap['tenants'])} tenants), "
            f"{totals['completed']} completed, "
            f"{rejected} rejected, "
            f"{totals['deadline_expired']} deadline-expired, "
            f"{totals['batched']} batched, "
            f"{totals.get('result_hits', 0)} result-cache hits; "
            f"queue wait "
            f"p50 {totals['queue_wait_p50_ms']:.1f}ms / "
            f"p99 {totals['queue_wait_p99_ms']:.1f}ms"
        )
