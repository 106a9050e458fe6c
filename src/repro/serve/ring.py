"""Consistent-hash ring: stable request placement across a daemon fleet.

The front tier routes a request by its **route key** — the dataset
identity ``profile@seed`` (see :func:`route_key`) — so every request
touching the same prepared dataset lands on the same daemon and its
warm :class:`~repro.serve.jobs.DatasetCache` entry, instead of
re-preparing the Laplacians on whichever daemon round-robin happened to
pick.  Consistent hashing is what keeps those caches warm *through
membership changes*: each node owns ``vnodes`` pseudo-random arcs of a
64-bit ring (keyed-BLAKE2b positions, the same hash family as the wire
protocol's MAC), a key is served by the first node clockwise from its
hash, and adding or removing one node of ``N`` therefore remaps only
the arcs that node owned — an expected ``1/N`` of the keys — while
every other key keeps its placement and its warm cache.  A modulo
scheme would remap nearly everything on every membership change.

``lookup(key, count)`` returns the first ``count`` *distinct* nodes
clockwise — the key's replica set.  With a replication factor of 2+,
any single node failure leaves every key at least one live replica, and
the failover order is the ring order, so all routers agree on it
without coordination.

Pure data structure: no sockets, no health state — the
:class:`~repro.serve.router.Router` composes it with liveness.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.utils.errors import ValidationError

#: ring positions per node; more vnodes = smoother key distribution and
#: a remap fraction closer to the ideal 1/N on membership changes.
DEFAULT_VNODES = 128

_RING_KEY = b"repro-ring"


def hash64(data: str) -> int:
    """Position of ``data`` on the 64-bit ring (keyed BLAKE2b)."""
    digest = hashlib.blake2b(
        data.encode("utf-8"), digest_size=8, key=_RING_KEY
    ).digest()
    return int.from_bytes(digest, "big")


def route_key(job: Dict[str, Any]) -> str:
    """The placement key of a job: the dataset it touches.

    ``profile@seed`` — the dataset part of the key the daemon-side
    :class:`~repro.serve.jobs.DatasetCache` keys its entries on, so
    ring placement and cache locality agree by construction.  It leaves
    out the kNN settings, so every kNN variant of a dataset also lands
    on one daemon, as a separate cache entry there.  Jobs without a
    profile (the daemon refuses them) hash to a constant bucket rather
    than failing.
    """
    return f"{job.get('profile', '?')}@{job.get('seed', 0)}"


class HashRing:
    """A consistent-hash ring over string node identifiers.

    Parameters
    ----------
    nodes:
        Initial node identifiers (daemon ``host:port`` strings in the
        router's case).  Duplicates are rejected.
    vnodes:
        Virtual nodes per physical node.
    """

    def __init__(
        self,
        nodes: Optional[Iterable[str]] = None,
        vnodes: int = DEFAULT_VNODES,
    ) -> None:
        if vnodes < 1:
            raise ValidationError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = int(vnodes)
        self._nodes: List[str] = []
        #: sorted (position, node) pairs; parallel arrays for bisect.
        self._points: List[Tuple[int, str]] = []
        self._positions: List[int] = []
        for node in nodes or []:
            self.add(node)

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    @property
    def nodes(self) -> List[str]:
        return sorted(self._nodes)

    def add(self, node: str) -> None:
        """Insert ``node``'s vnodes; idempotence is an error (a fleet
        must not list one daemon twice — it would skew its share)."""
        if not isinstance(node, str) or not node:
            raise ValidationError(
                f"ring node must be a non-empty string, got {node!r}"
            )
        if node in self._nodes:
            raise ValidationError(f"ring already contains node {node!r}")
        self._nodes.append(node)
        for vnode in range(self.vnodes):
            position = hash64(f"{node}#{vnode}")
            index = bisect.bisect_left(self._positions, position)
            # 64-bit collisions across distinct (node, vnode) pairs are
            # ~impossible; break ties deterministically anyway.
            while (
                index < len(self._positions)
                and self._positions[index] == position
                and self._points[index][1] < node
            ):
                index += 1
            self._positions.insert(index, position)
            self._points.insert(index, (position, node))

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            raise ValidationError(f"ring does not contain node {node!r}")
        self._nodes.remove(node)
        kept = [(pos, owner) for pos, owner in self._points if owner != node]
        self._points = kept
        self._positions = [pos for pos, _ in kept]

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def lookup(self, key: str, count: int = 1) -> List[str]:
        """The first ``count`` distinct nodes clockwise from ``key``.

        The returned order is the key's replica preference order:
        element 0 is the primary (cache-warm) owner, the rest are the
        failover sequence.  ``count`` above the node count returns all
        nodes (still in ring order) — callers asking for replication 2
        of a 1-node ring get the 1 node, not an error.
        """
        if not self._nodes:
            raise ValidationError("lookup on an empty ring")
        if count < 1:
            raise ValidationError(f"lookup count must be >= 1, got {count}")
        want = min(count, len(self._nodes))
        start = bisect.bisect_right(self._positions, hash64(key))
        replicas: List[str] = []
        n_points = len(self._points)
        for step in range(n_points):
            node = self._points[(start + step) % n_points][1]
            if node not in replicas:
                replicas.append(node)
                if len(replicas) == want:
                    break
        return replicas

    def preference(self, key: str) -> List[str]:
        """Every node, in the key's full clockwise failover order."""
        return self.lookup(key, len(self._nodes))


def remap_fraction(
    before: HashRing, after: HashRing, keys: Sequence[str]
) -> float:
    """Fraction of ``keys`` whose *primary* owner differs between rings.

    The membership-churn gate: removing 1 of N nodes must remap about
    ``1/N`` of sampled keys (≤ ``1.5/N`` with the default vnode count),
    the property that keeps daemon caches warm through fleet changes.
    """
    if not keys:
        return 0.0
    moved = sum(
        1 for key in keys if before.lookup(key)[0] != after.lookup(key)[0]
    )
    return moved / len(keys)
