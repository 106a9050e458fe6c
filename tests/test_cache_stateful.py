"""Stateful models of the serve tier's two byte-budgeted LRU caches.

:class:`ResultCache` (one layer of computed results) and
:class:`DatasetCache` (generated MVAGs plus prepared view Laplacians,
under one shared byte budget) each get a hypothesis state machine that
drives the public lookups with drawn keys and payload sizes — sizes
over the budget included — against a plain ``OrderedDict`` LRU model.
After every step the machines check the byte accounting, the entry
caps, the budget, and that the hit / miss counters match the model.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import repro.serve.jobs as jobs
from repro.serve.jobs import DatasetCache, payload_nbytes
from repro.serve.results import ResultCache

MAX_BYTES = 1000
CAPACITY = 3
#: payload sizes, up to half again the budget.
SIZES = st.integers(0, MAX_BYTES * 3 // 2)


def _payload(size: int) -> np.ndarray:
    return np.zeros(size, dtype=np.uint8)


class ResultCacheMachine(RuleBasedStateMachine):
    """``get`` / ``put`` on a small keyspace against an LRU model."""

    def __init__(self) -> None:
        super().__init__()
        self.cache = ResultCache(max_bytes=MAX_BYTES, capacity=CAPACITY)
        #: key -> accounted size, oldest first.
        self.model: "OrderedDict[bytes, int]" = OrderedDict()
        self.hits = self.misses = self.skipped = 0

    @rule(
        key=st.sampled_from([b"a", b"b", b"c", b"d", b"e", None]),
        count=st.booleans(),
    )
    def get(self, key, count):
        value = self.cache.get(key, count=count)
        if key in self.model:
            self.model.move_to_end(key)
            self.hits += count
            assert value is not None and value.nbytes == self.model[key]
        else:
            self.misses += count and key is not None
            assert value is None

    @rule(
        key=st.sampled_from([b"a", b"b", b"c", b"d", b"e", None]),
        size=SIZES,
    )
    def put(self, key, size):
        self.cache.put(key, _payload(size))
        if key is None:
            return
        if size > MAX_BYTES:
            self.skipped += 1
            return
        self.model.pop(key, None)
        self.model[key] = size
        while len(self.model) > CAPACITY or (
            sum(self.model.values()) > MAX_BYTES
        ):
            self.model.popitem(last=False)

    @invariant()
    def bytes_match_live_entries(self):
        live = self.cache._entries
        assert self.cache.current_bytes == sum(n for _, n in live.values())
        assert self.cache.current_bytes == sum(
            payload_nbytes(value) for value, _ in live.values()
        )

    @invariant()
    def within_caps(self):
        assert len(self.cache) <= CAPACITY
        assert self.cache.current_bytes <= MAX_BYTES

    @invariant()
    def oversize_never_stored(self):
        assert all(n <= MAX_BYTES for _, n in self.cache._entries.values())
        assert self.cache.skipped_oversize == self.skipped

    @invariant()
    def matches_lru_model(self):
        assert list(self.cache._entries) == list(self.model)
        assert (self.cache.hits, self.cache.misses) == (
            self.hits, self.misses
        )


TestResultCacheMachine = ResultCacheMachine.TestCase
TestResultCacheMachine.settings = settings(
    max_examples=200, stateful_step_count=30, deadline=None
)


class _StubDatasetCache(DatasetCache):
    """Builds MVAGs of a size the machine sets, instead of profiles."""

    next_size = 0

    def _mvag_builder(self, profile, seed):
        return lambda: _payload(self.next_size)


class DatasetCacheMachine(RuleBasedStateMachine):
    """``mvag`` / ``laplacians`` with stub builders of drawn sizes.

    The model is one global LRU order over ``(layer, key)`` pairs: a
    layer over ``CAPACITY`` entries drops its own oldest, and past the
    byte budget the globally oldest entry goes, never the one just
    inserted.  A Laplacian build resolves its MVAG through the mvag
    layer without counting that lookup.
    """

    def __init__(self) -> None:
        super().__init__()
        self.cache = _StubDatasetCache(capacity=CAPACITY, max_bytes=MAX_BYTES)
        self.lap_size = 0
        self._prepare = jobs.prepare_laplacians
        jobs.prepare_laplacians = lambda mvag, k, config: (
            _payload(self.lap_size), k
        )
        #: (layer, key) -> accounted size, least recently used first.
        self.model: "OrderedDict[tuple, int]" = OrderedDict()
        self.hits = self.misses = 0
        self.newest = None

    def teardown(self) -> None:
        jobs.prepare_laplacians = self._prepare

    def _insert(self, entry, size):
        self.model[entry] = size
        self.newest = entry
        layer = entry[0]
        while sum(1 for name, _ in self.model if name == layer) > CAPACITY:
            oldest = next(e for e in self.model if e[0] == layer)
            del self.model[oldest]
        while sum(self.model.values()) > MAX_BYTES:
            victim = next((e for e in self.model if e != entry), None)
            if victim is None:
                break
            del self.model[victim]

    def _touch_or_insert(self, entry, size) -> bool:
        """LRU-touch ``entry`` and return True, or insert it at ``size``."""
        if entry in self.model:
            self.model.move_to_end(entry)
            return True
        self._insert(entry, size)
        return False

    @rule(
        profile=st.sampled_from(["p", "q", "r"]),
        seed=st.integers(0, 1),
        size=SIZES,
    )
    def mvag(self, profile, seed, size):
        self.cache.next_size = size
        value = self.cache.mvag(profile, seed=seed)
        entry = ("mvag", (profile, seed))
        hit = self._touch_or_insert(entry, size)
        self.hits += hit
        self.misses += not hit
        assert value.nbytes == self.model[entry]

    @rule(
        profile=st.sampled_from(["p", "q", "r"]),
        seed=st.integers(0, 1),
        k=st.sampled_from([2, 3]),
        mvag_size=SIZES,
        lap_size=SIZES,
    )
    def laplacians(self, profile, seed, k, mvag_size, lap_size):
        self.cache.next_size = mvag_size
        self.lap_size = lap_size
        value, got_k = self.cache.laplacians(profile, seed, k, None, ())
        assert got_k == k
        entry = ("laplacians", (profile, seed, k, ()))
        if entry in self.model:
            self.model.move_to_end(entry)
            self.hits += 1
        else:
            self.misses += 1
            # The build resolves its MVAG uncounted, then inserts.
            self._touch_or_insert(("mvag", (profile, seed)), mvag_size)
            self._insert(entry, lap_size)
        assert value.nbytes == self.model[entry]

    def _live(self):
        for layer, store in (
            ("mvag", self.cache._mvags),
            ("laplacians", self.cache._laplacians),
        ):
            for key, (value, nbytes, stamp) in store.items():
                yield (layer, key), value, nbytes, stamp

    @invariant()
    def bytes_match_live_entries(self):
        live = list(self._live())
        assert self.cache.current_bytes == sum(n for _, _, n, _ in live)
        assert self.cache.current_bytes == sum(
            payload_nbytes(value) for _, value, _, _ in live
        )

    @invariant()
    def within_caps(self):
        assert len(self.cache._mvags) <= CAPACITY
        assert len(self.cache._laplacians) <= CAPACITY
        live = [entry for entry, _, _, _ in self._live()]
        # The one documented excess: the newest entry alone over budget.
        assert self.cache.current_bytes <= MAX_BYTES or live == [
            self.newest
        ]

    @invariant()
    def matches_lru_model(self):
        by_stamp = sorted(self._live(), key=lambda row: row[3])
        assert [entry for entry, _, _, _ in by_stamp] == list(self.model)
        assert (self.cache.hits, self.cache.misses) == (
            self.hits, self.misses
        )


TestDatasetCacheMachine = DatasetCacheMachine.TestCase
TestDatasetCacheMachine.settings = settings(
    max_examples=200, stateful_step_count=30, deadline=None
)
