"""Stateful models of the serve tier's two byte-budgeted LRU caches.

:class:`ResultCache` (computed results) and :class:`DatasetCache`
(prepared view Laplacians, bounded by its byte budget alone) each get a
hypothesis state machine that drives the public lookups with drawn keys
and payload sizes — sizes over the budget included — against a plain
``OrderedDict`` LRU model.  After every step the machines check the
byte accounting, the caps, the budget, and that the hit / miss counters
match the model.  A third test runs drawn schedules of dataset lookups
from four threads at once, with builds that race on one key, fail, or
overflow the budget.
"""

from __future__ import annotations

import contextlib
import sys
import threading
import time
from collections import OrderedDict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import repro.serve.jobs as jobs
from repro.core.sgla import SGLAConfig
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


@contextlib.contextmanager
def stub_builds(prepare):
    """Route :class:`DatasetCache` builds through ``prepare(profile,
    seed, config)`` instead of generating and preparing a profile."""
    saved = jobs.load_profile_mvag, jobs.prepare_laplacians
    jobs.load_profile_mvag = lambda profile, seed=0: (profile, seed)
    jobs.prepare_laplacians = (
        lambda mvag, k, config, shard=None: prepare(*mvag, config)
    )
    try:
        yield
    finally:
        jobs.load_profile_mvag, jobs.prepare_laplacians = saved


def _dataset_key(profile, seed, config):
    return (profile, seed, config.knn_k, config.knn_backend, ())


class DatasetCacheMachine(RuleBasedStateMachine):
    """``laplacians`` lookups with stub builds of drawn sizes.

    The model is one LRU order over the dataset keys: past the byte
    budget the oldest entry goes, never the one just inserted.  A build
    that fails counts its miss and caches nothing.
    """

    def __init__(self) -> None:
        super().__init__()
        self.cache = DatasetCache(max_bytes=MAX_BYTES)
        self.size = 0
        self.fail = False
        self._stub = stub_builds(self._prepare)
        self._stub.__enter__()
        #: key -> accounted size, least recently used first.
        self.model: "OrderedDict[tuple, int]" = OrderedDict()
        self.hits = self.misses = 0

    def _prepare(self, profile, seed, config):
        if self.fail:
            raise RuntimeError("stub build failed")
        return _payload(self.size), 3

    def teardown(self) -> None:
        self._stub.__exit__(None, None, None)

    @rule(
        profile=st.sampled_from(["p", "q", "r"]),
        seed=st.integers(0, 1),
        knn_k=st.sampled_from([5, 10]),
        size=SIZES,
        fail=st.booleans(),
    )
    def laplacians(self, profile, seed, knn_k, size, fail):
        config = SGLAConfig(knn_k=knn_k)
        self.size, self.fail = size, fail
        key = _dataset_key(profile, seed, config)
        if key in self.model:
            value, k = self.cache.laplacians(profile, seed, config)
            self.model.move_to_end(key)
            self.hits += 1
        elif fail:
            self.misses += 1
            try:
                self.cache.laplacians(profile, seed, config)
            except RuntimeError:
                return
            raise AssertionError("a failed build returned a value")
        else:
            value, k = self.cache.laplacians(profile, seed, config)
            self.misses += 1
            self.model[key] = size
            while sum(self.model.values()) > MAX_BYTES and len(self.model) > 1:
                self.model.popitem(last=False)
        assert k == 3 and value.nbytes == self.model[key]

    @invariant()
    def bytes_match_live_entries(self):
        live = self.cache._entries
        assert self.cache.current_bytes == sum(n for _, n in live.values())
        assert self.cache.current_bytes == sum(
            payload_nbytes(value) for value, _ in live.values()
        )

    @invariant()
    def within_budget(self):
        # The one documented excess: the newest entry alone over budget.
        assert (
            self.cache.current_bytes <= MAX_BYTES
            or len(self.cache._entries) == 1
        )
        assert not self.cache._building

    @invariant()
    def matches_lru_model(self):
        assert list(self.cache._entries) == list(self.model)
        assert (self.cache.hits, self.cache.misses) == (
            self.hits, self.misses
        )


TestDatasetCacheMachine = DatasetCacheMachine.TestCase
TestDatasetCacheMachine.settings = settings(
    max_examples=200, stateful_step_count=30, deadline=None
)

#: one lookup of a schedule: (profile, payload size, whether it fails).
LOOKUPS = st.tuples(st.sampled_from(["a", "b", "c"]), SIZES, st.booleans())
THREADS = 4


@settings(max_examples=40, deadline=None)
@given(
    schedule=st.lists(LOOKUPS, min_size=1, max_size=24),
    bounded=st.booleans(),
)
def test_concurrent_lookups_keep_the_books(schedule, bounded):
    """Four threads run one drawn schedule of lookups against one cache.

    Builds sleep, so lookups of one key race on its latch; drawn builds
    fail or exceed the budget.  Afterwards every lookup was counted
    once, no latch is left, and the byte count is the resident entries'.
    Unbounded, each key was built successfully once and every caller
    that got a value got that object.
    """
    config = SGLAConfig()
    plan = threading.local()
    built = []  # (profile, value) of every successful build
    built_lock = threading.Lock()

    def prepare(profile, seed, config):
        time.sleep(0.002)
        size, fails = plan.lookup
        if fails:
            raise RuntimeError("stub build failed")
        value = (_payload(size), 3)
        with built_lock:
            built.append((profile, value))
        return value

    cache = DatasetCache(max_bytes=MAX_BYTES if bounded else None)
    got = []  # (profile, value) every successful lookup returned
    errors = []
    start = threading.Barrier(THREADS)

    def run(lookups):
        try:
            start.wait(timeout=30)
            for profile, size, fails in lookups:
                plan.lookup = (size, fails)
                try:
                    value = cache.laplacians(profile, 0, config)
                except RuntimeError:
                    continue
                with built_lock:
                    got.append((profile, value))
        except BaseException as error:  # reported by the asserts below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: widen the races
    try:
        with stub_builds(prepare):
            threads = [
                threading.Thread(target=run, args=(schedule[i::THREADS],))
                for i in range(THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors

    assert cache.hits + cache.misses == len(schedule)
    assert not cache._building
    live = cache._entries.values()
    assert cache.current_bytes == sum(n for _, n in live)
    assert cache.current_bytes == sum(payload_nbytes(v) for v, _ in live)
    if bounded:
        return
    assert cache.evictions == 0
    builds = {}
    for profile, value in built:
        assert profile not in builds, f"{profile} built twice"
        builds[profile] = value
    for profile, value in got:
        assert value is builds[profile]
