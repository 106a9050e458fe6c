"""Property-based tests (seeded random trials) for ShardPlan and the
stats-merge algebra the shard subsystem's aggregation relies on (the
field-driven ``Counters`` merge of every mergeable stats class).

No external property-testing dependency: trials are driven by a seeded
``numpy`` generator, so failures are reproducible from the seed printed
in the assertion message.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

from repro.neighbors import NeighborStats
from repro.shard import ShardPlan, ShardStats
from repro.solvers import SolverStats
from repro.utils.errors import ValidationError

N_TRIALS = 200


def _random_cases(seed: int):
    rng = np.random.default_rng(seed)
    for trial in range(N_TRIALS):
        n_items = int(rng.integers(0, 50))
        workers = int(rng.integers(1, 9))
        costs = None
        if rng.random() < 0.5:
            costs = rng.random(n_items) * float(rng.integers(1, 1000))
            if rng.random() < 0.2:
                costs[rng.random(n_items) < 0.3] = 0.0  # zero-cost items
        yield trial, n_items, workers, costs


class TestShardPlanProperties:
    def test_every_item_assigned_exactly_once(self):
        for trial, n_items, workers, costs in _random_cases(seed=7):
            plan = ShardPlan.build(n_items, workers, costs=costs)
            flat = [i for group in plan.assignments() for i in group]
            assert sorted(flat) == list(range(n_items)), (
                f"trial {trial}: items lost or duplicated "
                f"(n={n_items}, w={workers})"
            )

    def test_shard_ids_in_range_and_lists_increasing(self):
        for trial, n_items, workers, costs in _random_cases(seed=13):
            plan = ShardPlan.build(n_items, workers, costs=costs)
            assert plan.n_shards <= min(workers, max(n_items, 1)) or (
                n_items == 0 and plan.n_shards == 0
            )
            for shard, group in enumerate(plan.assignments()):
                assert all(
                    0 <= i < n_items for i in group
                ), f"trial {trial}: out-of-range item"
                assert group == sorted(group), (
                    f"trial {trial}: shard {shard} items not increasing"
                )

    def test_plan_is_reproducible(self):
        for trial, n_items, workers, costs in _random_cases(seed=29):
            first = ShardPlan.build(n_items, workers, costs=costs)
            second = ShardPlan.build(n_items, workers, costs=costs)
            assert first == second, f"trial {trial}: plan not a pure function"

    def test_contiguous_concat_is_identity_for_every_worker_count(self):
        """Result order never depends on the worker count.

        Concatenating a contiguous plan's shards in shard order yields
        ``0..n-1`` exactly — so reassembly by global index returns the
        same ordering whatever ``workers`` was, which is the partition-
        stability half of the determinism contract.
        """
        rng = np.random.default_rng(31)
        for _ in range(N_TRIALS):
            n_items = int(rng.integers(0, 60))
            for workers in range(1, 9):
                plan = ShardPlan.build(n_items, workers)
                flat = [i for group in plan.assignments() for i in group]
                assert flat == list(range(n_items))

    def test_item_set_stable_under_worker_count(self):
        """The assigned item *set* is identical for every worker count."""
        rng = np.random.default_rng(37)
        for _ in range(N_TRIALS // 2):
            n_items = int(rng.integers(1, 40))
            costs = rng.random(n_items)
            reference = None
            for workers in (1, 2, 3, 5, 8):
                plan = ShardPlan.build(n_items, workers, costs=costs)
                flat = sorted(
                    i for group in plan.assignments() for i in group
                )
                if reference is None:
                    reference = flat
                assert flat == reference

    def test_balanced_never_worse_than_single_heaviest_bound(self):
        """Greedy LPT load <= sum/shards + max cost (the classic bound)."""
        rng = np.random.default_rng(41)
        for _ in range(N_TRIALS // 2):
            n_items = int(rng.integers(1, 40))
            workers = int(rng.integers(1, 9))
            costs = rng.random(n_items) * 100
            plan = ShardPlan.build(n_items, workers, costs=costs)
            loads = [
                sum(costs[i] for i in group)
                for group in plan.assignments()
            ]
            bound = costs.sum() / plan.n_shards + costs.max()
            assert max(loads) <= bound + 1e-9

    def test_validation(self):
        with pytest.raises(ValidationError):
            ShardPlan.build(-1, 2)
        with pytest.raises(ValidationError):
            ShardPlan.build(3, 0)
        with pytest.raises(ValidationError):
            ShardPlan.build(3, 2, costs=[1.0])  # wrong length
        empty = ShardPlan.build(0, 4)
        assert empty.assignments() == []


# --------------------------------------------------------------------- #
# merge(stats) == sum(stats)
# --------------------------------------------------------------------- #


#: the three mergeable stats classes (all on the shared Counters base).
STATS_CLASSES = (SolverStats, NeighborStats, ShardStats)

#: keys drawn for counter maps (``by_backend``).
MAP_KEYS = ("dense", "lanczos", "shard[lanczos]", "exact", "rp-forest")

#: fields that are configuration, not counters: a merge keeps the value.
SETTINGS = ("recall_sample",)


def _random_stats(cls, rng):
    """A ``cls`` with every dataclass field drawn at random."""
    stats = cls()
    for field in dataclasses.fields(cls):
        if isinstance(getattr(stats, field.name), dict):
            keys = rng.choice(
                MAP_KEYS, size=int(rng.integers(0, 4)), replace=False
            )
            value = {str(key): int(rng.integers(1, 50)) for key in keys}
        else:
            value = int(rng.integers(0, 1000))
        setattr(stats, field.name, value)
    return stats


def _fields(stats) -> dict:
    return {
        field.name: copy.copy(getattr(stats, field.name))
        for field in dataclasses.fields(stats)
    }


def _expected_merge(start, parts) -> dict:
    """Field-wise sum of ``start`` and ``parts``; settings keep ``start``'s."""
    total = _fields(start)
    for part in parts:
        for name, value in _fields(part).items():
            if name in SETTINGS:
                continue
            if isinstance(value, dict):
                for key, count in value.items():
                    total[name][key] = total[name].get(key, 0) + count
            else:
                total[name] += value
    return total


def _check_merge_equals_sum(cls, seed: int) -> None:
    rng = np.random.default_rng(seed)
    for trial in range(N_TRIALS // 4):
        start = _random_stats(cls, rng)
        parts = [
            _random_stats(cls, rng) for _ in range(int(rng.integers(1, 6)))
        ]
        expected = _expected_merge(start, parts)
        for part in parts:
            start.merge(part)
        assert _fields(start) == expected, f"trial {trial}"


class TestStatsMergeProperties:
    def test_solver_stats_merge_equals_sum(self):
        _check_merge_equals_sum(SolverStats, seed=53)

    def test_neighbor_stats_merge_equals_sum(self):
        _check_merge_equals_sum(NeighborStats, seed=59)

    def test_shard_stats_merge_equals_sum(self):
        _check_merge_equals_sum(ShardStats, seed=61)

    def test_merge_is_aliasing_safe(self):
        """stats.merge(stats) doubles every counter (no double-count)."""
        rng = np.random.default_rng(67)
        for cls in STATS_CLASSES:
            stats = _random_stats(cls, rng)
            expected = _expected_merge(stats, [stats])
            assert stats.merge(stats) is stats
            assert _fields(stats) == expected, cls.__name__

    def test_iadd_matches_merge(self):
        rng = np.random.default_rng(71)
        for cls in STATS_CLASSES:
            a1, a2 = _random_stats(cls, rng), _random_stats(cls, rng)
            b1, b2 = cls(), cls()
            b1.merge(a1)
            b1.merge(a2)
            b2 += a1
            b2 += a2
            assert _fields(b1) == _fields(b2), cls.__name__
