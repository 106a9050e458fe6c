"""Mergeable counters: one merge rule for stats objects, one for snapshots.

:class:`Counters` is the dataclass mixin behind ``SolverStats``,
``NeighborStats`` and ``ShardStats``.  Sharded runs accumulate one
stats object per worker and fold them back with :meth:`Counters.merge`,
so the aggregate equals what a single process would have recorded.

:func:`merge_snapshots` does the same for the dict snapshots daemons
put on the wire: the router folds its daemons' ``stats`` and
``results`` sections into one fleet picture that renders through the
very same one-line summaries.
"""

from __future__ import annotations

import copy
import re
from dataclasses import fields
from typing import Any, ClassVar, Dict, Iterable, Mapping, Optional, Tuple

#: a percentile key of a wire snapshot (``queue_wait_p99_ms``, ...).
_PERCENTILE = re.compile(r"_p\d+_ms$")


class Counters:
    """Dataclass mixin: a field-driven, aliasing-safe ``merge`` / ``+=``.

    Every dataclass field is a counter (numbers add) or a counter map
    (``Dict[str, int]``, adding per key), except the fields named in
    :attr:`SETTINGS`: configuration, which a merge leaves as it is.
    """

    #: fields that are settings, not counters; merge keeps this object's.
    SETTINGS: ClassVar[Tuple[str, ...]] = ()

    def merge(self, other: "Counters") -> "Counters":
        """Fold ``other``'s counters into this object; returns ``self``.

        Aliasing-safe: each field is read before it is written and a
        counter map is walked over a copy of its items, so
        ``stats.merge(stats)`` doubles every counter.
        """
        for field in fields(self):
            if field.name in self.SETTINGS:
                continue
            value = getattr(other, field.name)
            if isinstance(value, dict):
                mine = getattr(self, field.name)
                for key, count in list(value.items()):
                    mine[key] = mine.get(key, 0) + count
            else:
                setattr(self, field.name, getattr(self, field.name) + value)
        return self

    def __iadd__(self, other: "Counters") -> "Counters":
        return self.merge(other)


def merge_snapshots(
    snaps: Iterable[Optional[Mapping[str, Any]]], zero: Mapping[str, Any]
) -> Dict[str, Any]:
    """Fold several wire snapshots into one, shaped like ``zero``.

    Per key: counters add; percentiles (``*_pNN_ms``) take the maximum,
    since a sum of percentiles means nothing and the max is the honest
    tail bound; flags (bools) OR together.  Nested dicts merge by the
    same rule.  Whatever a snapshot lacks (a key, a section, or the
    whole snapshot) reads as zero, and so does ``None``, so a fleet of
    mixed daemon versions still aggregates: every key of ``zero`` is in
    the result.  An empty dict in ``zero`` is an open map (tenants): it
    holds the union of the snapshots' entries, in sorted key order,
    each with the keys its snapshots sent.
    """
    merged = copy.deepcopy(dict(zero))
    for snap in snaps:
        _fold(merged, snap or {})
    _sort_open_maps(merged, zero)
    return merged


def _fold(into: Dict[str, Any], snap: Mapping[str, Any]) -> None:
    for key, value in snap.items():
        if isinstance(value, Mapping):
            _fold(into.setdefault(key, {}), value)
        elif isinstance(value, bool):
            into[key] = bool(into.get(key)) or value
        elif not isinstance(value, (int, float)):
            continue  # None or a non-counter field: reads as zero
        elif _PERCENTILE.search(key):
            into[key] = max(into.get(key, 0.0), value)
        else:
            into[key] = into.get(key, 0) + value


def _sort_open_maps(merged: Dict[str, Any], zero: Mapping[str, Any]) -> None:
    for key, template in zero.items():
        if isinstance(template, Mapping):
            if template:
                _sort_open_maps(merged[key], template)
            else:
                merged[key] = dict(sorted(merged[key].items()))
