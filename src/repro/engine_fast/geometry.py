"""Per-(segment, rule, size-env) iteration geometry, precomputed once.

The engine used to re-solve the affine instance ranges, re-derive the
chain/free split, and re-materialize the instance product for every
segment application — at every recursion depth and for every chain step.
All of that is a pure function of ``(segment, rule, env)``, so it is
computed once and cached under :func:`geometry_key`; the engine counts
hits and misses through the ``exec.geom_cache_*`` observe counters.
What is sized by the instance *count* — the product of the free value
lists — is built only when a per-cell step first asks for it.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Sequence, Tuple

_MISSING = object()


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    Backs the engine's geometry and size-binding caches: both are keyed
    by input sizes, so a long-lived serve daemon that sees many distinct
    shapes would otherwise grow them without bound.  Lookups refresh
    recency; inserting past ``limit`` evicts the stalest entry and
    increments ``evictions`` (surfaced as ``exec.geom_cache_evictions``).

    Shared by the daemon's handler threads: lookups take no lock (each
    ``OrderedDict`` call is atomic under the interpreter lock, and a key
    evicted between the read and the recency refresh is simply not
    refreshed); inserts evict under one, so ``evictions`` stays exact.
    """

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError(f"LRU limit must be >= 1, got {limit}")
        self.limit = limit
        self.evictions = 0
        self._data: OrderedDict = OrderedDict()
        self._insert_lock = threading.Lock()

    def get(self, key, default=None):
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            return default
        try:
            self._data.move_to_end(key)
        except KeyError:  # evicted by another thread since the read
            pass
        return value

    def __setitem__(self, key, value) -> None:
        with self._insert_lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.limit:
                self._data.popitem(last=False)
                self.evictions += 1

    def __contains__(self, key) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)


@dataclass
class Geometry:
    """Concrete iteration space of one instance rule in one segment.

    ``chain_vars`` iterate as sequential steps (directional, with a task
    barrier between steps); ``free_vars`` are the data-parallel variables
    within a step.  A geometry holds one value list per variable and
    ``step_volume``, the product of the free lists' lengths — nothing
    sized by the instance count, so a vector site (which sweeps slices)
    never pays for one.
    """

    var_ranges: Dict[str, Tuple[int, int]]
    chain_vars: Tuple[str, ...]
    free_vars: Tuple[str, ...]
    chain_value_lists: Tuple[Tuple[int, ...], ...]
    free_value_lists: Tuple[Tuple[int, ...], ...]
    step_volume: int

    @cached_property
    def free_products(self) -> Tuple[Tuple[int, ...], ...]:
        """The instance tuples of one step, ordered like
        ``itertools.product`` over the free value lists: built when the
        first per-cell step is planned over it, then kept on the
        geometry, so every plan that blocks it slices the one tuple.  Unlocked on purpose: two threads racing the first
        read build equal tuples and either assignment wins."""
        # product() of zero ranges yields one empty tuple (the single
        # instance of a chain-only rule); an empty *range* yields none.
        return tuple(itertools.product(*self.free_value_lists))


def split_chain_free(
    directions: Mapping[str, int], var_order: Sequence[str]
) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """``var_order`` split into (chain, free) variables: a variable the
    dependency analysis gives a direction iterates as a sequential
    chain, every other one is data parallel.  Called once per site
    (``Site.split``); geometry, the vector planner and the PB604 verdict
    are handed the result."""
    chain_vars = tuple(v for v in var_order if directions.get(v, 0) != 0)
    return chain_vars, tuple(v for v in var_order if v not in chain_vars)


def build_geometry(
    var_ranges: Mapping[str, Tuple[int, int]],
    directions: Mapping[str, int],
    chain_vars: Tuple[str, ...],
    free_vars: Tuple[str, ...],
) -> Geometry:
    """Build the geometry from the engine's range/direction analyses
    and the site's chain/free split.

    Value ordering matches the engine exactly: ascending per variable,
    reversed when the dependency analysis demands a negative direction
    (free variables always have direction 0, hence always ascend).
    """

    def values_of(var: str) -> Tuple[int, ...]:
        lo, hi = var_ranges[var]
        values: List[int] = list(range(lo, hi))
        if directions.get(var, 0) < 0:
            values.reverse()
        return tuple(values)

    chain_value_lists = tuple(values_of(v) for v in chain_vars)
    free_value_lists = tuple(values_of(v) for v in free_vars)
    return Geometry(
        var_ranges=dict(var_ranges),
        chain_vars=chain_vars,
        free_vars=free_vars,
        chain_value_lists=chain_value_lists,
        free_value_lists=free_value_lists,
        step_volume=math.prod(map(len, free_value_lists)),
    )


def geometry_key(
    segment_key: str, rule_id: int, env: Mapping[str, int]
) -> Tuple[str, int, Tuple[Tuple[str, int], ...]]:
    """Cache key: the geometry is a pure function of these three."""
    return (segment_key, rule_id, tuple(sorted(env.items())))
