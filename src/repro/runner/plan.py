"""Sweep planning: which cells the cache serves, simulate, or re-price.

The paper's Section 4.1 method at sweep scale: event frequencies come
from the trace and do not depend on hardware cost, so cells whose specs
differ only in the ``characterization`` pricing axis share a
:meth:`~repro.runner.spec.RunSpec.base_cache_key` and identical counters.
:func:`plan_sweep` is the one place that rule lives:

* a cell is a **hit** when the cache holds its full key or, re-pricing
  across sweeps, its base key;
* of the other cells, the first per base key is a **leader** and
  simulates; the rest are its **followers**, re-priced from its counters.

It also groups the leaders by **trace identity** (the resolved workload
profile a cell generates): the paper drives every scheme with one trace,
so the sweep generates a group's trace once and dispatches the groups one
after another (trace-major), sharing each trace with its group's cells.

:func:`~repro.runner.sweep.run_sweep` executes a plan, and the service
asks for one to decide whether a grid would simulate anything.  See
``docs/characterization.md`` and ``docs/runner.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from ..core.simulator import SimulationResult

__all__ = ["SweepPlan", "plan_sweep"]

#: Cache lookup: the stored result for a key, or None.
Lookup = Callable[[str], Optional[SimulationResult]]

#: A leader's trace identity by cell index, or None when it is not shared.
TraceOf = Callable[[int], Optional[Hashable]]


@dataclass(frozen=True)
class SweepPlan:
    """How a sweep serves each cell, by index into its spec list."""

    #: ``(index, result, via_base)`` for every cache-served cell, in spec order
    hits: Tuple[Tuple[int, SimulationResult, bool], ...]
    #: cells to simulate, in spec order
    leaders: Tuple[int, ...]
    #: leader -> the cells re-priced from its counters, in spec order
    followers: Mapping[int, Tuple[int, ...]]
    #: ``(trace identity, leaders)`` in dispatch order: groups ordered by
    #: their first leader, each group's leaders in spec order; a leader
    #: without an identity forms a group of its own (identity None)
    groups: Tuple[Tuple[Optional[Hashable], Tuple[int, ...]], ...] = ()


def plan_sweep(
    keys: Sequence[str],
    base_keys: Sequence[str],
    lookup: Optional[Lookup] = None,
    group: bool = True,
    trace_of: Optional[TraceOf] = None,
) -> SweepPlan:
    """Plan a grid from its cells' full and base cache keys.

    ``lookup`` reads the cache (a sweep passes :meth:`ResultCache.get`,
    the service the uncounted :meth:`ResultCache.peek`); without one every
    cell misses.  ``group=False`` makes every miss a leader: a probed
    sweep needs each cell's own run, since a probe streams that run's
    per-reference events.  ``trace_of(index)`` gives a leader's trace
    identity, or None for a leader that generates its own trace; it is
    asked for leaders only, and fills :attr:`SweepPlan.groups`.
    """
    hits: List[Tuple[int, SimulationResult, bool]] = []
    misses: List[int] = []
    for index, (key, base) in enumerate(zip(keys, base_keys)):
        result = lookup(key) if lookup is not None else None
        via_base = False
        if result is None and lookup is not None and base != key:
            result = lookup(base)
            via_base = result is not None
        if result is None:
            misses.append(index)
        else:
            hits.append((index, result, via_base))
    leader_of: Dict[object, int] = {}
    followers: Dict[int, List[int]] = {}
    for index in misses:
        leader = leader_of.setdefault(base_keys[index] if group else index, index)
        if leader != index:
            followers.setdefault(leader, []).append(index)
    leaders = tuple(leader_of.values())
    return SweepPlan(
        hits=tuple(hits),
        leaders=leaders,
        followers={leader: tuple(cells) for leader, cells in followers.items()},
        groups=_trace_groups(leaders, trace_of),
    )


def _trace_groups(
    leaders: Sequence[int], trace_of: Optional[TraceOf]
) -> Tuple[Tuple[Optional[Hashable], Tuple[int, ...]], ...]:
    """The leaders grouped by trace identity, in dispatch order."""
    groups: Dict[object, Tuple[Optional[Hashable], List[int]]] = {}
    for index in leaders:
        identity = trace_of(index) if trace_of is not None else None
        slot = ("cell", index) if identity is None else ("trace", identity)
        groups.setdefault(slot, (identity, []))[1].append(index)
    return tuple((identity, tuple(cells)) for identity, cells in groups.values())
