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

:func:`~repro.runner.sweep.run_sweep` executes a plan, and the service
asks for one to decide whether a grid would simulate anything.  See
``docs/characterization.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.simulator import SimulationResult

__all__ = ["SweepPlan", "plan_sweep"]

#: Cache lookup: the stored result for a key, or None.
Lookup = Callable[[str], Optional[SimulationResult]]


@dataclass(frozen=True)
class SweepPlan:
    """How a sweep serves each cell, by index into its spec list."""

    #: ``(index, result, via_base)`` for every cache-served cell, in spec order
    hits: Tuple[Tuple[int, SimulationResult, bool], ...]
    #: cells to simulate, in spec order
    leaders: Tuple[int, ...]
    #: leader -> the cells re-priced from its counters, in spec order
    followers: Mapping[int, Tuple[int, ...]]


def plan_sweep(
    keys: Sequence[str],
    base_keys: Sequence[str],
    lookup: Optional[Lookup] = None,
    group: bool = True,
) -> SweepPlan:
    """Plan a grid from its cells' full and base cache keys.

    ``lookup`` reads the cache (a sweep passes :meth:`ResultCache.get`,
    the service the uncounted :meth:`ResultCache.peek`); without one every
    cell misses.  ``group=False`` makes every miss a leader: a probed
    sweep needs each cell's own run, since a probe streams that run's
    per-reference events.
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
    if not group:
        return SweepPlan(tuple(hits), tuple(misses), {})
    leader_of: Dict[str, int] = {}
    followers: Dict[int, List[int]] = {}
    for index in misses:
        leader = leader_of.setdefault(base_keys[index], index)
        if leader != index:
            followers.setdefault(leader, []).append(index)
    return SweepPlan(
        hits=tuple(hits),
        leaders=tuple(leader_of.values()),
        followers={leader: tuple(cells) for leader, cells in followers.items()},
    )
