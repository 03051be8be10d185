"""Fault-tolerant sweep execution: isolation, retries, journal, fault injection.

The resilience layer sits between the sweep runner and the operating
system, and turns "one bad cell kills the sweep" into "one bad cell is a
structured failure record":

* :mod:`~repro.resilience.errors` — :class:`RunError` (per-cell failure
  record), :class:`CellFailure` (fail-fast abort), :class:`SweepInterrupted`
  (SIGINT with partial results).
* :mod:`~repro.resilience.retry` — :class:`RetryPolicy`: bounded attempts,
  exponential backoff, deterministic (hash-seeded) jitter.
* :mod:`~repro.resilience.executor` — :class:`CellExecutor`: long-lived
  worker processes, one per slot per trace group; kill-based timeouts,
  crash detection.
* :mod:`~repro.resilience.journal` — :class:`SweepJournal`: append-only
  JSONL record of per-cell outcomes powering ``sweep --resume``.
* :mod:`~repro.resilience.faults` — :class:`FaultPlan`: seeded,
  deterministic fault injection at the worker, parent and cache seams.

See ``docs/robustness.md`` for the failure model and semantics.

Import discipline: :mod:`repro.runner.sweep` imports resilience
*submodules* directly, and resilience submodules import runner
*submodules* (never the packages), so the mutual dependency between the
two packages resolves during either import order.
"""

from .errors import ERROR_KINDS, CellFailure, RunError, SweepInterrupted
from .executor import CellEvent, CellExecutor
from .faults import (
    CACHE_KINDS,
    FAULT_KINDS,
    PARENT_KINDS,
    SERVICE_KINDS,
    WORKER_KINDS,
    FaultPlan,
    FaultSpec,
    FaultyCache,
    InjectedFault,
)
from .journal import SweepJournal, append_jsonl, load_jsonl
from .retry import RetryPolicy

__all__ = [
    "CACHE_KINDS",
    "ERROR_KINDS",
    "FAULT_KINDS",
    "PARENT_KINDS",
    "SERVICE_KINDS",
    "WORKER_KINDS",
    "CellEvent",
    "CellExecutor",
    "CellFailure",
    "FaultPlan",
    "FaultSpec",
    "FaultyCache",
    "InjectedFault",
    "RetryPolicy",
    "RunError",
    "SweepInterrupted",
    "SweepJournal",
    "append_jsonl",
    "load_jsonl",
]
