"""The sweep engine: plan a grid, run its misses, settle every cell.

:func:`run_sweep` is three plain parts (see ``docs/runner.md``):

1. **Plan** — :func:`~repro.runner.plan.plan_sweep` splits the grid into
   cache hits (direct, or via the characterization-free base key),
   leaders to simulate, and followers re-priced from a leader's counters
   (the paper's Section 4.1 method: sweeping k characterizations costs
   one simulation per configuration), and groups the leaders by trace.
2. **Dispatch** — one loop submits the leaders to an executor, one trace
   group after another, and consumes its
   :class:`~repro.resilience.executor.CellEvent` stream, resubmitting
   failed attempts after a deterministic backoff
   (:class:`~repro.resilience.retry.RetryPolicy`).  Fast-backend cells of
   one workload profile share one column-native trace, generated once in
   this process when the group's first attempt starts and dropped when
   its last cell settles (:class:`_TraceStore`).  The executor is a
   :class:`~repro.resilience.executor.CellExecutor` (long-lived worker
   processes, one per slot per trace group: isolation, kill-based
   ``cell_timeout``, crash detection) when ``jobs > 1``, a timeout or a
   kill fault asks for one, and an
   :class:`~repro.resilience.executor.InlineExecutor` otherwise, including
   every probed sweep (probe event streams cannot cross processes).
3. **Settle** — every finished cell, whether hit, simulated, re-priced or
   failed, goes through one step that fills its outcome slot and records
   its counter, span or marker, cache entries, journal line, log line
   and progress hook.

A cell that exhausts its attempts aborts the sweep (``keep_going=False``,
raising :class:`~repro.resilience.errors.CellFailure`) or lands in
:attr:`SweepReport.failures`.  SIGINT raises
:class:`~repro.resilience.errors.SweepInterrupted` with the partial
results.  Telemetry (metrics registry, ``sweep → cell → attempt → stage``
spans, heartbeat status snapshots) is observer-only: counters stay
bit-identical with it on (``docs/observability.md``).

Determinism contract: the outcome list is ordered exactly like the input
spec list and every trace, shared or not, is generated from the spec's
seed, so ``jobs=N`` produces bit-identical counters to ``jobs=1``; only
timings, settle order and worker attribution vary, which
:meth:`SweepReport.cell_table` omits.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.comparison import ComparisonResult
from ..core.simulator import SimulationResult
from ..interconnect.bus import nonpipelined_bus, pipelined_bus
from ..obs.log import fields, get_logger
from ..obs.manifest import RunManifest, collect_manifest
from ..obs.metrics import MetricsRegistry
from ..obs.probe import ReferenceProbe
from ..obs.telemetry import SpanRecorder, write_status
from ..resilience.errors import CellFailure, RunError, SweepInterrupted
from ..resilience.executor import CellEvent, CellExecutor, InlineExecutor
from ..resilience.journal import JOURNAL_SUFFIX, SweepJournal
from ..resilience.retry import RetryPolicy
from ..trace.synthetic import SyntheticWorkload, WorkloadProfile
from .cache import ResultCache
from .plan import plan_sweep
from .spec import INFINITE_GEOMETRY, RunSpec

__all__ = ["RunOutcome", "SweepReport", "run_sweep"]

logger = get_logger("runner.sweep")

#: Hook called once per completed cell (cache hits in spec order first,
#: then simulated cells in completion order, trace group by trace group).
ProgressHook = Callable[["RunOutcome"], None]

#: Factory producing a per-cell probe for instrumented sweeps.
ProbeFactory = Callable[[RunSpec], Optional[ReferenceProbe]]

#: Default seconds between heartbeat lines / status snapshots while a sweep
#: runs; override per sweep with ``heartbeat_seconds`` (CLI
#: ``--heartbeat-seconds``) or process-wide with ``REPRO_HEARTBEAT_SECONDS``.
HEARTBEAT_SECONDS = 10.0

#: Environment override for the heartbeat cadence (``0`` disables).
HEARTBEAT_ENV = "REPRO_HEARTBEAT_SECONDS"

#: Suffix of the status-snapshot file auto-derived from the journal path.
STATUS_SUFFIX = ".status.json"


def _resolve_heartbeat(heartbeat_seconds: Optional[float]) -> float:
    """Explicit argument, else ``$REPRO_HEARTBEAT_SECONDS``, else the default.

    ``0`` disables periodic heartbeats (status snapshots are then written
    only at sweep start and end); negative values are rejected.
    """
    if heartbeat_seconds is None:
        raw = os.environ.get(HEARTBEAT_ENV)
        if raw is None:
            return HEARTBEAT_SECONDS
        try:
            heartbeat_seconds = float(raw)
        except ValueError:
            raise ValueError(
                f"{HEARTBEAT_ENV} must be a number, got {raw!r}"
            ) from None
    interval = float(heartbeat_seconds)
    if interval < 0:
        raise ValueError(
            f"heartbeat interval must be >= 0 (0 disables), got {interval}"
        )
    return interval


@dataclass(frozen=True)
class RunOutcome:
    """One sweep cell: cache-served, executed, re-priced, or failed."""

    spec: RunSpec
    #: the simulated counters, or None when the cell failed
    result: Optional[SimulationResult]
    cached: bool
    #: simulation seconds (0.0 for cache hits)
    elapsed: float
    #: pid of the process that produced the result (or final failure)
    worker: int
    #: provenance of the execution (None when served from a pre-manifest cache)
    manifest: Optional[RunManifest] = None
    #: why the cell failed, across all attempts (None on success)
    error: Optional[RunError] = None
    #: True when the counters were simulated for a sibling cell differing
    #: only in characterization (same :meth:`RunSpec.base_cache_key`) —
    #: this cell paid for pricing, not for a simulation
    repriced: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def simulated(self) -> bool:
        """True when this cell paid for a simulation of its own this run."""
        return self.ok and not self.cached and not self.repriced

    def __post_init__(self) -> None:
        if (self.result is None) == (self.error is None):
            raise ValueError(
                "a RunOutcome carries exactly one of result or error"
            )


@dataclass(frozen=True)
class SweepReport:
    """Everything a sweep produced: results in spec order, plus metrics."""

    outcomes: Sequence[RunOutcome]
    wall_time: float
    jobs: int
    #: the sweep's metrics (wall/cell timers, cache counters); always set by
    #: :func:`run_sweep`, defaulted for hand-built reports in tests
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)

    # -- counts ----------------------------------------------------------------

    @property
    def cells(self) -> int:
        return len(self.outcomes)

    @property
    def successes(self) -> Tuple[RunOutcome, ...]:
        """Cells that produced a result (cache-served or simulated)."""
        return tuple(outcome for outcome in self.outcomes if outcome.ok)

    @property
    def failures(self) -> Tuple[RunOutcome, ...]:
        """Cells that exhausted their attempts without a result."""
        return tuple(outcome for outcome in self.outcomes if not outcome.ok)

    @property
    def simulations(self) -> int:
        """Cells actually simulated to completion this run.

        Excludes cache hits *and* re-priced cells — the paper's
        one-run-many-models method means k characterizations of one
        configuration count as one simulation here.
        """
        return sum(1 for outcome in self.outcomes if outcome.simulated)

    @property
    def repricings(self) -> int:
        """Cells served by re-weighting another cell's counters."""
        return sum(1 for outcome in self.outcomes if outcome.repriced)

    @property
    def cache_hits(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cached)

    @property
    def cache_hit_rate(self) -> float:
        if not self.outcomes:
            return 0.0
        return self.cache_hits / len(self.outcomes)

    @property
    def total_references(self) -> int:
        return sum(outcome.result.references for outcome in self.successes)

    @property
    def simulated_references(self) -> int:
        return sum(
            outcome.result.references
            for outcome in self.outcomes
            if outcome.simulated
        )

    @property
    def refs_per_sec(self) -> float:
        """Simulation throughput: freshly simulated references per wall second."""
        if self.wall_time <= 0:
            return 0.0
        return self.simulated_references / self.wall_time

    def worker_timings(self) -> Dict[int, Tuple[int, float]]:
        """Per-worker (cells simulated, simulation seconds), keyed by pid."""
        timings: Dict[int, Tuple[int, float]] = {}
        for outcome in self.outcomes:
            if not outcome.simulated:
                continue
            cells, seconds = timings.get(outcome.worker, (0, 0.0))
            timings[outcome.worker] = (cells + 1, seconds + outcome.elapsed)
        return timings

    # -- views -----------------------------------------------------------------

    def comparison(self) -> ComparisonResult:
        """The sweep's results as a protocol x trace comparison.

        Requires the grid to collapse onto those two axes: exactly one
        result per (protocol, trace) cell and a complete cross product —
        the shape every paper table and figure consumes.
        """
        if self.failures:
            failed = [outcome.spec.cell_id() for outcome in self.failures]
            raise ValueError(
                f"grid has {len(failed)} failed cells ({', '.join(failed)}); "
                "a comparison needs every cell's result — retry the failures "
                "(e.g. sweep --resume) first"
            )
        protocols: List[str] = []
        traces: List[str] = []
        results: Dict[str, Dict[str, SimulationResult]] = {}
        for outcome in self.outcomes:
            protocol, trace = outcome.spec.protocol, outcome.spec.trace
            if protocol not in results:
                protocols.append(protocol)
                results[protocol] = {}
            if trace not in traces:
                traces.append(trace)
            if trace in results[protocol]:
                raise ValueError(
                    f"grid has multiple results for ({protocol}, {trace}); "
                    "a comparison needs the sweep collapsed to one config "
                    "per (protocol, trace) cell"
                )
            results[protocol][trace] = outcome.result
        for protocol in protocols:
            missing = [t for t in traces if t not in results[protocol]]
            if missing:
                raise ValueError(
                    f"grid is not a full cross product: {protocol} lacks "
                    f"traces {missing}"
                )
        return ComparisonResult(
            protocols=tuple(protocols), traces=tuple(traces), results=results
        )

    def cell_table(self) -> str:
        """Deterministic per-cell summary (identical across jobs/cache runs)."""
        pipe, nonpipe = pipelined_bus(), nonpipelined_bus()
        header = (
            f"{'protocol':<13}{'trace':<7}{'block':>6}{'geometry':>10}"
            f"{'sharing':>10}{'refs':>10}"
            f"{'cyc/ref pipe':>14}{'cyc/ref nonp':>14}"
        )
        lines = [header, "-" * len(header)]
        for outcome in self.outcomes:
            spec, result = outcome.spec, outcome.result
            geometry = spec.geometry or INFINITE_GEOMETRY
            prefix = (
                f"{spec.protocol:<13}{spec.trace:<7}{spec.block_size:>6}"
                f"{geometry:>10}"
                f"{spec.sharing_model.value:>10}"
            )
            if outcome.ok:
                lines.append(
                    prefix
                    + f"{result.references:>10}"
                    f"{result.cycles_per_reference(pipe):>14.6f}"
                    f"{result.cycles_per_reference(nonpipe):>14.6f}"
                )
            else:
                lines.append(
                    prefix
                    + f"{'-':>10}{'FAILED':>14}{outcome.error.kind:>14}"
                )
        return "\n".join(lines)

    def pricing_table(self) -> str:
        """Per-cell pricing under each cell's own characterization.

        The characterization-axis companion to :meth:`cell_table`: one row
        per cell, priced by the cell's :meth:`~repro.runner.spec.RunSpec
        .bus_model` (pipelined default when the axis is unset), with the
        energy column shown for models that carry an ``[energy_nj]``
        section.  Deterministic across jobs/cache/re-pricing paths.
        """
        header = (
            f"{'protocol':<13}{'trace':<7}{'characterization':<24}"
            f"{'refs':>10}{'cyc/ref':>12}{'nJ/ref':>12}"
        )
        lines = [header, "-" * len(header)]
        for outcome in self.outcomes:
            spec = outcome.spec
            model = spec.characterization or "(default)"
            prefix = f"{spec.protocol:<13}{spec.trace:<7}{model:<24}"
            if not outcome.ok:
                lines.append(prefix + f"{'-':>10}{'FAILED':>12}{'-':>12}")
                continue
            summary = outcome.result.cost_summary(spec.bus_model())
            energy = summary.energy_per_reference
            lines.append(
                prefix
                + f"{outcome.result.references:>10}"
                f"{summary.cycles_per_reference:>12.6f}"
                + (f"{energy:>12.4f}" if energy is not None else f"{'-':>12}")
            )
        return "\n".join(lines)

    def failure_table(self) -> str:
        """Deterministic failure summary: cell, kind, attempts, error."""
        failures = self.failures
        if not failures:
            return "no failures"
        header = f"{'cell':<44}{'kind':<14}{'attempts':>9}  error"
        lines = [header, "-" * len(header)]
        for outcome in failures:
            error = outcome.error
            description = f"{error.exc_type}: {error.message}"
            if len(description) > 72:
                description = description[:69] + "..."
            lines.append(
                f"{outcome.spec.cell_id():<44}{error.kind:<14}"
                f"{error.attempts:>9}  {description}"
            )
        return "\n".join(lines)

    def render_metrics(self) -> str:
        """Human-readable throughput / cache metrics (non-deterministic)."""
        repriced = (
            f"{self.repricings} repriced, " if self.repricings else ""
        )
        lines = [
            f"sweep: {self.cells} cells ({self.simulations} simulated, "
            f"{repriced}"
            f"{self.cache_hits} cached, {len(self.failures)} failed) "
            f"in {self.wall_time:.2f}s wall, jobs={self.jobs}",
            f"refs: {self.total_references:,} total, "
            f"{self.simulated_references:,} simulated, "
            f"{self.refs_per_sec:,.0f} refs/sec",
            f"cache: {self.cache_hits} hits, "
            f"{self.cache_hit_rate:.1%} hit rate",
        ]
        for worker, (cells, seconds) in sorted(self.worker_timings().items()):
            lines.append(
                f"worker {worker}: {cells} cells, {seconds:.2f}s simulation"
            )
        return "\n".join(lines)

    def metrics_dict(self) -> Dict[str, object]:
        """The sweep's metrics as JSON-able data (``--metrics-json``)."""
        return {
            "cells": self.cells,
            "simulated": self.simulations,
            "repriced": self.repricings,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "failures": [
                {"cell": outcome.spec.cell_id(), **outcome.error.to_dict()}
                for outcome in self.failures
            ],
            "jobs": self.jobs,
            "wall_s": self.wall_time,
            "total_references": self.total_references,
            "simulated_references": self.simulated_references,
            "refs_per_sec": self.refs_per_sec,
            "workers": {
                str(pid): {"cells": cells, "simulation_s": seconds}
                for pid, (cells, seconds) in sorted(self.worker_timings().items())
            },
            "registry": self.registry.as_dict(),
        }


class _TraceStore:
    """One sweep's shared traces: a column-native trace per group of cells.

    The planner groups leaders by workload profile; every group of two or
    more gets one :meth:`~repro.trace.synthetic.SyntheticWorkload.columns`
    trace, generated when the group's first attempt starts (the executor
    calls :meth:`handle`'s result) and dropped when the group's last cell
    settles.  A retry keeps its cell pending, so the traces alive at once
    are those of groups with queued, running or retry-pending attempts.
    Other leaders generate their own trace inside their attempt.  The
    store counts ``sweep.trace_generations`` (one per group, one per
    simulated leader outside a group) and ``sweep.trace_shared`` (cells
    that ran on a trace another cell's attempt built).
    """

    def __init__(self, groups, registry: MetricsRegistry) -> None:
        self._profile: Dict[int, WorkloadProfile] = {}
        self._pending: Dict[WorkloadProfile, int] = {}
        for profile, cells in groups:
            if profile is not None and len(cells) > 1:
                self._pending[profile] = len(cells)
                self._profile.update(dict.fromkeys(cells, profile))
        self._live: Dict[WorkloadProfile, object] = {}
        self._served: set = set()
        self._registry = registry

    def handle(self, index: int) -> Optional[Callable[[], object]]:
        """What the executor calls for the cell's trace; None: it makes its own."""
        return partial(self._get, index) if index in self._profile else None

    def group(self, index: int) -> Optional[WorkloadProfile]:
        """The key of the cell's trace group; None: it makes its own trace."""
        return self._profile.get(index)

    def _get(self, index: int):
        profile = self._profile[index]
        trace = self._live.get(profile)
        if trace is None:
            trace = self._live[profile] = SyntheticWorkload(profile).columns()
            self._registry.counter("sweep.trace_generations").inc()
        elif index not in self._served:
            self._registry.counter("sweep.trace_shared").inc()
        self._served.add(index)
        return trace

    def release(self, index: int, simulated: bool) -> None:
        """The cell settled: drop its group's trace after the group's last."""
        profile = self._profile.get(index)
        if profile is None:
            if simulated:
                self._registry.counter("sweep.trace_generations").inc()
            return
        self._pending[profile] -= 1
        if not self._pending[profile]:
            self._live.pop(profile, None)


@dataclass(eq=False)
class _Sweep:
    """One running sweep: its settings, its progress, and the one settle step.

    :func:`run_sweep` feeds it the plan's cache hits, then every
    :class:`~repro.resilience.executor.CellEvent` its executor returns.
    Every finished cell, however it was served, goes through
    :meth:`settle`.
    """

    specs: List[RunSpec]
    keys: List[str]
    base_keys: List[str]
    cell_ids: List[str]
    jobs: int
    executor: Union[CellExecutor, InlineExecutor]
    cache: Optional[ResultCache]
    progress: Optional[ProgressHook]
    registry: MetricsRegistry
    policy: RetryPolicy
    keep_going: bool
    max_failures: Optional[int]
    faults: object
    journal: Optional[SweepJournal]
    telemetry: Optional[SpanRecorder]
    beat_every: float
    status_file: Optional[Path]
    sweep_id: str
    #: leader index -> cells re-priced from its counters (see plan_sweep)
    followers: Mapping[int, Tuple[int, ...]] = field(default_factory=dict)
    #: the shared traces, set once the plan exists
    traces: Optional[_TraceStore] = None
    done: int = 0
    failed: int = 0
    status_healthy: bool = True

    def __post_init__(self) -> None:
        self.outcomes: List[Optional[RunOutcome]] = [None] * len(self.specs)
        self.started = self.last_beat = time.perf_counter()
        self.cell_spans: Dict[int, object] = {}
        self.sweep_span = (
            self.telemetry.begin(
                f"sweep {self.sweep_id[:12]}", kind="sweep",
                sweep_id=self.sweep_id, cells=len(self.specs), jobs=self.jobs,
            )
            if self.telemetry is not None
            else None
        )

    # -- telemetry -------------------------------------------------------------

    def span_context(self, index: int):
        """What an attempt needs to hang its spans under this cell's span.

        Opens the cell span on first use; None without telemetry.
        """
        if self.telemetry is None:
            return None
        span = self.cell_spans.get(index)
        if span is None:
            span = self.cell_spans[index] = self.telemetry.begin(
                self.cell_ids[index], kind="cell", parent=self.sweep_span,
                tid=index + 1,
            )
        return (self.telemetry.trace_id, span.span_id)

    def _marker(self, index: int, kind: str, **attributes: object) -> None:
        """An instant marker under the cell's span, else under the sweep's."""
        if self.telemetry is not None:
            self.telemetry.event(
                self.cell_ids[index], kind=kind,
                parent=self.cell_spans.get(index) or self.sweep_span,
                tid=index + 1, **attributes,
            )

    def _end_cell_span(self, index: int, **attributes: object) -> None:
        span = self.cell_spans.pop(index, None)
        if span is not None:
            span.end(**attributes)

    # -- settling --------------------------------------------------------------

    def settle(self, index: int, outcome: RunOutcome, attempts: int = 1) -> None:
        """Record one finished cell.

        Fills its outcome slot, then its counter, its span or marker, its
        cache entries, its journal line, its log line and the progress
        hook, in that order.
        """
        self.outcomes[index] = outcome
        self.done += 1
        key, cell = self.keys[index], self.cell_ids[index]
        simulated = outcome.simulated
        counter = self.registry.counter
        if outcome.cached:
            counter("sweep.cache_hits").inc()
            if outcome.repriced:
                counter("sweep.repriced").inc()
            self._marker(index, "cache_hit", via_base=outcome.repriced)
        elif outcome.repriced:
            counter("sweep.repriced").inc()
            self._marker(index, "reprice", worker=outcome.worker)
        elif simulated:
            counter("sweep.simulated").inc()
            counter(f"simulate.engine.{outcome.result.engine}").inc()
            self.registry.histogram("sweep.cell_seconds").observe(outcome.elapsed)
            self._end_cell_span(
                index, status="ok", attempts=attempts,
                elapsed_s=outcome.elapsed, worker=outcome.worker,
            )
        else:
            self.failed += 1
            counter("sweep.failures").inc()
            self._end_cell_span(
                index, status="failed", kind=outcome.error.kind,
                attempts=attempts,
            )
        if self.cache is not None and (simulated or outcome.repriced):
            self.cache.put(key, outcome.result, manifest=outcome.manifest)
            if simulated and self.base_keys[index] != key:
                # Also store under the characterization-free identity, so a
                # future sweep with a brand-new characterization file can
                # re-price this simulation instead of re-running it.
                self.cache.put(
                    self.base_keys[index], outcome.result,
                    manifest=outcome.manifest,
                )
        if self.journal is not None:
            self.journal.record_cell(
                key, cell, "ok" if outcome.ok else "failed",
                cached=outcome.cached, attempts=attempts,
                elapsed=outcome.elapsed, error=outcome.error,
            )
        if simulated:
            logger.debug(
                "cell simulated",
                extra=fields(
                    protocol=outcome.spec.protocol, trace=outcome.spec.trace,
                    elapsed_s=round(outcome.elapsed, 4),
                    worker=outcome.worker, attempt=attempts,
                ),
            )
        elif not outcome.ok:
            error = outcome.error
            logger.error(
                "cell failed",
                extra=fields(
                    cell=cell, kind=error.kind,
                    error=f"{error.exc_type}: {error.message}",
                    attempts=error.attempts, worker=error.worker,
                ),
            )
        if self.progress is not None:
            self.progress(outcome)

    def serve_hit(
        self, index: int, result: SimulationResult, via_base: bool
    ) -> None:
        """Settle a cell the plan found in the cache.

        A hit via the base key is re-pricing across sweeps: the exact
        pricing is cold but the characterization-free simulation is warm,
        so the counters are served and written back under the full key.
        """
        spec, key = self.specs[index], self.keys[index]
        manifest = (
            collect_manifest(spec.as_dict(), key, 0.0, engine=result.engine)
            if via_base
            else self.cache.get_manifest(key)
        )
        self.settle(
            index,
            RunOutcome(
                spec=spec, result=result, cached=True, elapsed=0.0,
                worker=os.getpid(), manifest=manifest, repriced=via_base,
            ),
        )

    def complete(self, event: CellEvent) -> None:
        """Settle a simulated cell, then the cells re-priced from it."""
        result, elapsed, worker, manifest = event.payload
        self.traces.release(event.index, simulated=True)
        self.settle(
            event.index,
            RunOutcome(
                spec=self.specs[event.index], result=result, cached=False,
                elapsed=elapsed, worker=worker, manifest=manifest,
            ),
            attempts=event.attempt,
        )
        for index in self.followers.get(event.index, ()):
            spec = self.specs[index]
            self.settle(
                index,
                RunOutcome(
                    spec=spec, result=result, cached=False, elapsed=0.0,
                    worker=worker, repriced=True,
                    manifest=collect_manifest(
                        spec.as_dict(), self.keys[index], 0.0,
                        worker_pid=worker, engine=result.engine,
                    ),
                ),
            )
        if self.faults is not None and self.faults.should_interrupt(
            self.cell_ids[event.index], event.attempt
        ):
            raise KeyboardInterrupt  # injected SIGINT (fault harness)

    def retry_or_fail(self, event: CellEvent) -> None:
        """Resubmit a failed attempt after its backoff, or fail the cell."""
        index, attempt = event.index, event.attempt
        if event.kind == "timeout":
            self.registry.counter("sweep.timeouts").inc()
            self._marker(
                index, "timeout", attempt=attempt, elapsed_s=event.elapsed
            )
        if event.exc_type == "InjectedFault":
            self._marker(index, "fault", attempt=attempt)
        if attempt < self.policy.max_attempts:
            self.registry.counter("sweep.retries").inc()
            delay = self.policy.delay(self.keys[index], attempt)
            self._marker(
                index, "retry", attempt=attempt, backoff_s=delay,
                failure=event.kind,
            )
            logger.warning(
                "cell attempt failed; retrying",
                extra=fields(
                    cell=self.cell_ids[index], kind=event.kind,
                    attempt=attempt, max_attempts=self.policy.max_attempts,
                    backoff_s=round(delay, 3),
                    error=f"{event.exc_type}: {event.message}",
                ),
            )
            self.submit(index, attempt + 1, delay)
            return
        self.traces.release(index, simulated=False)
        error = RunError(
            kind=event.kind, exc_type=event.exc_type, message=event.message,
            attempts=attempt, worker=event.worker, elapsed=event.elapsed,
            traceback=event.traceback,
        )
        # Cells waiting to be re-priced from this simulation fail with it.
        elapsed = error.elapsed
        for cell in (index, *self.followers.get(index, ())):
            spec = self.specs[cell]
            manifest = collect_manifest(
                spec.as_dict(), self.keys[cell], elapsed,
                worker_pid=error.worker, error=error.to_dict(),
            )
            self.settle(
                cell,
                RunOutcome(
                    spec=spec, result=None, cached=False, elapsed=elapsed,
                    worker=error.worker, manifest=manifest, error=error,
                ),
                attempts=error.attempts,
            )
            elapsed = 0.0
        if not self.keep_going:
            raise CellFailure(self.cell_ids[index], error)
        if self.max_failures is not None and self.failed > self.max_failures:
            raise CellFailure(
                self.cell_ids[index], error,
                reason=f"more than max_failures={self.max_failures} cells failed",
            )

    def submit(self, index: int, attempt: int = 1, delay: float = 0.0) -> None:
        """Hand one attempt of a leader to the executor."""
        self.executor.submit(
            index, self.specs[index], attempt, delay,
            span_context=self.span_context(index),
            trace=self.traces.handle(index),
            group=self.traces.group(index),
        )

    # -- progress reporting ----------------------------------------------------

    def heartbeat(self) -> None:
        """Log progress and refresh the status snapshot, on the cadence."""
        if self.beat_every <= 0:
            return
        now = time.perf_counter()
        if now - self.last_beat < self.beat_every:
            return
        self.last_beat = now
        status = self.status("running")
        logger.info(
            "sweep progress",
            extra=fields(
                done=status["done"], total=status["cells"],
                simulated=status["simulated"], failed=status["failed"],
                references=status["references"],
            ),
        )
        self.publish_status(status)

    def status(self, state: str) -> Dict[str, object]:
        """The sweep's status snapshot (``repro-coherence status`` renders it)."""
        finished = [o for o in self.outcomes if o is not None]
        simulated_refs = sum(o.result.references for o in finished if o.simulated)
        running = self.executor.in_flight
        elapsed = time.perf_counter() - self.started
        cell_hist = self.registry.histogram("sweep.cell_seconds")
        remaining = max(0, len(self.specs) - self.done)
        eta = (
            remaining * cell_hist.mean / max(1, self.jobs)
            if state == "running" and cell_hist.count and remaining
            else None
        )
        counter = self.registry.counter
        return {
            "state": state,
            "ts": time.time(),
            "pid": os.getpid(),
            "sweep_id": self.sweep_id,
            "cells": len(self.specs),
            "done": self.done,
            "ok": self.done - self.failed,
            "failed": self.failed,
            "running": running,
            "pending": max(0, len(self.specs) - self.done - running),
            "simulated": counter("sweep.simulated").value,
            "cache_hits": counter("sweep.cache_hits").value,
            "repriced": counter("sweep.repriced").value,
            "retries": counter("sweep.retries").value,
            "timeouts": counter("sweep.timeouts").value,
            "references": sum(o.result.references for o in finished if o.ok),
            "refs_per_sec": simulated_refs / elapsed if elapsed > 0 else 0.0,
            "eta_s": eta,
            "wall_s": elapsed,
            "jobs": self.jobs,
            "journal": (
                str(self.journal.path) if self.journal is not None else None
            ),
        }

    def publish_status(self, status: Dict[str, object]) -> None:
        """Atomically write a status snapshot; degrade on any OSError."""
        if self.status_file is None or not self.status_healthy:
            return
        try:
            write_status(self.status_file, status)
        except OSError as exc:
            self.status_healthy = False
            logger.warning(
                "status snapshot write failed; disabling snapshots",
                extra=fields(path=str(self.status_file), error=str(exc)),
            )

    def close(self, state: str) -> Tuple[int, int]:
        """End open spans, journal and publish the final state; (ok, failed)."""
        for index in list(self.cell_spans):
            self._end_cell_span(index, status=state)
        if self.sweep_span is not None:
            self.sweep_span.end(status=state)
        ok = self.done - self.failed
        if self.journal is not None:
            self.journal.record_end(state, ok, self.failed)
        self.publish_status(self.status(state))
        return ok, self.failed


def run_sweep(
    specs: Sequence[RunSpec],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressHook] = None,
    probe_factory: Optional[ProbeFactory] = None,
    registry: Optional[MetricsRegistry] = None,
    retry: Union[int, RetryPolicy] = 0,
    cell_timeout: Optional[float] = None,
    keep_going: bool = False,
    max_failures: Optional[int] = None,
    faults=None,
    journal: Optional[SweepJournal] = None,
    resume: bool = False,
    telemetry: Optional[SpanRecorder] = None,
    heartbeat_seconds: Optional[float] = None,
    status_path: Optional[Union[str, Path]] = None,
) -> SweepReport:
    """Execute a sweep grid, optionally in parallel and through a cache.

    Cache lookups happen up front in the parent (:func:`plan_sweep`); only
    misses are dispatched to workers, and their results (plus run
    manifests) are written back to the cache by the parent (one writer, no
    cross-process races on fresh entries).  The ``progress`` hook fires
    once per cell — cache hits in spec order first, then executed cells as
    they complete.  ``probe_factory``, when given, produces a
    per-reference probe for every simulated cell and forces in-process
    execution (probes cannot stream across processes).  ``registry``
    collects the sweep's metrics; a fresh one is created when omitted and
    either way it rides on the returned report.

    Resilience knobs:

    * ``retry`` — extra attempts per failed cell: an int, or a full
      :class:`RetryPolicy` to control backoff.  Backoff jitter is hashed
      from the cell's cache key, never wall-clock random.
    * ``cell_timeout`` — per-cell wall-clock budget in seconds; overruns
      are SIGKILLed and count as a (retryable) ``timeout`` failure.
      Enforcing it requires a child process, so it applies even at
      ``jobs=1`` (probed sweeps excepted).
    * ``keep_going`` / ``max_failures`` — with ``keep_going=False`` (the
      default) the first cell to exhaust its attempts raises
      :class:`CellFailure`; with ``keep_going=True`` failures become
      outcomes in :attr:`SweepReport.failures` until more than
      ``max_failures`` of them accumulate.
    * ``journal`` / ``resume`` — a :class:`SweepJournal` records every
      outcome as it lands; ``resume=True`` additionally reports what a
      prior journal already covered (journaled successes are served from
      the cache, so only failed/missing cells re-simulate).
    * ``faults`` — a :class:`~repro.resilience.faults.FaultPlan` for
      deterministic fault injection (tests and CI soak runs).

    Telemetry knobs (all observer-only; counters are bit-identical with
    them on or off):

    * ``telemetry`` — a :class:`~repro.obs.telemetry.SpanRecorder` that
      collects the sweep's span tree, including worker-side spans shipped
      back over the result pipe.  ``None`` (the default) records nothing.
    * ``heartbeat_seconds`` — seconds between heartbeat log lines and
      status snapshots; defaults to ``REPRO_HEARTBEAT_SECONDS`` or
      :data:`HEARTBEAT_SECONDS`, and ``0`` disables the cadence.
    * ``status_path`` — where to publish the atomic status snapshot; when
      omitted it is derived from the journal path
      (``<sweep-key>.status.json``), and with neither no snapshot is
      written.  Snapshot write failures are logged and disable further
      snapshots; they never fail the sweep.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("at least one RunSpec is required")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if cell_timeout is not None and cell_timeout <= 0:
        raise ValueError(f"cell_timeout must be positive, got {cell_timeout}")
    if max_failures is not None and max_failures < 0:
        raise ValueError(f"max_failures must be >= 0, got {max_failures}")
    if resume and journal is None:
        raise ValueError("resume=True requires a journal")
    policy = retry if isinstance(retry, RetryPolicy) else RetryPolicy(int(retry))
    registry = registry if registry is not None else MetricsRegistry()
    beat_every = _resolve_heartbeat(heartbeat_seconds)
    probed = probe_factory is not None
    if probed and jobs > 1:
        logger.warning(
            "probed sweeps run inline; ignoring --jobs",
            extra=fields(jobs=jobs),
        )
    if probed and cell_timeout is not None:
        logger.warning(
            "probed sweeps run inline; cell timeouts are not enforced",
            extra=fields(cell_timeout=cell_timeout),
        )
    # Worker processes, unless a probe rules them out: for
    # parallelism, for a killable timeout, or to survive a kill fault.
    kills = faults is not None and faults.has_worker_kills
    if not probed and (jobs > 1 or cell_timeout is not None or kills):
        executor = CellExecutor(
            jobs=jobs, timeout=cell_timeout, faults=faults, registry=registry
        )
    else:
        executor = InlineExecutor(faults, telemetry, probe_factory)

    keys = [spec.cache_key() for spec in specs]
    base_keys = [spec.base_cache_key() for spec in specs]
    cell_ids = [spec.cell_id() for spec in specs]
    register = getattr(cache, "register_cell", None)
    if register is not None:
        for key, cell in zip(keys, cell_ids):
            register(key, cell)

    journaled_ok: set = set()
    if resume:
        prior = journal.load()
        journaled_ok = {
            key for key, record in prior.items() if record.get("status") == "ok"
        }
        logger.info(
            "resuming sweep from journal",
            extra=fields(
                journal=str(journal.path),
                journaled_ok=len(journaled_ok & set(keys)),
                journaled_failed=sum(
                    1 for r in prior.values() if r.get("status") == "failed"
                ),
                cells=len(specs),
            ),
        )
    if journal is not None:
        journal.record_start(len(specs), jobs)

    sweep_id = SweepJournal.sweep_key(keys)
    status_file: Optional[Path] = (
        Path(status_path) if status_path is not None else None
    )
    if status_file is None and journal is not None:
        stem = journal.path.name
        if stem.endswith(JOURNAL_SUFFIX):
            stem = stem[: -len(JOURNAL_SUFFIX)]
        status_file = journal.path.with_name(f"{stem}{STATUS_SUFFIX}")

    wall = registry.timer("sweep.wall_seconds")
    wall_before = wall.total_seconds
    registry.gauge("sweep.jobs").set(jobs)
    registry.counter("sweep.cells").inc(len(specs))
    logger.info(
        "sweep started",
        extra=fields(
            cells=len(specs), jobs=jobs, cache=cache is not None,
            probed=probed, retries=policy.retries,
            cell_timeout=cell_timeout, keep_going=keep_going,
            resume=resume, faults=faults is not None,
        ),
    )
    sweep = _Sweep(
        specs=specs, keys=keys, base_keys=base_keys, cell_ids=cell_ids,
        jobs=jobs, executor=executor, cache=cache, progress=progress,
        registry=registry, policy=policy, keep_going=keep_going,
        max_failures=max_failures, faults=faults, journal=journal,
        telemetry=telemetry, beat_every=beat_every, status_file=status_file,
        sweep_id=sweep_id,
    )

    try:
        sweep.publish_status(sweep.status("running"))
        with wall.time():
            plan = plan_sweep(
                keys, base_keys, cache.get if cache is not None else None,
                group=not probed,
                trace_of=None if probed else lambda index: (
                    specs[index].profile() if specs[index].uses_columns() else None
                ),
            )
            for index, result, via_base in plan.hits:
                sweep.serve_hit(index, result, via_base)
                sweep.heartbeat()
            if resume:
                served = {index for index, _, _ in plan.hits}
                for index, key in enumerate(keys):
                    if index not in served and key in journaled_ok:
                        logger.warning(
                            "journaled success missing from cache; "
                            "re-simulating",
                            extra=fields(cell=cell_ids[index]),
                        )
            if plan.followers:
                logger.info(
                    "re-pricing collapsed sweep cells",
                    extra=fields(
                        simulate=len(plan.leaders),
                        repriced=sum(map(len, plan.followers.values())),
                    ),
                )
            sweep.followers = plan.followers
            sweep.traces = _TraceStore(plan.groups, registry)
            for _, cells in plan.groups:
                for index in cells:
                    sweep.submit(index)
            while executor.active:
                for event in executor.poll():
                    # Worker-side telemetry rides on every event, success or
                    # failure — a retried attempt's metrics/spans still count.
                    if event.metrics:
                        registry.merge_snapshot(event.metrics)
                    if telemetry is not None and event.spans:
                        telemetry.ingest(event.spans)
                    if event.ok:
                        sweep.complete(event)
                    else:
                        sweep.retry_or_fail(event)
                sweep.heartbeat()
    except KeyboardInterrupt:
        ok, failed = sweep.close("interrupted")
        partial = SweepReport(
            outcomes=tuple(o for o in sweep.outcomes if o is not None),
            wall_time=wall.total_seconds - wall_before,
            jobs=jobs,
            registry=registry,
        )
        logger.warning(
            "sweep interrupted; completed cells are flushed",
            extra=fields(completed=ok + failed, total=len(specs)),
        )
        raise SweepInterrupted(partial, len(specs)) from None
    except CellFailure:
        sweep.close("failed")
        raise
    finally:
        # Kills what a raised sweep left in flight; after a finished sweep
        # this only retires the cell workers.
        executor.abort()

    report = SweepReport(
        outcomes=tuple(sweep.outcomes),
        wall_time=wall.total_seconds - wall_before,
        jobs=jobs,
        registry=registry,
    )
    registry.gauge("sweep.refs_per_sec").set(report.refs_per_sec)
    sweep.close("finished")
    logger.info(
        "sweep finished",
        extra=fields(
            cells=report.cells,
            simulated=report.simulations,
            cache_hits=report.cache_hits,
            failures=len(report.failures),
            wall_s=round(report.wall_time, 3),
            refs_per_sec=round(report.refs_per_sec),
        ),
    )
    return report
