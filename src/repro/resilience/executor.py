"""Cell execution in long-lived workers: isolation, kill-based timeouts, crash detection.

The original sweep loop fanned cells over ``multiprocessing.Pool.imap``,
which has two fatal failure modes for long sweeps: a raised exception in
any cell aborts the whole iteration, and a SIGKILL'd worker (OOM killer,
operator, fault injection) leaves the pool waiting forever for a result
that will never arrive.  :class:`CellExecutor` replaces it with at most
``jobs`` long-lived worker processes, one per slot per trace group,
dispatched future-style:

* each worker has its own pipe and runs one attempt at a time, so a crash
  or a timeout loses exactly the in-flight attempt: the parent reaps or
  kills that worker alone, and the slot forks a new one on its next
  dispatch;
* a worker is forked with its trace group's shared trace as a ``Process``
  argument, so under fork it inherits the trace with no copy and no
  pickle, and it serves every attempt of that group and every attempt
  with no group (the cell makes its own trace); an idle worker that
  cannot serve the next ready attempt is retired before the next group's
  trace is built, and the slot forks one that can.  The sweep process
  keeps no reference to a worker's trace, so a group's trace is freed
  there when its last cell settles;
* a worker whose sweep process dies without cleaning up (SIGKILL, the
  OOM killer, an unhandled SIGTERM) sees the parent's exit sentinel and
  exits, so no worker outlives its sweep;
* the parent owns a wall-clock deadline per in-flight attempt and
  SIGKILLs overruns (a cooperative timeout cannot interrupt a stuck
  simulation);
* a worker that dies without reporting is detected by process exit, not
  by a hang, and surfaces as a ``worker-crash`` event;
* retries re-enter through :meth:`CellExecutor.submit` with a delay, so
  backoff scheduling lives in the same queue as fresh dispatches.

Telemetry crosses the process boundary on the same pipe (see
``docs/observability.md``): every worker attempt swaps a **fresh**
process-wide metrics registry in (:func:`repro.obs.metrics.set_registry`)
so whatever the attempt tallies — cache traffic, corrupt-entry
deletions, ad-hoc counters — comes back as a snapshot delta on the
event, and when the sweep ships a :data:`~repro.obs.telemetry.SpanContext`
the worker records ``attempt``/``stage`` spans under the parent's cell
span in a fresh recorder and returns them serialised alongside the
delta.  Nothing one attempt tallies carries over to the next attempt on
the same worker.  Both ride on success *and* failure events, so a
retried attempt's telemetry survives the retry.

Both executors run the same :func:`run_attempt`: the worker wraps it in a
fresh registry and a pipe, and :class:`InlineExecutor` calls it in the
sweep's own process behind the same ``submit``/``poll``/``active``/
``abort`` surface.  A submit may carry the cell's ``trace``, a callable
the executor calls when the attempt starts, with the ``group`` key that
names it: the sweep's shared trace store builds a trace there, once per
group of cells.  Either way the
sweep loop sees :class:`CellEvent`s and turns failures into
:class:`~repro.resilience.errors.RunError`s (which know the attempt
budget) and results into :class:`~repro.runner.sweep.RunOutcome`s.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as wait_connections
from typing import Dict, List, Optional, Tuple

from ..obs.manifest import collect_manifest
from ..obs.metrics import MetricsRegistry, set_registry
from ..obs.telemetry import SpanRecorder

__all__ = ["CellEvent", "CellExecutor", "InlineExecutor", "run_attempt"]

#: Upper bound on one poll's blocking wait; keeps timeouts responsive.
POLL_SECONDS = 0.05

#: How long a retired worker gets to exit on its own before it is killed.
RETIRE_SECONDS = 5.0


def _stage(recorder: Optional[SpanRecorder], name: str, parent, tid: int):
    """A ``stage`` span under ``parent``, or nothing without a recorder."""
    if recorder is None:
        return nullcontext()
    return recorder.span(name, kind="stage", parent=parent, tid=tid)


def run_attempt(
    spec,
    attempt: int,
    faults=None,
    recorder: Optional[SpanRecorder] = None,
    parent: Optional[str] = None,
    tid: int = 0,
    probe=None,
    isolated: bool = False,
    trace=None,
) -> dict:
    """Run one cell attempt: fire injected faults, simulate, collect provenance.

    The one attempt path, shared by the child worker (``isolated=True``:
    kill faults fire and even an interrupt becomes an error message) and
    :class:`InlineExecutor` (kill faults are skipped and interrupts
    propagate to the sweep).  With a ``recorder`` the attempt records its
    ``attempt → simulate/report`` spans under the ``parent`` span id.
    ``trace``, when given, is the cell's already generated trace.
    Returns the :class:`CellEvent` fields that describe the outcome.
    """
    pid = os.getpid()
    attempt_span = None
    if recorder is not None:
        attempt_span = recorder.begin(
            f"attempt {attempt}", kind="attempt", parent=parent, tid=tid,
            attempt=attempt, cell=spec.cell_id(),
        )

    start = time.perf_counter()
    try:
        if faults is not None:
            faults.fire_worker_faults(spec.cell_id(), attempt, allow_kill=isolated)
        with _stage(recorder, "simulate", attempt_span, tid):
            if trace is None:  # a spec type whose run() takes no trace still runs
                result = spec.run(probe=probe)
            else:
                result = spec.run(probe=probe, trace=trace)
        elapsed = time.perf_counter() - start
        with _stage(recorder, "report", attempt_span, tid):
            manifest = collect_manifest(
                spec.as_dict(), spec.cache_key(), elapsed, worker_pid=pid,
                engine=result.engine,
            )
    except BaseException as exc:  # noqa: BLE001 - everything becomes a message
        elapsed = time.perf_counter() - start
        escapes = not isolated and not isinstance(exc, Exception)
        if attempt_span is not None:
            if escapes:
                attempt_span.end(status="interrupted")
            else:
                attempt_span.end(status="error", error=type(exc).__name__)
        if escapes:
            raise
        return dict(
            kind="exception", exc_type=type(exc).__name__, message=str(exc),
            traceback=traceback.format_exc(), worker=pid, elapsed=elapsed,
        )
    if attempt_span is not None:
        attempt_span.end(status="ok")
    return dict(payload=(result, elapsed, pid, manifest), worker=pid)


def _cell_worker(
    conn: Connection, parent_end: Connection, faults, trace=None
) -> None:
    """Worker entry point: run each attempt the parent sends, report it.

    Each message is ``(index, spec, attempt, span_context)``.  ``None``,
    the parent's exit or a report the parent can no longer read ends the
    loop, and the process exits normally.  The worker first closes its
    inherited copy of the parent's end of the pipe, so a report to a dead
    parent fails instead of filling a buffer nobody drains.  Every
    attempt runs against a fresh process-wide registry, whose snapshot
    travels back as the event's metrics delta, and with a
    ``span_context`` a fresh recorder for its span subtree (attempt →
    stages), so nothing carries over from one attempt to the next.
    """
    parent_end.close()
    parent_exit = multiprocessing.parent_process().sentinel
    try:
        while True:
            try:
                if parent_exit in wait_connections([conn, parent_exit]):
                    return  # the sweep process is gone
                message = conn.recv()
            except (EOFError, OSError, KeyboardInterrupt):
                return  # the pipe is gone, or interrupted and aborting
            if message is None:
                return
            index, spec, attempt, span_context = message
            registry = MetricsRegistry()
            set_registry(registry)
            recorder = parent = None
            if span_context is not None:
                trace_id, parent = span_context
                recorder = SpanRecorder(trace_id=trace_id)
            outcome = run_attempt(
                spec, attempt, faults, recorder, parent, tid=index + 1,
                isolated=True, trace=trace,
            )
            delta = registry.as_dict()
            try:
                conn.send((
                    outcome,
                    delta if any(delta.values()) else None,
                    recorder.serialized() if recorder is not None else [],
                ))
            except OSError:
                return  # nobody is left to read the report
    finally:
        conn.close()


@dataclass(frozen=True)
class CellEvent:
    """One finished cell attempt, success or failure."""

    index: int
    spec: object
    attempt: int
    #: (result, elapsed, worker_pid, manifest) on success, else None
    payload: Optional[Tuple] = None
    #: one of ERROR_KINDS on failure, else None
    kind: Optional[str] = None
    exc_type: str = ""
    message: str = ""
    traceback: Optional[str] = None
    worker: int = 0
    elapsed: float = 0.0
    #: the worker attempt's process-wide registry snapshot (None when empty)
    metrics: Optional[dict] = None
    #: the worker attempt's serialised spans (empty without a span context)
    spans: Tuple = field(default=())

    @property
    def ok(self) -> bool:
        return self.payload is not None


@dataclass
class _Worker:
    """A worker process, its pipe, and the trace group it was forked for.

    Only the group key is kept, not the trace: the sweep's trace store
    alone decides how long a trace lives in this process.
    """

    process: multiprocessing.Process
    conn: Connection
    #: the trace group whose trace the worker holds (None: no trace)
    group: object = None


@dataclass
class _Task:
    """One attempt in flight on a worker."""

    worker: _Worker
    spec: object
    attempt: int
    started: float


class CellExecutor:
    """Dispatch cell attempts to long-lived worker processes; poll for events.

    At most ``jobs`` workers run at once.  ``registry``, when given,
    counts each worker fork in ``sweep.worker_starts``.
    """

    def __init__(
        self,
        jobs: int,
        timeout: Optional[float] = None,
        faults=None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self._jobs = jobs
        self._timeout = timeout
        self._faults = faults
        self._starts = (
            registry if registry is not None else MetricsRegistry()
        ).counter("sweep.worker_starts")
        self._ctx = multiprocessing.get_context()
        self._running: Dict[int, _Task] = {}
        self._idle: List[_Worker] = []
        self._queue: List[Tuple] = []
        self._seq = 0

    # -- dispatch -------------------------------------------------------------

    def submit(
        self,
        index: int,
        spec,
        attempt: int = 1,
        delay: float = 0.0,
        span_context=None,
        trace=None,
        group=None,
    ) -> None:
        """Queue one cell attempt, optionally delayed (retry backoff).

        ``span_context`` — a ``(trace_id, parent_span_id)`` pair — makes
        the worker record its attempt/stage spans under the parent's cell
        span (see :mod:`repro.obs.telemetry`).  ``trace`` is called when
        the attempt starts; it goes with ``group``, a hashable key naming
        the one trace it returns, and the attempt runs on a worker forked
        with that trace.
        """
        if trace is not None and group is None:
            raise ValueError("a shared trace needs its group key")
        heapq.heappush(
            self._queue,
            (
                time.monotonic() + delay,
                self._seq, index, spec, attempt, span_context, trace, group,
            ),
        )
        self._seq += 1

    @property
    def active(self) -> bool:
        """True while any attempt is running or queued."""
        return bool(self._running or self._queue)

    @property
    def in_flight(self) -> int:
        return len(self._running)

    def _start_ready(self, fork: bool = True) -> None:
        """Hand ready attempts to workers, forking new ones only if ``fork``.

        Without ``fork`` only idle workers take attempts: a fork may need
        a new group's trace, and that waits for the next poll, after the
        sweep has settled this poll's events and so released the traces
        of the groups they finished.
        """
        now = time.monotonic()
        while (
            self._queue
            and len(self._running) < self._jobs
            and self._queue[0][0] <= now
        ):
            worker = self._idle_worker_for(self._queue[0][-1], retire=fork)
            if worker is None and not fork:
                return
            _, _, index, spec, attempt, span_context, trace, group = (
                heapq.heappop(self._queue)
            )
            shared = trace() if trace is not None else None
            if worker is None:
                worker = self._fork(group, shared)
            self._running[index] = _Task(
                worker=worker, spec=spec, attempt=attempt,
                started=time.monotonic(),
            )
            try:
                worker.conn.send((index, spec, attempt, span_context))
            except OSError:
                pass  # the worker just died: _check reports the crash

    def _idle_worker_for(self, group, retire: bool) -> Optional[_Worker]:
        """Take an idle worker that serves ``group``; None: fork one.

        A worker serves attempts with no group and attempts of the group
        it was forked for.  Idle workers that died are reaped; with
        ``retire`` and every slot taken, an idle worker that cannot serve
        is retired, before the caller builds the next group's trace.
        """
        for worker in list(self._idle):
            if not worker.process.is_alive():
                self._idle.remove(worker)
                self._reap(worker)
            elif group is None or worker.group == group:
                self._idle.remove(worker)
                return worker
        if retire and len(self._idle) + len(self._running) >= self._jobs:
            self._retire(self._idle.pop(0))
        return None

    def _fork(self, group, trace) -> _Worker:
        """Start a worker for ``group`` that inherits its ``trace``."""
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_cell_worker,
            args=(child_conn, parent_conn, self._faults, trace),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._starts.inc()
        return _Worker(process=process, conn=parent_conn, group=group)

    # -- polling --------------------------------------------------------------

    def poll(self) -> List[CellEvent]:
        """Start what's ready, wait briefly, and return finished attempts."""
        self._start_ready()
        events: List[CellEvent] = []
        if self._running:
            wait_connections(
                [task.worker.conn for task in self._running.values()],
                timeout=POLL_SECONDS,
            )
            for index, task in list(self._running.items()):
                event = self._check(index, task)
                if event is not None:
                    events.append(event)
                    del self._running[index]
        elif self._queue:
            # Nothing in flight: sleep until the earliest backoff expires.
            pause = self._queue[0][0] - time.monotonic()
            if pause > 0:
                time.sleep(min(POLL_SECONDS, pause))
        self._start_ready(fork=False)
        return events

    def _check(self, index: int, task: _Task) -> Optional[CellEvent]:
        # Liveness first: a worker that reports and then dies has its
        # report in the pipe by the time it is seen dead.  Polling first
        # would miss a report sent between the two checks.
        worker = task.worker
        alive = worker.process.is_alive()
        if worker.conn.poll():
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                return self._crash_event(index, task)
            return self._message_event(index, task, message)
        if not alive:
            return self._crash_event(index, task)
        if (
            self._timeout is not None
            and time.monotonic() - task.started > self._timeout
        ):
            return self._timeout_event(index, task)
        return None

    @staticmethod
    def _reap(worker: _Worker, kill: bool = False) -> None:
        """Join a worker that exited, or kill it first."""
        if kill:
            worker.process.kill()
        worker.process.join()
        worker.conn.close()

    def _retire(self, worker: _Worker) -> None:
        """Stop an idle worker; it exits normally, so its exit hooks run.

        The stop is a ``None`` message, not only a closed pipe: workers
        forked later hold copies of this end, so closing it alone would
        not reach the worker as end-of-file.
        """
        try:
            worker.conn.send(None)
        except OSError:
            pass  # it died idle
        worker.process.join(RETIRE_SECONDS)
        self._reap(worker, kill=worker.process.is_alive())

    def _message_event(self, index: int, task: _Task, message) -> CellEvent:
        self._idle.append(task.worker)
        outcome, metrics, spans = message
        return CellEvent(
            index=index, spec=task.spec, attempt=task.attempt,
            metrics=metrics, spans=tuple(spans), **outcome,
        )

    def _crash_event(self, index: int, task: _Task) -> CellEvent:
        elapsed = time.monotonic() - task.started
        self._reap(task.worker)
        exitcode = task.worker.process.exitcode
        if exitcode is not None and exitcode < 0:
            exc_type = f"Signal({-exitcode})"
        else:
            exc_type = f"Exit({exitcode})"
        return CellEvent(
            index=index,
            spec=task.spec,
            attempt=task.attempt,
            kind="worker-crash",
            exc_type=exc_type,
            message=(
                "worker process died before returning a result "
                f"(exit code {exitcode})"
            ),
            worker=task.worker.process.pid or 0,
            elapsed=elapsed,
        )

    def _timeout_event(self, index: int, task: _Task) -> CellEvent:
        elapsed = time.monotonic() - task.started
        self._reap(task.worker, kill=True)
        return CellEvent(
            index=index,
            spec=task.spec,
            attempt=task.attempt,
            kind="timeout",
            exc_type="CellTimeout",
            message=f"cell exceeded {self._timeout:g}s wall-clock limit",
            worker=task.worker.process.pid or 0,
            elapsed=elapsed,
        )

    # -- teardown -------------------------------------------------------------

    def abort(self) -> int:
        """Kill what is in flight, drop the queue and retire idle workers.

        Returns the attempts dropped.  After a sweep that finished, nothing
        is in flight or queued, so this only retires its workers.
        """
        dropped = len(self._running) + len(self._queue)
        for task in self._running.values():
            self._reap(task.worker, kill=True)
        for worker in self._idle:
            self._retire(worker)
        self._running.clear()
        self._idle.clear()
        self._queue.clear()
        return dropped


class InlineExecutor:
    """Run cell attempts in this process: :class:`CellExecutor`'s surface.

    For sweeps a child process cannot serve (probes stream per-reference
    events that cannot cross processes) or does not need to (one job, no
    timeout, no kill fault).  Attempts run one per :meth:`poll`, cells in
    the order they were first submitted, so a retried cell runs again
    before the next cell starts; its backoff is a delayed :meth:`submit`
    that the poll sleeps out.  Kill faults are skipped, an interrupt
    propagates to the caller, and the attempt's metrics land in the
    process-wide registry directly.
    """

    #: nothing runs between polls
    in_flight = 0

    def __init__(
        self,
        faults=None,
        telemetry: Optional[SpanRecorder] = None,
        probe_factory=None,
    ) -> None:
        self._faults = faults
        self._telemetry = telemetry
        self._probe_factory = probe_factory
        self._queue: List[Tuple] = []
        #: cell index -> its place in the first-submission order
        self._rank: Dict[int, int] = {}

    def submit(
        self,
        index: int,
        spec,
        attempt: int = 1,
        delay: float = 0.0,
        span_context=None,
        trace=None,
        group=None,
    ) -> None:
        """Queue one cell attempt, optionally delayed (retry backoff).

        ``group`` is accepted for :class:`CellExecutor`'s surface; every
        attempt here runs in this process.
        """
        rank = self._rank.setdefault(index, len(self._rank))
        heapq.heappush(
            self._queue,
            (
                rank, time.monotonic() + delay,
                index, attempt, spec, span_context, trace,
            ),
        )

    @property
    def active(self) -> bool:
        return bool(self._queue)

    def poll(self) -> List[CellEvent]:
        """Run the first-submitted queued cell once its backoff is over."""
        if not self._queue:
            return []
        _, ready, index, attempt, spec, span_context, trace = heapq.heappop(
            self._queue
        )
        pause = ready - time.monotonic()
        if pause > 0:
            time.sleep(pause)
        probe = (
            self._probe_factory(spec) if self._probe_factory is not None else None
        )
        outcome = run_attempt(
            spec, attempt, self._faults,
            recorder=self._telemetry,
            parent=span_context[1] if span_context is not None else None,
            tid=index + 1,
            probe=probe,
            trace=trace() if trace is not None else None,
        )
        return [CellEvent(index=index, spec=spec, attempt=attempt, **outcome)]

    def abort(self) -> int:
        """Drop the queue; returns cells dropped."""
        dropped = len(self._queue)
        self._queue.clear()
        return dropped
