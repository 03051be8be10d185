"""Layer attribution for the traced run: wrappers around public entry points.

The traced run never edits the program.  :meth:`Tracer.install` replaces a
fixed set of public functions and methods with thin wrappers that record a
span (layer, start, end, parent, pid, thread) around each call, then call
the original.  Spans nest per thread, so a layer's *self time* is its span
minus the spans directly inside it, and the self times of one thread add up
to the wall time of its outermost span.

A thread can pause recording (:meth:`Tracer.pause`), so that traced and
untraced operations alternate in one run; its calls then pass straight
through the wrappers.  Forked children (the sweep's cell workers, the
service's job processes) inherit the wrappers and the forking thread's
pause.  Each process keeps its spans in memory and writes
them to ``spans-<pid>.jsonl`` in the span directory when it exits;
:func:`load_spans` merges the files after the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing.util
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List

#: Records pulled from a trace generator per timed chunk (never per record).
CHUNK = 4096

#: Layer of the benchmark's own operation span; its self time is the residual.
OP = "bench.op"

#: Layer of the benchmark's output checks inside an operation.
CHECK = "bench.check"


class Tracer:
    """Per-process span buffer plus the wrappers that fill it."""

    def __init__(self, span_dir: Path) -> None:
        self.span_dir = Path(span_dir)
        self.span_dir.mkdir(parents=True, exist_ok=True)
        self.active = False
        self._reset()
        os.register_at_fork(after_in_child=self._reset)
        multiprocessing.util.register_after_fork(self, Tracer._flush_at_exit)

    def _reset(self) -> None:
        # A forked child keeps the pause of the thread that forked it.
        paused = getattr(getattr(self, "_local", None), "paused", False)
        self.pid = os.getpid()
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._local.paused = paused

    def _flush_at_exit(self) -> None:
        # multiprocessing children leave through os._exit: a finalizer is
        # the last code that runs in them.
        multiprocessing.util.Finalize(None, self.flush, exitpriority=100)

    # -- recording -------------------------------------------------------------

    def pause(self, paused: bool) -> None:
        """Stop (or resume) recording in the calling thread and its forks."""
        self._local.paused = paused

    def recording(self) -> bool:
        """Whether a call made in this thread now records a span."""
        return self.active and not getattr(self._local, "paused", False)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, layer: str) -> dict:
        stack = self._stack()
        span = {
            "id": f"{self.pid}-{next(self._ids)}",
            "parent": stack[-1]["id"] if stack else None,
            "layer": layer,
            "pid": self.pid,
            "tid": threading.get_ident(),
            "t0": time.perf_counter(),
        }
        stack.append(span)
        return span

    def end(self, span: dict, **attributes: object) -> None:
        span["t1"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if attributes:
            span.update(attributes)
        self.spans.append(span)

    def flush(self) -> None:
        """Append this process's finished spans to its own file."""
        if not self.spans:
            return
        path = self.span_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []

    # -- wrapping --------------------------------------------------------------

    def _timed(self, original, layer, attrs=None):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.recording():
                return original(*args, **kwargs)
            name = layer(args) if callable(layer) else layer
            span = tracer.begin(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                tracer.end(span)
                if attrs is not None:
                    span.update(attrs(args, result))

        return wrapper

    def _chunked_records(self, original):
        """Time a trace generator per :data:`CHUNK` records pulled from it."""
        tracer = self

        @functools.wraps(original)
        def records(*args, **kwargs):
            stream = original(*args, **kwargs)
            if not tracer.recording():
                yield from stream
                return
            first = True
            while True:
                span = tracer.begin("trace.generate")
                chunk = list(itertools.islice(stream, CHUNK))
                tracer.end(span, refs=len(chunk), first=first and bool(chunk))
                if not chunk:
                    return
                first = False
                yield from chunk

        return records

    def install(self) -> None:
        """Wrap the public entry points of every layer the benchmark names."""
        import repro.analysis.figures as figures
        import repro.analysis.tables as tables
        from repro.core.fastsim import FastPipeline
        from repro.core.simulator import SimulationResult
        from repro.protocols.base import CoherenceProtocol
        from repro.resilience.executor import CellExecutor
        from repro.runner.cache import ResultCache
        from repro.runner.spec import RunSpec
        from repro.runner.sweep import run_sweep
        from repro.service.client import ServiceClient
        from repro.service.jobs import JobManager
        from repro.trace.synthetic import SyntheticWorkload

        def entry_bytes(cache, key) -> int:
            try:
                return cache.path_for(key).stat().st_size
            except OSError:
                return 0

        def get_attrs(args, result):
            hit = result is not None
            return {"hit": hit, "bytes": entry_bytes(*args[:2]) if hit else 0}

        def put_attrs(args, result):
            return {"bytes": entry_bytes(*args[:2])}

        def repriced(args, report):
            return {"repriced": report.repricings if report is not None else 0}

        methods = [
            (SyntheticWorkload, "records", None, None),
            (
                FastPipeline,
                "run",
                lambda args: (
                    "core.kernel_table" if args[0].uses_table
                    else "core.kernel_fallback"
                ),
                lambda args, result: {
                    "refs": result.references if result is not None else 0
                },
            ),
            (ResultCache, "get", "runner.cache_get", get_attrs),
            (ResultCache, "get_manifest", "runner.cache_get", None),
            (ResultCache, "put", "runner.cache_put", put_attrs),
            (RunSpec, "run", "runner.cell", None),
            (SimulationResult, "cost_summary", "interconnect.price", None),
            (CellExecutor, "poll", "resilience.poll", None),
            (tables.Table4, "render", "analysis.render", None),
            (tables.Table5, "render", "analysis.render", None),
            (figures.RangeBars, "render", "analysis.render", None),
            (JobManager, "submit", "service.submit", None),
            (ServiceClient, "submit", "service.http", None),
            (ServiceClient, "status", "service.http", None),
            (ServiceClient, "result", "service.http", None),
            (ServiceClient, "wait", "service.wait", None),
        ]
        for owner, attr, layer, attrs in methods:
            original = owner.__dict__[attr]
            if attr == "records":
                setattr(owner, attr, self._chunked_records(original))
            else:
                setattr(owner, attr, self._timed(original, layer, attrs))
        for cls in _subclasses(CoherenceProtocol):
            if "compile_table" in cls.__dict__:
                cls.compile_table = self._timed(
                    cls.__dict__["compile_table"], "protocols.compile"
                )
        functions = [
            (run_sweep, "runner.sweep", repriced),
            (tables.table4, "analysis.render", None),
            (tables.table5, "analysis.render", None),
            (figures.figure2, "analysis.render", None),
        ]
        for original, layer, attrs in functions:
            _rebind(original, self._timed(original, layer, attrs))


def _subclasses(cls) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _rebind(original, wrapper) -> None:
    """Point every imported name bound to ``original`` at ``wrapper``."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace or not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, value in list(namespace.items()):
            if value is original:
                setattr(module, name, wrapper)


# -- analysis -------------------------------------------------------------------


def load_spans(span_dir: Path, own: Iterable[dict] = ()) -> List[dict]:
    """Every span written under ``span_dir`` plus this process's ``own``."""
    spans = list(own)
    for path in sorted(Path(span_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Self seconds per layer: each span minus its direct children."""
    child_time: Dict[str, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["t1"] - span["t0"]
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span["layer"]] += span["t1"] - span["t0"] - child_time[span["id"]]
    return dict(totals)


def layer_spans(spans: List[dict], layer: str) -> List[dict]:
    return [span for span in spans if span["layer"] == layer]


def op_wall(spans: List[dict]) -> float:
    """Summed wall time of the benchmark's operation spans."""
    return sum(span["t1"] - span["t0"] for span in layer_spans(spans, OP))
