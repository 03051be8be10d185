"""The three workloads: what each sets up, what one timed operation is.

Every workload takes the workload seed, which fixes the trace seeds, the
request order and which requests repeat.  A workload object is set up once
or more (:meth:`setup`, timed by ``run.py`` as ``setup_s``), then runs a
closed loop of operations for the timed window (:func:`closed_loop`).  Each
operation ends at a *verified* result: every cell it returned has been put
through :class:`checks.Verifier`.
"""

from __future__ import annotations

import ast
import itertools
import os
import pickle
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from checks import Verifier, cell_key
from tracer import CHECK, OP, Tracer

ROOT = Path(__file__).resolve().parent.parent

#: The paper's four main-evaluation schemes.
CORE = ("dir1nb", "wti", "dir0b", "dragon")


@dataclass
class Op:
    """One completed (or failed) operation of the timed window."""

    latency: float
    ok: bool
    refs: int = 0
    cells: int = 0
    hits: int = 0
    keys: Tuple[str, ...] = ()
    info: Dict[str, object] = field(default_factory=dict)
    #: run with the tracer recording (traced runs only)
    traced: bool = False
    #: seconds from the start of the window to the operation's completion
    end: float = 0.0


def closed_loop(
    operation: Callable[[int], Op], seconds: float, clients: int = 1
) -> List[Op]:
    """Run ``operation`` back to back from ``clients`` callers for ``seconds``.

    A caller starts its next operation only after the previous one has
    returned (a closed loop), and stops starting new ones at the deadline.
    ``operation`` receives a sequence number unique within the window; an
    exception it raises in any caller is re-raised here.  The operations
    come back in the order they completed, each stamped with its
    completion time (:attr:`Op.end`).
    """
    ops: List[Op] = []
    errors: List[BaseException] = []
    lock = threading.Lock()
    counter = itertools.count()
    start = time.perf_counter()
    deadline = start + seconds

    def caller() -> None:
        while True:
            with lock:
                if errors or (ops and time.perf_counter() >= deadline):
                    return
                index = next(counter)
            try:
                op = operation(index)
            except BaseException as error:
                with lock:
                    errors.append(error)
                return
            with lock:
                op.end = time.perf_counter() - start
                ops.append(op)
            if time.perf_counter() >= deadline:
                return

    threads = [threading.Thread(target=caller) for _ in range(clients - 1)]
    for thread in threads:
        thread.start()
    caller()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return ops


class _Span:
    """A benchmark-side span around one operation or one of its checks.

    Outside traced operations it only measures the operation's latency.
    """

    def __init__(self, tracer: Optional[Tracer], layer: str = OP) -> None:
        self.tracer = tracer if _recording(tracer) else None
        self.layer = layer

    def __enter__(self) -> "_Span":
        if self.tracer is not None:
            self.span = self.tracer.begin(self.layer)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.latency = time.perf_counter() - self.start
        if self.tracer is not None:
            self.tracer.end(self.span)


def _recording(tracer: Optional[Tracer]) -> bool:
    return tracer is not None and tracer.recording()


def fallback_protocols(names) -> set:
    """Registered protocols the fast backend runs on the reference loop."""
    from repro import create_protocol

    return {name for name in names if create_protocol(name, 4).compile_table() is None}


class _GridWorkload:
    """A workload that runs one fixed sweep grid in this process."""

    def __init__(self, seed: int, work: Path, verifier: Verifier) -> None:
        self.seed, self.work, self.verifier = seed, work, verifier
        self.tracer: Optional[Tracer] = None

    def start_tracing(self, tracer: Tracer) -> None:
        """Record spans (and the sweeps' own telemetry) of traced operations."""
        self.tracer = tracer

    def traced(self, index: int) -> bool:
        """Traced and untraced operations alternate."""
        return index % 2 == 0

    def _verified(self, outcomes) -> bool:
        ok = True
        for outcome in outcomes:
            ok &= outcome.ok and self.verifier.check(
                outcome.spec, outcome.result.counters.signature()
            )
        return ok

    def properties(self, ops: List[Op]) -> Dict[str, float]:
        return {
            "cells_per_trace": len(self.specs) / _distinct_traces(self.specs),
            "fallback_share": sum(
                spec.protocol in self.fallback for spec in self.specs
            ) / len(self.specs),
            "cache_hit_share": _hit_share(ops),
        }


class ColdRegistry(_GridWorkload):
    """All 21 protocols x POPS through an empty cache at ``jobs=2``."""

    name = "cold_registry"
    scale = 1 / 512
    jobs = 2

    def setup(self) -> None:
        self.specs = cold_specs(self.seed)
        self.fallback = fallback_protocols({spec.protocol for spec in self.specs})

    def teardown(self) -> None:
        pass

    def operation(self, index: int) -> Op:
        from repro import ResultCache, SpanRecorder, run_sweep

        directory = self.work / f"cold-{index}"
        telemetry = SpanRecorder() if _recording(self.tracer) else None
        with _Span(self.tracer) as span:
            report = run_sweep(
                self.specs, jobs=self.jobs, cache=ResultCache(directory),
                telemetry=telemetry,
            )
            with _Span(self.tracer, CHECK):
                ok = self._verified(report.outcomes)
        shutil.rmtree(directory, ignore_errors=True)
        op = Op(
            latency=span.latency, ok=ok, refs=report.simulated_references,
            cells=report.cells, hits=report.cache_hits,
            keys=tuple(cell_key(spec) for spec in self.specs),
        )
        if telemetry is not None:
            op.info = _executor_accounting(report, telemetry)
        return op


def cold_specs(seed: int):
    from repro import protocol_names, sweep_grid

    return sweep_grid(
        protocol_names(), traces=("POPS",), scale=ColdRegistry.scale,
        backend="fast", seeds=(seed,),
    )


def warm_specs(seed: int):
    from repro import protocol_names, sweep_grid

    return sweep_grid(
        protocol_names(), scale=WarmTables.scale, backend="fast", seeds=(seed,),
        characterizations=("pipelined", "non_pipelined"),
    )


def _executor_accounting(report, telemetry) -> Dict[str, float]:
    """Worker attempt time (the sweep's own spans) and result-pipe bytes."""
    ipc = sum(
        len(pickle.dumps((o.result, o.elapsed, o.worker, o.manifest)))
        for o in report.outcomes
        if o.ok and not o.cached and not o.repriced
    )
    return {
        "worker_busy_s": sum(
            span.duration_s for span in telemetry.spans if span.kind == "attempt"
        ),
        "ipc_bytes": ipc,
        "sweep_wall_s": report.wall_time,
        "jobs": report.jobs,
    }


def _distinct_traces(specs) -> int:
    return len({(spec.trace, spec.seed, spec.scale) for spec in specs})


def _hit_share(ops: List[Op]) -> float:
    cells = sum(op.cells for op in ops)
    return sum(op.hits for op in ops) / cells if cells else 0.0


def paper_cycles_pipelined() -> Dict[str, float]:
    """The paper's pipelined-bus cycles/ref, as the repo's benchmarks quote them."""
    source = (ROOT / "benchmarks" / "conftest.py").read_text(encoding="utf-8")
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "PAPER_CYCLES_PIPELINED"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError("PAPER_CYCLES_PIPELINED not found in benchmarks/conftest.py")


class WarmTables(_GridWorkload):
    """Warm 126-cell grid, then Table 4, Table 5 (both buses) and Figure 2."""

    name = "warm_tables"
    scale = 1 / 256
    fill_jobs = 2

    def __init__(self, seed: int, work: Path, verifier: Verifier) -> None:
        super().__init__(seed, work, verifier)
        self.fills = 0
        self.rendered: Optional[str] = None
        self.paper_err_pct: Optional[float] = None

    def setup(self) -> None:
        from repro import ResultCache, run_sweep

        self.specs = warm_specs(self.seed)
        self.fallback = fallback_protocols({spec.protocol for spec in self.specs})
        self.fills += 1
        self.cache_dir = self.work / f"warm-{self.fills}"
        report = run_sweep(
            self.specs, jobs=self.fill_jobs, cache=ResultCache(self.cache_dir)
        )
        if not self._verified(report.outcomes):
            raise RuntimeError("the cache fill returned a wrong or failed cell")

    def teardown(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def operation(self, index: int) -> Op:
        from repro import (
            ComparisonResult,
            ResultCache,
            SpanRecorder,
            figure2,
            nonpipelined_bus,
            pipelined_bus,
            run_sweep,
            table4,
            table5,
        )

        _move_to_cpu(index // 2)  # a traced operation and the next share a CPU
        telemetry = SpanRecorder() if _recording(self.tracer) else None
        with _Span(self.tracer) as span:
            report = run_sweep(
                self.specs, cache=ResultCache(self.cache_dir), telemetry=telemetry
            )
            with _Span(self.tracer, CHECK):
                ok = self._verified(report.outcomes)
                ok &= report.cache_hits == len(self.specs)
                ok &= report.simulations == 0
            results: Dict[str, dict] = {}
            for outcome in report.outcomes:
                spec = outcome.spec
                if spec.characterization == "pipelined":
                    results.setdefault(spec.protocol, {})[spec.trace] = outcome.result
            comparison = ComparisonResult(
                protocols=tuple(results),
                traces=tuple(next(iter(results.values()))),
                results=results,
            )
            pipe = pipelined_bus()
            rendered = "\n\n".join(
                (
                    table4(comparison, CORE).render(),
                    table5(comparison, pipe, CORE).render(),
                    table5(comparison, nonpipelined_bus(), CORE).render(),
                    figure2(comparison, CORE).render(),
                )
            )
            with _Span(self.tracer, CHECK):
                if self.rendered is None:
                    self.rendered = rendered
                ok &= rendered == self.rendered
        if self.paper_err_pct is None:
            self.paper_err_pct = _paper_err_pct(comparison, pipe)
        return Op(
            latency=span.latency, ok=ok, refs=report.total_references,
            cells=report.cells, hits=report.cache_hits,
            keys=tuple(cell_key(spec) for spec in self.specs),
        )


def _move_to_cpu(turn: int) -> None:
    """Move this thread to the ``turn``-th CPU it may use, then free it again.

    One busy thread stays on one vCPU for long stretches, and on a shared
    host one vCPU can run much slower than another for minutes, so a
    single-threaded run's figures would depend on where it landed.  Moving
    it in turn spreads every run over all CPUs; the program is never held
    to one CPU, nor is any process it forks.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass  # a sandbox that forbids it: the thread stays where it is


def _paper_err_pct(comparison, bus) -> float:
    """Mean |relative error| of the core schemes' cycles/ref against the paper."""
    paper = paper_cycles_pipelined()
    errors = [
        abs(comparison.average_cycles(scheme, bus) - paper[scheme]) / paper[scheme]
        for scheme in CORE
    ]
    return 100.0 * sum(errors) / len(errors)


class ServiceMix:
    """Two closed-loop HTTP clients against ``serve --workers 2``."""

    name = "service_mix"
    scale_denominator = 256
    #: share of requests that repeat an earlier one (served by dedupe)
    repeat = 0.3
    #: client poll interval: well under a tenth of the p50 job latency
    poll_s = 0.01
    clients = 2

    def __init__(self, seed: int, work: Path, verifier: Verifier) -> None:
        self.seed, self.work, self.verifier = seed, work, verifier
        self.tracer: Optional[Tracer] = None
        #: url -> server process: the untraced one, and a traced one in traced runs
        self.servers: Dict[str, subprocess.Popen] = {}
        self.starts = 0
        self.requests = service_requests(seed)
        self.local = threading.local()

    def _start(self, span_dir: Optional[Path] = None) -> str:
        """Start one server and wait until it is ready; its URL."""
        from repro.service.client import ServiceClient, ServiceError

        self.starts += 1
        root = self.work / f"service-{self.starts}"
        root.mkdir(parents=True)
        command = [sys.executable, str(Path(__file__).with_name("serve.py")),
                   "--root", str(root)]
        if span_dir is not None:
            command += ["--span-dir", str(span_dir)]
        log_path = root / "serve.log"
        with open(log_path, "wb") as log:
            server = subprocess.Popen(
                command, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT
            )
        try:
            url = _wait_for_url(server, log_path)
        except BaseException:
            _stop(server)
            raise
        self.servers[url] = server
        probe = ServiceClient(url, client="setup", timeout=10.0)
        deadline = time.monotonic() + 60.0
        while True:
            try:
                probe.ready()
                return url
            except (ServiceError, OSError):
                if time.monotonic() > deadline or server.poll() is not None:
                    raise RuntimeError("service never became ready")
                time.sleep(0.01)

    def setup(self) -> None:
        self.url = self._start()

    def start_tracing(self, tracer: Tracer) -> None:
        """Start a traced server beside the untraced one."""
        self.tracer = tracer
        self.traced_url = self._start(tracer.span_dir)

    def traced(self, index: int) -> bool:
        """Whether request ``index`` goes to the traced server.

        Decided by the requested cell, so a repeat reaches the server that
        cached the first answer and dedupe works as in untraced runs.
        """
        return self.requests[index % len(self.requests)][2] % 2 == 0

    def teardown(self) -> None:
        while self.servers:
            _stop(self.servers.popitem()[1])

    def _client(self, url: str):
        from repro.service.client import ServiceClient

        clients = getattr(self.local, "clients", None)
        if clients is None:
            clients = self.local.clients = {}
        if url not in clients:
            name = f"bench-{threading.get_ident()}"
            clients[url] = ServiceClient(url, client=name)
        return clients[url]

    def operation(self, index: int) -> Op:
        from repro.service.client import ServiceError

        client = self._client(
            self.traced_url if _recording(self.tracer) else self.url
        )
        cell = self.requests[index % len(self.requests)]
        spec = service_spec(cell)
        document = {
            "sweep": {
                "protocols": [cell[0]], "traces": [cell[1]],
                "scale": self.scale_denominator, "seeds": [cell[2]],
                "backend": "fast",
            }
        }
        ok, refs, job, payload = False, 0, {}, {}
        with _Span(self.tracer) as span:
            try:
                job = client.submit(document)
                if job["state"] not in ("finished", "failed", "cancelled"):
                    job = client.wait(job["id"], timeout=120.0,
                                      poll_seconds=self.poll_s)
                if job["state"] == "finished":
                    payload = client.result(job["id"])
                    (outcome,) = payload["outcomes"]
                    refs = outcome.get("references", 0)
                    with _Span(self.tracer, CHECK):
                        ok = outcome["ok"] and self.verifier.check(
                            spec, outcome["signature"]
                        )
            except (ServiceError, TimeoutError, OSError, ValueError, KeyError):
                ok = False
        info = {
            key: job.get(key)
            for key in ("submitted_at", "started_at", "finished_at", "deduped")
        }
        info["wall_s"] = payload.get("wall_s")
        return Op(
            latency=span.latency, ok=ok, refs=refs,
            cells=payload.get("cells", 0), hits=payload.get("cache_hits", 0),
            keys=(cell_key(spec),), info=info,
        )

    def properties(self, ops: List[Op]) -> Dict[str, float]:
        done = [op for op in ops if op.ok]
        keys = [op.keys[0] for op in done]
        return {
            "cells_per_trace": len(keys) / max(1, len(set(keys))),
            "fallback_share": 0.0,
            "cache_hit_share": _hit_share(done),
            "dedupe_share": (
                sum(bool(op.info.get("deduped")) for op in done) / len(done)
                if done else 0.0
            ),
        }


def service_requests(seed: int, count: int = 20_000) -> List[Tuple[str, str, int]]:
    """The seeded request stream: new cells, and repeats of earlier ones."""
    rng = random.Random(seed)
    cells: List[Tuple[str, str, int]] = []
    for index in range(count):
        if cells and rng.random() < ServiceMix.repeat:
            cells.append(cells[rng.randrange(len(cells))])
        else:
            cells.append(
                (rng.choice(CORE), rng.choice(("POPS", "THOR", "PERO")),
                 seed * 100_000 + index)
            )
    return cells


def service_spec(cell: Tuple[str, str, int]):
    """The cell a service request asks for, as a local RunSpec."""
    from repro import RunSpec

    protocol, trace, seed = cell
    return RunSpec(
        protocol=protocol, trace=trace, scale=1 / ServiceMix.scale_denominator,
        seed=seed, backend="fast",
    )


def _stop(server: subprocess.Popen) -> None:
    """SIGTERM (the server drains and exits), SIGKILL after 60 s; then reap."""
    server.send_signal(signal.SIGTERM)
    try:
        server.wait(timeout=60)
    except subprocess.TimeoutExpired:
        server.kill()
        server.wait()


def _wait_for_url(server: subprocess.Popen, log_path: Path) -> str:
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        for line in log_path.read_text(errors="replace").splitlines():
            if line.startswith("listening on "):
                return line.split()[-1]
        if server.poll() is not None:
            raise RuntimeError(f"service exited early:\n{log_path.read_text()}")
        time.sleep(0.01)
    raise RuntimeError("service did not report its address within 60 s")


WORKLOADS = {cls.name: cls for cls in (ColdRegistry, WarmTables, ServiceMix)}
