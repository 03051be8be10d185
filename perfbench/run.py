"""The repository benchmark: one workload, one timed window, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_registry --seed 1 --seconds 32 --trace 0

Runs the named workload (``cold_registry``, ``warm_tables`` or
``service_mix``, see ``perfbench/README.md``) from inputs made from
``--seed``, checks every output against the reference engine, prints the
host context, the workload's property shares and every metric by name with
its unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics from an untraced window.
``--trace 1`` wraps every layer's public entry points, alternates traced and
untraced operations through one window, and reports the per-layer metrics
of the traced ones.  The exit code is 0 only when every output check
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from checks import DEFAULT_SEED, Verifier  # noqa: E402
from layers import PER_LAYER, layer_metrics  # noqa: E402
from tracer import Tracer, load_spans  # noqa: E402
from workloads import WORKLOADS, closed_loop  # noqa: E402

#: ``setup_s`` is the median of at least SETUP_REPEATS set-ups, repeated
#: until SETUP_BUDGET_S is spent (at most SETUP_MAX_REPEATS), so cheap
#: set-ups get enough samples for a steady median.
SETUP_REPEATS, SETUP_BUDGET_S, SETUP_MAX_REPEATS = 3, 3.0, 9

#: The window's completions are cut into this many stretches of equal
#: count; throughput and p90 are medians over the stretches (see
#: :func:`stretches`).
STRETCHES = 16

#: Fewest latencies a stretch needs for its own p90.
P90_SAMPLES = 10

#: name -> unit of the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "refs_per_s": "refs/s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}


def git_sha() -> str:
    """HEAD of the checkout; git does not look above it for a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, env=env,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def cpu_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: the host's speed just now."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def host_context(seed: int, before, after) -> str:
    """``before``/``after``: (load average, CPU probe ms) around the run."""
    import numpy

    return (
        f"host: cpus={os.cpu_count()} "
        f"load_before={'/'.join(f'{x:.2f}' for x in before[0])} "
        f"load_after={'/'.join(f'{x:.2f}' for x in after[0])} "
        f"probe_ms_before={before[1]:.2f} probe_ms_after={after[1]:.2f} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"git={git_sha()} seed={seed}"
    )


def fresh_import_s() -> float:
    """Wall time of a new interpreter importing the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro"], cwd=ROOT, env=env, check=True
    )
    return time.perf_counter() - start


def measure_setup(workload) -> float:
    """Median over repeated set-ups of (fresh import + workload set-up)."""
    times = []
    while len(times) < SETUP_REPEATS or (
        sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX_REPEATS
    ):
        if times:
            workload.teardown()
        start = time.perf_counter()
        fresh_import_s()
        workload.setup()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest (reaped) child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    cuts = statistics.quantiles(ordered, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def stretches(ops, size: int = 1):
    """The completed operations in up to :data:`STRETCHES` groups of equal count.

    Each stretch holds at least ``size`` operations (all of them in one
    stretch if there are fewer) and comes with the seconds it spans, from
    the previous stretch's last completion (or the window's start) to its
    own last.  A few seconds of a slow host then move one stretch, not the
    median over all of them.
    """
    count = max(1, min(STRETCHES, len(ops) // size))
    previous = 0.0
    for index in range(count):
        stretch = ops[index * len(ops) // count:(index + 1) * len(ops) // count]
        yield stretch, stretch[-1].end - previous
        previous = stretch[-1].end


def end_to_end(ops, setup_s: float) -> dict:
    """The end-to-end metrics; latencies of failed operations only if all failed.

    Throughput is the median over stretches of the window of what each
    completed per second; p90 is the median of each stretch's own p90.
    """
    done = [op for op in ops if op.ok] or ops
    rates = [
        (sum(op.refs for op in stretch if op.ok) / span,
         sum(op.ok for op in stretch) / span)
        for stretch, span in stretches(ops) if span > 0
    ]
    return {
        "setup_s": setup_s,
        "refs_per_s": statistics.median(refs for refs, _ in rates),
        "ops_per_s": statistics.median(count for _, count in rates),
        "latency_p50_ms": 1e3 * statistics.median(op.latency for op in done),
        "latency_p90_ms": 1e3 * statistics.median(
            percentile([op.latency for op in stretch], 0.90)
            for stretch, _ in stretches(done, P90_SAMPLES)
        ),
        "peak_rss_mb": peak_rss_mb(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    seed = DEFAULT_SEED if args.seed is None else abs(args.seed)
    before = os.getloadavg(), cpu_probe_ms()
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    verifier = Verifier(args.workload, seed)
    workload = WORKLOADS[args.workload](seed, work, verifier)
    try:
        setup_s = measure_setup(workload)
        if args.trace:
            tracer = Tracer(work / "spans")
            tracer.install()
            workload.start_tracing(tracer)
            tracer.active = True
            ops = window(workload, args.seconds, tracer)
            tracer.active = False
            workload.teardown()  # the traced server writes its spans as it exits
            spans = load_spans(tracer.span_dir, tracer.spans)
            metrics = layer_metrics(spans, ops)
            units = PER_LAYER
            properties = workload.properties(ops)
        else:
            ops = window(workload, args.seconds)
            workload.teardown()  # a child's peak RSS counts once it is reaped
            metrics = end_to_end(ops, setup_s)
            units = END_TO_END
            properties = workload.properties(ops)
        problems = verifier.finish()
    finally:
        workload.teardown()
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is still using it
    failed = sum(1 for op in ops if not op.ok or verifier.failed(op.keys))
    after = os.getloadavg(), cpu_probe_ms()

    print(
        f"perfbench {args.workload} seed={seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print(host_context(seed, before, after))
    print("properties: " + " ".join(f"{k}={v:.4g}" for k, v in properties.items()))
    paper_err = getattr(workload, "paper_err_pct", None)
    if paper_err is not None:
        print(f"paper_err_pct = {paper_err:.4f} %")
    print(f"operations: attempted={len(ops)} failed={failed} "
          f"failed_frac={failed / max(1, len(ops)):.4g} "
          f"latency samples={sum(op.ok for op in ops)}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


def window(workload, seconds: float, tracer=None):
    """The timed window: the workload's closed loop for ``seconds``.

    With a ``tracer``, each operation is traced or not as the workload
    decides (:meth:`traced`), so traced and untraced operations share the
    window and the host's speed at the time.
    """
    operation = workload.operation
    if tracer is not None:
        def operation(index: int):
            traced = workload.traced(index)
            tracer.pause(not traced)
            op = workload.operation(index)
            op.traced = traced
            return op

    return closed_loop(operation, seconds, getattr(workload, "clients", 1))


if __name__ == "__main__":
    sys.exit(main())
