"""Per-layer metrics of a traced run, from spans and operation records.

Only the traced operations record spans, and only they feed these metrics;
the untraced operations of the same window are the baseline of
``trace_overhead_frac``.  Times and counts are per traced operation unless
the name says otherwise (``_frac``, ``share``, ``refs_per_s``); the service
times are medians over its jobs.  A layer that does no work on a workload
reads 0: per-layer metrics carry no bound, unlike the end-to-end metrics,
none of which may be 0.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from tracer import CHECK, OP, layer_spans, op_wall, self_times

#: name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "trace.generate_s": "s",
    "trace.generations": "count",
    "trace.share": "ratio",
    "core.kernel_table_s": "s",
    "core.kernel_fallback_s": "s",
    "core.fallback_cells": "count",
    "core.kernel_refs_per_s": "refs/s",
    "protocols.compile_s": "s",
    "runner.cache_get_s": "s",
    "runner.cache_put_s": "s",
    "runner.cache_bytes": "bytes",
    "runner.cache_hits": "count",
    "runner.repriced": "count",
    "runner.self_s": "s",
    "interconnect.price_s": "s",
    "analysis.render_s": "s",
    "resilience.poll_s": "s",
    "resilience.worker_busy_frac": "fraction",
    "resilience.dispatch_s": "s",
    "resilience.ipc_bytes": "bytes",
    "service.queue_wait_ms": "ms",
    "service.spawn_ms": "ms",
    "service.sweep_ms": "ms",
    "service.client_ms": "ms",
    "service.http_requests_per_job": "count",
    "service.dedupe_frac": "fraction",
    "bench.check_s": "s",
    "trace_overhead_frac": "fraction",
    "residual_frac": "fraction",
}


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: List[dict], window_ops) -> Dict[str, float]:
    """Every per-layer metric, from a traced window's spans and ops."""
    ops = [op for op in window_ops if op.traced]
    untraced_ops = [op for op in window_ops if not op.traced]
    n = max(1, len(layer_spans(spans, OP)))
    own = self_times(spans)

    def per_op(layer: str) -> float:
        return own.get(layer, 0.0) / n

    def total(layer: str, attribute: str) -> float:
        return sum(span.get(attribute, 0) for span in layer_spans(spans, layer))

    kernels = ("core.kernel_table", "core.kernel_fallback")
    kernel_s = sum(own.get(layer, 0.0) for layer in kernels)
    kernel_refs = sum(total(layer, "refs") for layer in kernels)
    executed = [op.info for op in ops if "worker_busy_s" in op.info]
    jobs = [op.info for op in ops if op.ok and "submitted_at" in op.info]
    queued = [job for job in jobs if not job.get("deduped") and job.get("wall_s")]
    metrics = {
        "trace.generate_s": per_op("trace.generate"),
        "trace.generations": sum(
            bool(span.get("first")) for span in layer_spans(spans, "trace.generate")
        ) / n,
        "trace.share": _ratio(kernel_refs, total("trace.generate", "refs")),
        "core.kernel_table_s": per_op("core.kernel_table"),
        "core.kernel_fallback_s": per_op("core.kernel_fallback"),
        "core.fallback_cells": len(layer_spans(spans, "core.kernel_fallback")) / n,
        "core.kernel_refs_per_s": _ratio(kernel_refs, kernel_s),
        "protocols.compile_s": per_op("protocols.compile"),
        "runner.cache_get_s": per_op("runner.cache_get"),
        "runner.cache_put_s": per_op("runner.cache_put"),
        "runner.cache_bytes": (
            total("runner.cache_get", "bytes") + total("runner.cache_put", "bytes")
        ) / n,
        "runner.cache_hits": sum(
            bool(span.get("hit")) for span in layer_spans(spans, "runner.cache_get")
        ) / n,
        "runner.repriced": total("runner.sweep", "repriced") / n,
        "runner.self_s": per_op("runner.sweep") + per_op("runner.cell"),
        "interconnect.price_s": per_op("interconnect.price"),
        "analysis.render_s": per_op("analysis.render"),
        "resilience.poll_s": per_op("resilience.poll"),
        "resilience.worker_busy_frac": _ratio(
            sum(info["worker_busy_s"] for info in executed),
            sum(info["jobs"] * info["sweep_wall_s"] for info in executed),
        ),
        "resilience.dispatch_s": sum(
            info["jobs"] * info["sweep_wall_s"] - info["worker_busy_s"]
            for info in executed
        ) / n,
        "resilience.ipc_bytes": sum(info["ipc_bytes"] for info in executed) / n,
        "service.queue_wait_ms": 1e3 * _median(
            [job["started_at"] - job["submitted_at"] for job in queued]
        ),
        "service.spawn_ms": 1e3 * _median(
            [job["finished_at"] - job["started_at"] - job["wall_s"] for job in queued]
        ),
        "service.sweep_ms": 1e3 * _median([job["wall_s"] for job in queued]),
        "service.client_ms": 1e3 * _median(
            [
                op.latency - (op.info["finished_at"] - op.info["submitted_at"])
                for op in ops
                if op.ok and op.info.get("finished_at") is not None
            ]
        ),
        "service.http_requests_per_job": (
            len(layer_spans(spans, "service.http")) / n if jobs else 0.0
        ),
        "service.dedupe_frac": _ratio(
            sum(bool(job.get("deduped")) for job in jobs), len(jobs)
        ),
        "bench.check_s": per_op(CHECK),
        "trace_overhead_frac": _ratio(
            _median([op.latency for op in ops]),
            _median([op.latency for op in untraced_ops]),
        ) - 1.0,
        "residual_frac": _ratio(own.get(OP, 0.0), op_wall(spans)),
    }
    assert list(metrics) == list(PER_LAYER)
    return metrics
