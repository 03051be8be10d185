"""Which engine counted a cell: the ``simulate.engine`` counters and manifests.

The fast backend runs a protocol on its compiled table kernel when the
protocol compiles, and on the reference loop otherwise.  That choice shows
in the sweep registry (``simulate.engine.table`` /
``simulate.engine.reference``, one per simulated cell) and in every
cell's manifest (``engine``), in memory and on disk.
"""

import pytest

from repro.core.simulator import simulate
from repro.protocols.registry import create_protocol
from repro.runner import ResultCache, RunSpec, run_sweep, sweep_grid

SCALE = 1 / 512


def engine_counts(report):
    counters = report.registry.as_dict()["counters"]
    return {
        engine: counters.get(f"simulate.engine.{engine}", 0)
        for engine in ("table", "reference")
    }


@pytest.mark.requires_numpy
@pytest.mark.parametrize("jobs", [1, 2])
def test_table_and_fallback_cells_are_told_apart(tmp_path, jobs):
    specs = sweep_grid(("dir0b", "coarse"), traces=("POPS",), scale=SCALE,
                       backend="fast")
    cache = ResultCache(tmp_path)
    report = run_sweep(specs, jobs=jobs, cache=cache)
    assert engine_counts(report) == {"table": 1, "reference": 1}
    engines = {"dir0b": "table", "coarse": "reference"}
    for outcome in report.outcomes:
        expected = engines[outcome.spec.protocol]
        assert outcome.result.engine == expected
        assert outcome.manifest.engine == expected
        stored = cache.get_manifest(outcome.spec.cache_key())
        assert stored.to_dict()["engine"] == expected


def test_reference_backend_reports_the_reference_engine():
    report = run_sweep(sweep_grid(("dir0b",), traces=("POPS",), scale=SCALE))
    assert engine_counts(report) == {"table": 0, "reference": 1}
    assert report.outcomes[0].manifest.engine == "reference"


@pytest.mark.requires_numpy
def test_cache_hits_and_repricing_count_no_engine(tmp_path):
    specs = sweep_grid(("dir0b",), traces=("POPS",), scale=SCALE, backend="fast",
                       characterizations=("pipelined", "non_pipelined"))
    cold = run_sweep(specs, cache=ResultCache(tmp_path))
    assert engine_counts(cold) == {"table": 1, "reference": 0}
    assert [o.manifest.engine for o in cold.outcomes] == ["table", "table"]
    warm = run_sweep(specs, cache=ResultCache(tmp_path))
    assert engine_counts(warm) == {"table": 0, "reference": 0}


def test_simulate_reports_its_engine():
    spec = RunSpec(protocol="dir0b", trace="POPS", scale=SCALE)
    records = list(spec.build_trace())
    reference = simulate(create_protocol("dir0b", 4), records)
    fast = simulate(create_protocol("dir0b", 4), records, backend="fast")
    assert (reference.engine, fast.engine) == ("reference", "table")
    assert fast.counters.signature() == reference.counters.signature()
