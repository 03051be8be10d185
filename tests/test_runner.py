"""Tests for the parallel sweep runner: specs, cache, fan-out, metrics."""

import multiprocessing
import os
import pickle
import select
import subprocess
import sys
import weakref

import pytest

import repro
from repro.analysis.tables import table4, table5
from repro.core.comparison import run_standard_comparison
from repro.protocols.registry import PAPER_CORE_SCHEMES, protocol_names
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.runner import ResultCache, RunSpec, run_sweep, sweep_grid
from repro.runner.plan import plan_sweep
from repro.trace.stream import SharingModel
from repro.trace.synthetic import SyntheticWorkload

#: Tiny traces so the whole module stays fast.
SCALE = 1.0 / 1024.0


class TestRunSpec:
    def test_normalises_names(self):
        spec = RunSpec(protocol="DIR0B", trace="pops", scale=SCALE)
        assert spec.protocol == "dir0b" and spec.trace == "POPS"

    def test_rejects_unknown_protocol(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            RunSpec(protocol="nonesuch", trace="POPS")

    def test_unknown_protocol_suggests_close_name(self):
        with pytest.raises(ValueError, match="did you mean 'dir0b'"):
            RunSpec(protocol="dir0bb", trace="POPS")

    @pytest.mark.parametrize("spelling", [None, "", "inf", "infinite", "INF"])
    def test_infinite_geometry_spellings_normalise_to_none(self, spelling):
        spec = RunSpec(protocol="dir0b", trace="POPS", scale=SCALE, geometry=spelling)
        assert spec.geometry is None
        assert spec.build_geometry() is None

    def test_geometry_accepts_instance_and_spec_string(self):
        from repro.memory import CacheGeometry

        by_string = RunSpec(
            protocol="dir0b", trace="POPS", scale=SCALE, geometry="64X4"
        )
        by_instance = RunSpec(
            protocol="dir0b",
            trace="POPS",
            scale=SCALE,
            geometry=CacheGeometry(n_sets=64, associativity=4),
        )
        assert by_string.geometry == by_instance.geometry == "64x4"
        assert by_string.build_geometry() == CacheGeometry(64, 4)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError, match="bad cache geometry"):
            RunSpec(protocol="dir0b", trace="POPS", scale=SCALE, geometry="64y4")

    def test_rejects_unknown_trace(self):
        with pytest.raises(ValueError, match="unknown trace"):
            RunSpec(protocol="dir0b", trace="NOPE")

    def test_rejects_bad_numbers(self):
        with pytest.raises(ValueError):
            RunSpec(protocol="dir0b", trace="POPS", scale=0)
        with pytest.raises(ValueError):
            RunSpec(protocol="dir0b", trace="POPS", n_caches=0)
        with pytest.raises(ValueError):
            RunSpec(protocol="dir0b", trace="POPS", block_size=-4)

    def test_run_matches_direct_simulation(self):
        from repro.core import simulate
        from repro.protocols import create_protocol
        from repro.trace import standard_trace

        spec = RunSpec(protocol="dir0b", trace="POPS", scale=SCALE)
        direct = simulate(
            create_protocol("dir0b", 4),
            standard_trace("POPS", scale=SCALE),
            trace_name="POPS",
        )
        via_spec = spec.run()
        assert via_spec.counters.events == direct.counters.events
        assert via_spec.counters.ops.ops == direct.counters.ops.ops

    def test_is_picklable(self):
        spec = RunSpec(protocol="dir0b", trace="POPS", scale=SCALE)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestCacheKey:
    def test_stable_across_instances(self):
        a = RunSpec(protocol="dir0b", trace="POPS", scale=SCALE)
        b = RunSpec(protocol="dir0b", trace="POPS", scale=SCALE)
        assert a.cache_key() == b.cache_key()

    @pytest.mark.parametrize(
        "changed",
        [
            dict(protocol="dragon"),
            dict(trace="THOR"),
            dict(scale=SCALE / 2),
            dict(n_caches=8),
            dict(block_size=32),
            dict(sharing_model=SharingModel.PROCESSOR),
            dict(seed=99),
            dict(geometry="64x4"),
            dict(characterization="non-pipelined"),
        ],
    )
    def test_every_axis_changes_the_key(self, changed):
        base = RunSpec(protocol="dir0b", trace="POPS", scale=SCALE)
        other = RunSpec(
            **{
                "protocol": base.protocol,
                "trace": base.trace,
                "scale": base.scale,
                "n_caches": base.n_caches,
                "block_size": base.block_size,
                "sharing_model": base.sharing_model,
                "seed": base.seed,
                "geometry": base.geometry,
                **changed,
            }
        )
        assert base.cache_key() != other.cache_key()

    def test_package_version_bump_invalidates_the_key(self, monkeypatch):
        """Upgrading repro must retire every previously cached result."""
        import repro.runner.spec as spec_module

        spec = RunSpec(protocol="dir0b", trace="POPS", scale=SCALE)
        before = spec.cache_key()
        monkeypatch.setattr(spec_module, "PACKAGE_VERSION", "999.0.0")
        assert spec.cache_key() != before

    def test_schema_revision_bump_invalidates_the_key(self, monkeypatch):
        import repro.runner.spec as spec_module

        spec = RunSpec(protocol="dir0b", trace="POPS", scale=SCALE)
        before = spec.cache_key()
        monkeypatch.setattr(
            spec_module,
            "CACHE_SCHEMA_VERSION",
            spec_module.CACHE_SCHEMA_VERSION + 1,
        )
        assert spec.cache_key() != before

    def test_version_bump_misses_a_warm_cache(self, tmp_path, monkeypatch):
        import repro.runner.spec as spec_module

        cache = ResultCache(tmp_path)
        spec = RunSpec(protocol="dir0b", trace="POPS", scale=SCALE)
        cache.put(spec.cache_key(), spec.run())
        assert cache.get(spec.cache_key()) is not None
        monkeypatch.setattr(spec_module, "PACKAGE_VERSION", "999.0.0")
        assert cache.get(spec.cache_key()) is None


class TestSweepGrid:
    def test_cross_product_shape_and_order(self):
        specs = sweep_grid(
            ("dir0b", "dragon"), traces=("POPS", "THOR"), scale=SCALE
        )
        assert len(specs) == 4
        assert [(s.protocol, s.trace) for s in specs] == [
            ("dir0b", "POPS"),
            ("dir0b", "THOR"),
            ("dragon", "POPS"),
            ("dragon", "THOR"),
        ]

    def test_block_size_axis(self):
        specs = sweep_grid(
            ("dir0b",), traces=("POPS",), scale=SCALE, block_sizes=(16, 32)
        )
        assert [s.block_size for s in specs] == [16, 32]

    def test_geometry_axis(self):
        specs = sweep_grid(
            ("dir0b",),
            traces=("POPS",),
            scale=SCALE,
            geometries=(None, "8x2", "64x4"),
        )
        assert [s.geometry for s in specs] == [None, "8x2", "64x4"]

    def test_empty_protocols_rejected(self):
        with pytest.raises(ValueError):
            sweep_grid(())


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = RunSpec(protocol="dir0b", trace="POPS", scale=SCALE)
        key = spec.cache_key()
        assert cache.get(key) is None
        result = spec.run()
        cache.put(key, result)
        replayed = cache.get(key)
        assert replayed is not None
        assert replayed.counters.events == result.counters.events
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec(protocol="dir0b", trace="POPS", scale=SCALE)
        key = spec.cache_key()
        cache.path_for(key).write_bytes(b"not a pickle")
        assert cache.get(key) is None
        assert cache.misses == 1

    def test_wrong_type_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path_for("bogus").write_bytes(pickle.dumps({"not": "a result"}))
        assert cache.get("bogus") is None

    def test_peek_counts_nothing_and_removes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec(protocol="dir0b", trace="POPS", scale=SCALE)
        key = spec.cache_key()
        assert cache.peek(key) is None
        cache.put(key, spec.run())
        assert cache.peek(key) is not None
        cache.path_for("broken").write_bytes(b"not a pickle")
        assert cache.peek("broken") is None
        assert cache.path_for("broken").exists()
        assert (cache.hits, cache.misses, cache.corrupt) == (0, 0, 0)

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec(protocol="dir0b", trace="POPS", scale=SCALE)
        cache.put(spec.cache_key(), spec.run())
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_hit_rate(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.hit_rate == 0.0
        spec = RunSpec(protocol="dir0b", trace="POPS", scale=SCALE)
        cache.get(spec.cache_key())
        cache.put(spec.cache_key(), spec.run())
        cache.get(spec.cache_key())
        assert cache.hit_rate == 0.5


class TestRunSweep:
    def test_rejects_empty_grid_and_bad_jobs(self):
        with pytest.raises(ValueError):
            run_sweep([])
        with pytest.raises(ValueError):
            run_sweep(sweep_grid(("dir0b",), scale=SCALE), jobs=0)

    def test_serial_and_parallel_are_bit_identical(self):
        specs = sweep_grid(("dir0b", "dragon"), scale=SCALE)
        serial = run_sweep(specs, jobs=1)
        parallel = run_sweep(specs, jobs=2)
        assert serial.cell_table() == parallel.cell_table()
        assert (
            table5(serial.comparison()).render()
            == table5(parallel.comparison()).render()
        )
        assert (
            table4(serial.comparison()).render()
            == table4(parallel.comparison()).render()
        )
        for left, right in zip(serial.outcomes, parallel.outcomes):
            assert left.result.counters.events == right.result.counters.events
            assert left.result.counters.ops.ops == right.result.counters.ops.ops

    def test_finite_geometry_grid_is_bit_identical_across_jobs(self):
        """Acceptance: sweeps including finite geometries match serially."""
        specs = sweep_grid(
            ("dir0b", "wti"),
            traces=("POPS",),
            scale=SCALE,
            geometries=(None, "8x2"),
        )
        serial = run_sweep(specs, jobs=1)
        parallel = run_sweep(specs, jobs=2)
        assert serial.cell_table() == parallel.cell_table()
        for left, right in zip(serial.outcomes, parallel.outcomes):
            assert left.result.counters.events == right.result.counters.events
            assert left.result.counters.ops.ops == right.result.counters.ops.ops
            assert left.result.counters.evictions == right.result.counters.evictions

    def test_warm_cache_rerun_of_table5_grid_simulates_nothing(self, tmp_path):
        """Acceptance: the full Table 5 grid, rerun warm, hits cache only."""
        specs = sweep_grid(PAPER_CORE_SCHEMES, scale=SCALE)
        cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(specs, cache=cache)
        assert cold.simulations == len(specs)
        assert cold.cache_hits == 0
        warm = run_sweep(specs, cache=cache)
        assert warm.simulations == 0
        assert warm.cache_hits == len(specs)
        assert (
            table5(warm.comparison()).render()
            == table5(cold.comparison()).render()
        )

    def test_progress_hook_fires_once_per_cell(self):
        specs = sweep_grid(("dir0b",), scale=SCALE)
        seen = []
        run_sweep(specs, progress=seen.append)
        assert [outcome.spec for outcome in seen] == specs
        assert all(not outcome.cached for outcome in seen)

    def test_metrics_accounting(self, tmp_path):
        specs = sweep_grid(("dir0b",), traces=("POPS",), scale=SCALE)
        cache = ResultCache(tmp_path)
        cold = run_sweep(specs, cache=cache)
        assert cold.cells == 1
        assert cold.simulated_references == cold.total_references > 0
        assert cold.refs_per_sec > 0
        assert cold.worker_timings()  # one worker, one cell
        warm = run_sweep(specs, cache=cache)
        assert warm.cache_hit_rate == 1.0
        assert warm.simulated_references == 0
        assert warm.worker_timings() == {}
        rendered = warm.render_metrics()
        assert "1 hits" in rendered and "100.0% hit rate" in rendered

    def test_comparison_rejects_collapsed_grid_violations(self):
        specs = sweep_grid(
            ("dir0b",), traces=("POPS",), scale=SCALE, block_sizes=(16, 32)
        )
        report = run_sweep(specs)
        with pytest.raises(ValueError, match="multiple results"):
            report.comparison()

    def test_comparison_rejects_incomplete_cross_product(self):
        specs = [
            RunSpec(protocol="dir0b", trace="POPS", scale=SCALE),
            RunSpec(protocol="dir0b", trace="THOR", scale=SCALE),
            RunSpec(protocol="dragon", trace="POPS", scale=SCALE),
        ]
        report = run_sweep(specs)
        with pytest.raises(ValueError, match="full cross product"):
            report.comparison()


class TestPlanSweep:
    """The planner is the one home of the full-key/base-key rule."""

    def test_hits_come_in_spec_order_and_misses_lead(self):
        keys = ["k0", "k1", "k2", "k3"]
        store = {"k2": "r2", "k0": "r0"}
        plan = plan_sweep(keys, keys, store.get)
        assert plan.hits == ((0, "r0", False), (2, "r2", False))
        assert plan.leaders == (1, 3)
        assert plan.followers == {}

    def test_base_key_serves_a_cold_pricing(self):
        plan = plan_sweep(["a-pipe", "a-nonp"], ["a", "a"], {"a": "r"}.get)
        assert plan.hits == ((0, "r", True), (1, "r", True))
        assert plan.leaders == ()

    def test_full_key_wins_over_base_key(self):
        store = {"a-pipe": "exact", "a": "shared"}
        plan = plan_sweep(["a-pipe", "a-nonp"], ["a", "a"], store.get)
        assert plan.hits == ((0, "exact", False), (1, "shared", True))

    def test_no_lookup_means_every_cell_misses(self):
        plan = plan_sweep(["a", "b"], ["a", "b"])
        assert plan.hits == () and plan.leaders == (0, 1)

    def test_misses_sharing_a_base_key_follow_the_first(self):
        keys = ["a1", "b1", "a2", "b2", "a3"]
        bases = ["A", "B", "A", "B", "A"]
        plan = plan_sweep(keys, bases, {"b1": "r"}.get)
        assert plan.hits == ((1, "r", False),)
        assert plan.leaders == (0, 3)
        assert plan.followers == {0: (2, 4)}

    def test_probed_plans_do_not_group(self):
        keys = ["a1", "a2", "a3"]
        plan = plan_sweep(keys, ["A", "A", "A"], group=False)
        assert plan.leaders == (0, 1, 2)
        assert plan.followers == {}

    def test_characterizations_of_one_configuration_share_a_leader(self):
        specs = sweep_grid(
            ("dir4b",), traces=("POPS",), scale=SCALE,
            characterizations=("pipelined", "non_pipelined"),
        )
        plan = plan_sweep(
            [spec.cache_key() for spec in specs],
            [spec.base_cache_key() for spec in specs],
        )
        assert plan.leaders == (0,)
        assert plan.followers == {0: (1,)}


    def test_leaders_group_by_trace_in_dispatch_order(self):
        keys = ["k0", "k1", "k2", "k3", "k4", "k5"]
        trace_of = {0: "P", 1: "T", 2: "P", 3: None, 4: "T", 5: "P"}
        asked = []

        def identity(index):
            asked.append(index)
            return trace_of[index]

        plan = plan_sweep(keys, keys, {"k5": "r5"}.get, trace_of=identity)
        assert plan.leaders == (0, 1, 2, 3, 4)
        assert plan.groups == (("P", (0, 2)), ("T", (1, 4)), (None, (3,)))
        assert asked == [0, 1, 2, 3, 4]  # leaders only, never the hit

    def test_without_trace_identities_each_leader_is_its_own_group(self):
        plan = plan_sweep(["a", "b"], ["a", "b"])
        assert plan.groups == ((None, (0,)), (None, (1,)))


def shared_grid(backend="fast"):
    """12 cells on 4 traces: three protocols (one on the reference
    fallback) x two traces x two seeds."""
    return sweep_grid(
        ("dir0b", "dragon", "coarse"), traces=("POPS", "THOR"), scale=SCALE,
        seeds=(3, 4), backend=backend,
    )


def signatures(report):
    return [outcome.result.counters.signature() for outcome in report.outcomes]


def trace_counters(report):
    counters = report.registry.as_dict()["counters"]
    return (
        counters.get("sweep.trace_generations", 0),
        counters.get("sweep.trace_shared", 0),
    )


@pytest.mark.requires_numpy
class TestTraceSharing:
    """Fast-backend cells of one workload profile share one trace."""

    @pytest.fixture(scope="class")
    def reference(self):
        return signatures(run_sweep(shared_grid("reference")))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_shared_traces_match_the_reference_engine(self, reference, jobs):
        report = run_sweep(shared_grid(), jobs=jobs)
        assert signatures(report) == reference
        assert trace_counters(report) == (4, 8)

    def test_reference_backend_generates_per_cell(self):
        report = run_sweep(shared_grid("reference")[:3])
        assert trace_counters(report) == (3, 0)

    def test_warm_rerun_generates_nothing(self, tmp_path):
        run_sweep(shared_grid(), cache=ResultCache(tmp_path))
        warm = run_sweep(shared_grid(), cache=ResultCache(tmp_path))
        assert warm.simulations == 0
        assert trace_counters(warm) == (0, 0)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_retry_runs_on_its_group_trace(self, reference, jobs):
        faults = FaultPlan(faults=(FaultSpec(cell="dragon:THOR:*", kind="raise"),))
        report = run_sweep(shared_grid(), jobs=jobs, retry=1, faults=faults)
        assert signatures(report) == reference
        assert report.registry.counter("sweep.retries").value == 2
        assert report.registry.counter("sweep.simulated").value == 12
        assert trace_counters(report) == (4, 8)

    # With a timeout the one-slot sweep runs in a worker process, which
    # must not keep a trace alive in the sweep process either.
    @pytest.mark.parametrize("cell_timeout", [None, 60])
    def test_one_trace_is_live_at_a_time_serially(self, monkeypatch, cell_timeout):
        generated = []
        alive_at_generation = []
        columns = SyntheticWorkload.columns

        def tracked(workload):
            alive_at_generation.append(sum(ref() is not None for ref in generated))
            trace = columns(workload)
            generated.append(weakref.ref(trace.address))
            return trace

        monkeypatch.setattr(SyntheticWorkload, "columns", tracked)
        report = run_sweep(shared_grid(), jobs=1, cell_timeout=cell_timeout)
        assert trace_counters(report) == (4, 8)
        assert alive_at_generation == [0, 0, 0, 0]
        assert all(ref() is None for ref in generated)

    def test_singleton_groups_generate_inside_their_cell(self):
        specs = sweep_grid(("dir0b",), traces=("POPS", "THOR"), scale=SCALE,
                           backend="fast")
        assert trace_counters(run_sweep(specs, jobs=2)) == (2, 0)


def registry_grid():
    """The full protocol registry on one POPS trace: one trace group."""
    return sweep_grid(
        protocol_names(), traces=("POPS",), scale=SCALE, backend="fast",
    )


@pytest.mark.requires_numpy
class TestCellWorkers:
    """A parallel sweep forks one long-lived worker per slot per trace group."""

    def test_one_fork_per_slot_for_a_trace_group(self):
        serial = run_sweep(registry_grid(), jobs=1)
        parallel = run_sweep(registry_grid(), jobs=2)
        assert parallel.registry.counter("sweep.worker_starts").value == 2
        assert len({outcome.worker for outcome in parallel.outcomes}) == 2
        assert signatures(parallel) == signatures(serial)

    def test_each_trace_group_forks_its_own_worker(self):
        specs = sweep_grid(
            ("dir0b", "dragon", "wti"), traces=("POPS", "THOR"), scale=SCALE,
            backend="fast",
        )
        # A timeout puts the one-slot sweep in a worker process.
        report = run_sweep(specs, jobs=1, cell_timeout=60)
        assert report.registry.counter("sweep.worker_starts").value == 2
        assert len({outcome.worker for outcome in report.outcomes}) == 2
        assert signatures(report) == signatures(run_sweep(specs, jobs=1))

    def test_no_worker_outlives_a_finished_sweep(self):
        before = set(multiprocessing.active_children())
        run_sweep(registry_grid(), jobs=2)
        assert set(multiprocessing.active_children()) <= before

    def test_no_worker_outlives_a_sweep_that_raised(self):
        def failing_hook(outcome):
            raise ValueError("progress hook failed")

        before = set(multiprocessing.active_children())
        with pytest.raises(ValueError, match="progress hook failed"):
            run_sweep(registry_grid(), jobs=2, progress=failing_hook)
        assert set(multiprocessing.active_children()) <= before

    def test_no_worker_outlives_a_killed_sweep(self):
        """A sweep process killed without cleanup takes its workers along.

        The sweep process and every worker it forks inherit the write end
        of a pipe; the read end sees end-of-file once all of them are gone.
        """
        script = (
            "import multiprocessing, time\n"
            "from repro import protocol_names, run_sweep, sweep_grid\n"
            "def hold(outcome):\n"
            "    print(len(multiprocessing.active_children()), flush=True)\n"
            "    time.sleep(60)\n"
            "run_sweep(sweep_grid(protocol_names(), traces=('POPS',),\n"
            f"    scale={SCALE!r}, backend='fast'), jobs=2, progress=hold)\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))
        ))
        read_end, write_end = os.pipe()
        sweep = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE,
            pass_fds=(write_end,), env=env,
        )
        os.close(write_end)
        try:
            assert int(sweep.stdout.readline()) == 2  # both workers forked
            sweep.kill()
            sweep.wait()
            ready, _, _ = select.select([read_end], [], [], 10.0)
            assert ready and os.read(read_end, 1) == b"", "a worker outlived it"
        finally:
            sweep.kill()
            sweep.stdout.close()
            os.close(read_end)


class TestStandardComparisonViaRunner:
    def test_runner_path_matches_serial_path(self, tmp_path):
        serial = run_standard_comparison(("dir0b", "dragon"), scale=SCALE)
        parallel = run_standard_comparison(
            ("dir0b", "dragon"),
            scale=SCALE,
            jobs=2,
            cache_dir=str(tmp_path / "cache"),
        )
        assert table5(serial).render() == table5(parallel).render()
        assert table4(serial).render() == table4(parallel).render()
        # and the cached rerun still matches
        cached = run_standard_comparison(
            ("dir0b", "dragon"), scale=SCALE, cache_dir=str(tmp_path / "cache")
        )
        assert table5(cached).render() == table5(serial).render()
