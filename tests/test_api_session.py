"""Session behaviour: config hardening, planning, and bit-equivalence
across engines and worker counts."""

import numpy as np
import pytest

from repro.api import (
    ConfigError,
    GridSpec,
    LinkReplaySpec,
    NetworkRunSpec,
    Session,
)
from repro.api.planner import (
    BATCH_BREAK_EVEN_LINKS,
    BATCH_SIZE,
    plan_link_tasks,
    resolve_network_engine,
)
from repro.experiments.common import SAMPLERATE_WINDOWS_S
from repro.experiments.parallel import ordered_map
from repro.rate import RATE_PROTOCOLS


# ----------------------------------------------------------------------
# Config hardening: one clear ConfigError from the session
# ----------------------------------------------------------------------
class TestConfigErrors:
    def test_malformed_repro_jobs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "four")
        with pytest.raises(ConfigError, match="REPRO_JOBS"):
            Session()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_repro_jobs_env(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_JOBS", value)
        with pytest.raises(ConfigError, match=">= 1"):
            Session()

    def test_valid_repro_jobs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert Session().jobs == 3

    def test_explicit_jobs_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "broken")
        assert Session(jobs=2).jobs == 2

    def test_explicit_bad_jobs(self):
        with pytest.raises(ConfigError, match="jobs"):
            Session(jobs=0)

    def test_store_with_nul_byte(self):
        # (os.environ itself refuses NUL bytes, so this arrives via the
        # argument path -- e.g. a config file read into --store.)
        with pytest.raises(ConfigError, match="NUL"):
            Session(store="bad\0root")

    def test_store_env_pointing_at_file(self, monkeypatch, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("occupied")
        monkeypatch.setenv("REPRO_TRACE_STORE", str(target))
        with pytest.raises(ConfigError, match="non-directory"):
            Session()

    def test_store_off_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_STORE", "off")
        assert not Session().store.enabled

    def test_explicit_store_redirects_process_store(self, monkeypatch,
                                                    tmp_path):
        monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
        session = Session(store=tmp_path / "traces")
        assert session.store.root == tmp_path / "traces"

    def test_unknown_engine(self):
        with pytest.raises(ConfigError, match="engine"):
            Session(engine="warp")

    def test_unknown_spec_type(self):
        with pytest.raises(ConfigError, match="cannot run"):
            Session().map([object()])

    def test_bad_spec_values(self):
        with pytest.raises(ConfigError, match="protocol"):
            LinkReplaySpec(protocol="TurboRate")
        with pytest.raises(ConfigError, match="environment"):
            LinkReplaySpec(protocol="RapidSample", env="moonbase")
        with pytest.raises(ConfigError, match="mode"):
            GridSpec(protocols=("RapidSample",), mode="levitating")
        with pytest.raises(ConfigError, match="scenario"):
            NetworkRunSpec(scenario="ghost_town")


# ----------------------------------------------------------------------
# Planning: the measured break-even table decides auto's batch chunks
# ----------------------------------------------------------------------
def _break_even_cases():
    return [pytest.param(protocol, tcp, entry,
                         id=f"{protocol}-{'tcp' if tcp else 'udp'}")
            for (protocol, tcp), entry in BATCH_BREAK_EVEN_LINKS.items()]


class TestPlanner:
    KEYS = (
        [("RapidSample", False)] * 5
        + [("SampleRate", True)]
        + [("HintAware", True)] * 3
    )

    @pytest.mark.parametrize("protocol, tcp, entry", _break_even_cases())
    def test_auto_batches_from_break_even_width(self, protocol, tcp, entry):
        below = plan_link_tasks([(protocol, tcp)] * (entry - 1), "auto")
        assert below.chunks == ()
        assert set(below.engines) == {"fast"}
        at = plan_link_tasks([(protocol, tcp)] * entry, "auto")
        assert at.chunks == (tuple(range(entry)),)
        assert at.singles == ()
        assert set(at.engines) == {"batch"}

    @pytest.mark.parametrize("tcp", [False, True])
    def test_protocols_without_entry_never_batch(self, tcp):
        for protocol in RATE_PROTOCOLS:
            if (protocol, tcp) in BATCH_BREAK_EVEN_LINKS:
                continue
            plan = plan_link_tasks([(protocol, tcp)] * (2 * BATCH_SIZE),
                                   "auto")
            assert plan.chunks == (), (protocol, tcp)
            assert set(plan.engines) == {"fast"}

    def test_chunks_hold_at_most_batch_size_tasks(self):
        n = 2 * BATCH_SIZE + 2
        keys = [("RapidSample", False)] * n
        forced = plan_link_tasks(keys, "batch")
        assert forced.chunks == (tuple(range(BATCH_SIZE)),
                                 tuple(range(BATCH_SIZE, 2 * BATCH_SIZE)),
                                 (n - 2, n - 1))
        # auto keeps the chunking but sends a chunk narrower than its
        # break-even width (here the 2-task remainder) to fast.
        auto = plan_link_tasks(keys, "auto")
        assert auto.chunks == forced.chunks[:2]
        assert auto.singles == (n - 2, n - 1)
        assert auto.engines[n - 1] == "fast"

    def test_auto_chunks_execute_first_in_group_order(self, monkeypatch):
        monkeypatch.setitem(BATCH_BREAK_EVEN_LINKS, ("RapidSample", True), 8)
        keys = ([("HintAware", True)] * 3
                + [("RapidSample", False)] * 30
                + [("RapidSample", True)] * 8)
        plan = plan_link_tasks(keys, "auto")
        assert plan.chunks == (tuple(range(3, 33)), tuple(range(33, 41)))
        assert plan.singles == (0, 1, 2)

    def test_table_keys_are_batch_adapted_protocols(self):
        for (protocol, tcp), entry in BATCH_BREAK_EVEN_LINKS.items():
            assert protocol in RATE_PROTOCOLS
            assert isinstance(tcp, bool)
            cls = type(RATE_PROTOCOLS[protocol](0))
            # Entries are for classes with their own array adapter;
            # the others never reach the batch engine.
            assert "step_batch" in vars(cls), protocol
            # ... and reachable within one chunk.
            assert 1 <= entry <= BATCH_SIZE

    def test_forced_batch_keeps_singletons_batched(self):
        plan = plan_link_tasks([("RapidSample", True)], "batch")
        assert plan.chunks == ((0,),)
        assert plan.engines == ("batch",)
        # SampleRate and HintAware have no array adapter: forced batch
        # batches the RapidSample group only, so the plan is mixed.
        plan = plan_link_tasks(self.KEYS, "batch")
        assert plan.chunks == (tuple(range(5)),)
        assert plan.singles == tuple(range(5, len(self.KEYS)))
        assert plan.engines == ("batch",) * 5 + ("fast",) * 4

    def test_forced_batch_labels_scalar_protocols_fast(self):
        """Protocols whose class has no array adapter replay on fast even
        under a forced batch, and the plan says so."""
        keys = [(protocol, tcp) for protocol in sorted(RATE_PROTOCOLS)
                for tcp in (False, True)]
        plan = plan_link_tasks(keys, "batch")
        for (protocol, _), engine in zip(keys, plan.engines):
            cls = type(RATE_PROTOCOLS[protocol](0))
            assert engine == ("batch" if "step_batch" in vars(cls)
                              else "fast"), protocol
        assert {keys[i][0] for i in plan.singles} == {
            "SampleRate", "HintAware", "RRAA", "RBAR", "CHARM"}
        assert sorted([i for chunk in plan.chunks for i in chunk]
                      + list(plan.singles)) == list(range(len(keys)))

    def test_forced_batch_task_engines_are_honest(self):
        grid = GridSpec(protocols=("RRAA", "RapidSample"), envs=("office",),
                        mode="static", n_seeds=1, seed0=0, duration_s=2.0,
                        tcp=False)
        run = Session(engine="batch", jobs=1).run(grid)
        engines = dict(zip([link.protocol for link in grid.expand(0)],
                           run.task_engines))
        assert engines == {"RRAA": "fast", "RapidSample": "batch"}
        assert run.engine == "mixed"
        assert run.throughputs == \
            Session(engine="reference", jobs=1).run(grid).throughputs

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_forced_per_task_engines(self, engine):
        plan = plan_link_tasks(self.KEYS, engine)
        assert plan.chunks == ()
        assert plan.singles == tuple(range(len(self.KEYS)))
        assert set(plan.engines) == {engine}

    def test_network_engine_resolution(self):
        from dataclasses import replace

        from repro.network import make_scenario

        dense = make_scenario("dense_cell", seed=0)
        assert resolve_network_engine("batch", dense) == "batch"
        assert resolve_network_engine("fast", dense) == "reference"
        assert resolve_network_engine("reference", dense) == "reference"
        # auto: batch exactly where rounds can commit (one AP, all UDP),
        # however few stations.
        assert resolve_network_engine("auto", dense) == "batch"
        solo = make_scenario("dense_cell", seed=0, n_stations=1)
        assert resolve_network_engine("auto", solo) == "batch"
        one_tcp = dense.with_overrides(stations=(
            replace(dense.stations[0], traffic="tcp"),) + dense.stations[1:])
        assert resolve_network_engine("auto", one_tcp) == "reference"
        # The rest of the net_catalog: several APs, or TCP stations.
        for name in ("corridor_walk", "vehicular_drive_by", "mixed_mobility"):
            assert resolve_network_engine(
                "auto", make_scenario(name, seed=0)) == "reference", name


# ----------------------------------------------------------------------
# Execution: bit-identical to the reference engine, for every engine
# ----------------------------------------------------------------------
GRID = GridSpec(protocols=("RapidSample", "SampleRate", "HintAware"),
                envs=("office",), mode="mixed", n_seeds=2, seed0=0,
                duration_s=4.0, tcp=False)


def _legacy_pool_throughputs(grid: GridSpec) -> tuple:
    """The grid replayed task by task, the way the per-task worker pools
    that predate the session did it: direct ``run_link`` calls on the
    reference engine, best-SampleRate as the max over its windows.  An
    oracle independent of the session's planning and executor."""
    from repro.experiments.common import cached_hints, cached_trace
    from repro.mac import SimConfig, TcpSource, UdpSource, run_link
    from repro.rate import SampleRate

    out = []
    for link in grid.expand(grid.seed0):
        trace = cached_trace(link.env, link.mode, link.seed, link.duration_s)
        hints = cached_hints(link.mode, link.seed, link.duration_s)
        controllers = ([SampleRate(window_s=w) for w in SAMPLERATE_WINDOWS_S]
                       if link.best_samplerate
                       else [RATE_PROTOCOLS[link.protocol](link.seed)])
        out.append(max(
            run_link(trace, controller,
                     traffic=TcpSource() if link.tcp else UdpSource(),
                     hint_series=hints,
                     config=SimConfig(seed=link.seed, engine="reference"))
            .throughput_mbps
            for controller in controllers))
    return tuple(out)


class TestSessionEquivalence:
    @pytest.fixture(scope="class")
    def reference(self):
        return Session(engine="reference", jobs=1).run(GRID).throughputs

    @pytest.fixture(scope="class")
    def legacy(self):
        return _legacy_pool_throughputs(GRID)

    @pytest.mark.parametrize("engine", ["auto", "fast", "reference", "batch"])
    def test_grid_matches_legacy_pool_any_engine(self, engine, reference,
                                                 legacy):
        run = Session(engine=engine, jobs=1).run(GRID)
        assert run.throughputs == reference == legacy

    def test_grid_matches_batch_pool(self, reference):
        # Batch chunks fanned over worker processes.
        run = Session(engine="batch", jobs=2).run(GRID)
        assert run.throughputs == reference
        # Only the RapidSample tasks have an array adapter.
        assert run.engine == "mixed"

    def test_jobs_do_not_change_results(self, reference):
        run = Session(jobs=2).run(GRID)
        assert run.throughputs == reference
        assert run.jobs == 2

    def test_run_result_provenance(self):
        run = Session(jobs=1).run(GRID)
        assert run.spec is GRID
        assert run.seeds == (0, 0, 0, 1, 1, 1)
        assert len(run.results) == GRID.n_tasks
        assert len(run.task_engines) == GRID.n_tasks
        assert run.elapsed_s > 0
        # The RapidSample group (2 tasks) is below its break-even
        # width; the other protocols never batch under auto.
        assert run.engine == "fast"

    def test_single_link_full_result(self):
        spec = LinkReplaySpec(protocol="RapidSample", env="office",
                              mode="static", seed=5, duration_s=4.0,
                              tcp=False)
        result = Session(jobs=1).run(spec).result
        reference = Session(engine="reference", jobs=1).run(spec).result
        assert result.throughput_mbps == reference.throughput_mbps
        assert np.array_equal(result.delivery_times_s,
                              reference.delivery_times_s)
        assert result.delivered > 0
        assert result.packets_offered == result.delivered + result.dropped

    def test_network_spec_matches_direct_run(self):
        from repro.network import make_scenario, run_scenario

        spec = NetworkRunSpec(scenario="mixed_mobility", seed=7,
                              duration_s=4.0)
        summary = Session(jobs=1).run(spec).result
        direct = run_scenario(make_scenario("mixed_mobility", seed=7,
                                            duration_s=4.0))
        assert summary.aggregate_mbps == direct.aggregate_throughput_mbps
        assert summary.handoffs == direct.handoff_count
        assert summary.stations_mbps == {
            name: res.throughput_mbps
            for name, res in direct.stations.items()
        }

    def test_segment_specs_prewarm_shared_store(self, monkeypatch, tmp_path):
        # A parallel grid over one hand-built script must fill the
        # store once per artefact, not once per worker replay.
        from repro.sensors import pacing_script

        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "store"))
        session = Session(jobs=2)
        specs = [
            LinkReplaySpec.from_script(protocol, pacing_script(3.0),
                                       seed=4, tcp=False)
            for protocol in ("RapidSample", "HintAware")
        ]
        runs = session.map(specs)
        assert all(run.result.duration_s == 3.0 for run in runs)
        stored = list((tmp_path / "store").rglob("*.npz"))
        assert len(stored) == 2    # one trace + one hint series, shared

    def test_prewarm_is_one_pass_over_every_artefact_kind(self, monkeypatch,
                                                          tmp_path):
        # Mode-scripted and hand-built-script links warm through the
        # one tagged dispatcher, in a single scatter.
        from repro.experiments.parallel import warm_cache_task
        from repro.sensors import pacing_script

        session = Session(jobs=2, store=tmp_path / "store")
        specs = [
            LinkReplaySpec.from_script("RapidSample", pacing_script(2.0),
                                       seed=4, tcp=False),
            LinkReplaySpec(protocol="RapidSample", env="office",
                           mode="static", seed=4, duration_s=2.0, tcp=False),
        ]
        scatter, calls = session.scatter, []

        def spy(fn, items):
            calls.append((fn, list(items)))
            return scatter(fn, items)

        monkeypatch.setattr(session, "scatter", spy)
        session.map(specs)
        warm = [items for fn, items in calls if fn is warm_cache_task]
        assert len(warm) == 1
        assert sorted(task[0] for task in warm[0]) == [
            "hints", "script_hints", "script_trace", "trace"]
        assert len(list((tmp_path / "store").rglob("*.npz"))) == 4
        with pytest.raises(ValueError, match="unknown warm task kind"):
            warm_cache_task(("bogus",))

    def test_scatter_matches_pool_map(self):
        items = list(range(20))
        assert Session(jobs=1).scatter(_square, items) \
            == ordered_map(_square, items, jobs=2) \
            == Session(jobs=2).scatter(_square, items) \
            == [x * x for x in items]


def _square(x):
    return x * x


# ----------------------------------------------------------------------
# Session-owned stores: no sharing through the process or environment
# ----------------------------------------------------------------------
def _store_files(root) -> set:
    return {path.relative_to(root) for path in root.rglob("*.npz")}


def _bits(run) -> list:
    """Every field of every task result, arrays as raw bytes."""
    return [tuple(v.tobytes() if isinstance(v, np.ndarray) else v
                  for v in vars(result).values()) for result in run.results]


def _small_grid(seed0: int) -> GridSpec:
    return GridSpec(protocols=("RapidSample", "HintAware"), envs=("office",),
                    mode="mixed", n_seeds=2, seed0=seed0, duration_s=2.0)


class TestSessionOwnedStore:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_interleaved_sessions_keep_their_own_stores(self, tmp_path, jobs):
        grids = {"a": _small_grid(0), "b": _small_grid(10)}
        roots = {name: tmp_path / name for name in grids}
        sessions = {name: Session(jobs=jobs, store=roots[name])
                    for name in grids}
        # Each session runs after the other was built, and again after
        # the other ran.
        runs = {name: sessions[name].run(grids[name]) for name in grids}
        again = sessions["a"].run(grids["a"])

        for name, grid in grids.items():
            solo = tmp_path / f"solo-{name}"
            Session(jobs=1, store=solo).run(grid)
            assert _store_files(roots[name]) == _store_files(solo) != set()
            assert sessions[name].store.root == roots[name]
            off = Session(jobs=1, store="off").run(grid)
            assert _bits(runs[name]) == _bits(off)
        assert _bits(again) == _bits(runs["a"])


class TestSeedLineage:
    def test_derive_is_stable_and_keyed(self):
        session = Session(seed=1)
        assert session.derive("a", 2) == session.derive("a", 2)
        assert session.derive("a", 2) != session.derive("a", 3)
        assert session.derive("a", 2) != Session(seed=2).derive("a", 2)

    def test_unseeded_specs_get_derived_seeds(self):
        session = Session(jobs=1, seed=9)
        spec = LinkReplaySpec(protocol="RapidSample", env="office",
                              mode="static", duration_s=4.0, tcp=False)
        first = session.run(spec)
        second = session.run(spec)
        assert first.seeds == second.seeds          # lineage, not position
        assert first.seeds[0] != 9                  # derived, not the base
        assert np.array_equal(first.result.delivery_times_s,
                              second.result.delivery_times_s)
