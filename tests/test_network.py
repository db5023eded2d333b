"""Network simulator: link equivalence, CSMA sharing, hint-aware handoff.

The load-bearing test is the golden invariant: a 1-station/1-AP
scenario must be **bit-identical** to the equivalent single-link
`LinkSimulator` run, so the network layer is a strict generalisation of
the link simulator rather than a fork of it.
"""

import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from repro.api import NetworkSummary, Session
from repro.api.executor import warm_network_task
from repro.experiments.common import RATE_PROTOCOLS, cached_hints, cached_trace
from repro.experiments.fig5_net import run_grid
from repro.mac import LinkProcess, SimConfig, TcpSource, UdpSource, run_link
from repro.network import (
    ApSpec,
    NetworkScenario,
    StationSpec,
    link_equivalent_result,
    make_scenario,
    run_scenario,
    scenario_names,
    station_hints,
    station_trace,
)

GOLDEN_SEED = 7
DURATION_S = 6.0


def assert_results_identical(a, b):
    assert a.duration_s == b.duration_s
    assert a.delivered == b.delivered
    assert a.dropped == b.dropped
    assert a.attempts == b.attempts
    assert np.array_equal(a.rate_attempts, b.rate_attempts)
    assert np.array_equal(a.rate_successes, b.rate_successes)
    assert np.array_equal(a.delivery_times_s, b.delivery_times_s)


def solo_scenario(protocol="RapidSample", mobility="pace", traffic="udp",
                  hint_mode="series", duration_s=DURATION_S, seed=GOLDEN_SEED):
    return NetworkScenario(
        name="solo",
        stations=(StationSpec(name="s0", mobility=mobility, traffic=traffic,
                              protocol=protocol),),
        aps=(ApSpec(bssid="ap0", x_m=0.0, y_m=10.0),),
        environment="office",
        duration_s=duration_s,
        seed=seed,
        hint_mode=hint_mode,
    )


class TestLinkProcess:
    """The resumable stepper equals both LinkSimulator engines."""

    @pytest.mark.parametrize("protocol", ["RapidSample", "CHARM", "HintAware"])
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_matches_engines(self, protocol, engine):
        trace = cached_trace("office", "mixed", GOLDEN_SEED, DURATION_S)
        hints = cached_hints("mixed", GOLDEN_SEED, DURATION_S)
        cfg = SimConfig(seed=GOLDEN_SEED, engine=engine)
        ref = run_link(trace, RATE_PROTOCOLS[protocol](GOLDEN_SEED),
                       TcpSource(), hints, cfg)
        proc = LinkProcess(trace, RATE_PROTOCOLS[protocol](GOLDEN_SEED),
                           TcpSource(), hints, cfg)
        assert_results_identical(ref, proc.run_to_completion())

    @settings(max_examples=25, deadline=None, print_blob=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(protocol=hst.sampled_from(sorted(RATE_PROTOCOLS)),
           mode=hst.sampled_from(["static", "mobile", "mixed"]),
           tcp=hst.booleans(),
           with_hints=hst.booleans(),
           seed=hst.sampled_from([1, 7, 19]),
           # 0, a few steps, mid-replay and past the end of the replay.
           k=hst.one_of(hst.just(0), hst.integers(1, 50),
                        hst.integers(50, 8000), hst.just(10**9)))
    def test_resume_after_steps_matches_engines(self, protocol, mode, tcp,
                                                with_hints, seed, k):
        """``run_to_completion`` picks the loop up from whatever state
        ``step`` left -- mid-service, mid-retry, hint cursor and RNG
        blocks partly consumed -- and finishes the same replay."""
        trace = cached_trace("office", mode, seed, 2.0)
        hints = cached_hints(mode, seed, 2.0) if with_hints else None

        class HintLog:
            """The drawn controller, recording every hint delivery."""

            def __init__(self):
                inner = RATE_PROTOCOLS[protocol](seed)
                self.choose_rate = inner.choose_rate
                self.on_result = inner.on_result
                self.observe_snr = inner.observe_snr
                self._on_hint = inner.on_hint
                self.hints = []

            def on_hint(self, hint):
                self.hints.append((hint.time_s, hint.moving))
                self._on_hint(hint)

        def make(engine):
            return (HintLog(), TcpSource() if tcp else UdpSource(), hints,
                    SimConfig(seed=seed, engine=engine))

        args = make("fast")
        proc = LinkProcess(trace, *args)
        for _ in range(k):
            if proc.done:
                break
            proc.step()
        resumed = proc.run_to_completion()
        assert proc.done
        assert proc.step() is None
        for engine in ("fast", "reference"):
            ref_args = make(engine)
            assert_results_identical(run_link(trace, *ref_args), resumed)
            assert ref_args[0].hints == args[0].hints

    def test_stepper_reports_done(self):
        trace = cached_trace("office", "static", GOLDEN_SEED, 2.0)
        proc = LinkProcess(trace, RATE_PROTOCOLS["RapidSample"](GOLDEN_SEED),
                           UdpSource(), None, SimConfig(seed=GOLDEN_SEED))
        assert not proc.done
        assert proc.next_ready_us() == 0.0
        proc.run_to_completion()
        assert proc.done
        assert proc.next_ready_us() == float("inf")
        assert proc.step() is None

    def test_defer_advances_clock(self):
        trace = cached_trace("office", "static", GOLDEN_SEED, 2.0)
        proc = LinkProcess(trace, RATE_PROTOCOLS["RapidSample"](GOLDEN_SEED),
                           UdpSource(), None, SimConfig(seed=GOLDEN_SEED))
        proc.defer_until(5_000.0)
        assert proc.next_ready_us() == 5_000.0
        span = proc.step()
        assert span is not None and span[0] == 5_000
        # Fractional busy-until rounds up, never into the busy tail.
        proc.defer_until(proc.now_us + 10.5)
        assert proc.now_us == span[1] + 11

    @pytest.mark.parametrize("traffic_cls", [UdpSource, TcpSource])
    def test_defer_and_ready_equals_defer_plus_ready(self, traffic_cls):
        """The fused carrier-sense call is a verbatim copy of
        ``defer_until`` + ``next_ready_us``; this pins the two code
        paths to each other across stepped/deferred/end-of-trace states
        so an edit to one cannot silently drift the other."""
        import random

        trace = cached_trace("office", "mixed", GOLDEN_SEED, 2.0)

        def make():
            return LinkProcess(trace, RATE_PROTOCOLS["RapidSample"](
                GOLDEN_SEED), traffic_cls(), None,
                SimConfig(seed=GOLDEN_SEED))

        fused, split = make(), make()
        rng = random.Random(42)
        while not fused.done:
            for _ in range(rng.randrange(0, 4)):
                fused.step()
                split.step()
            # Defer by anything from a no-op to past the trace end,
            # fractional ends included (the ceil path).
            target = fused.now_us + rng.choice(
                [-5.0, 0.0, 3.5, 250.0, 10_000.0, 2.5e6])
            a = fused.defer_and_ready(target)
            split.defer_until(target)
            b = split.next_ready_us()
            assert a == b
            assert fused.now_us == split.now_us
            assert fused.done == split.done
        assert split.done
        assert_results_identical(fused.result(), split.result())

    def test_resync_redelivers_the_current_hint(self):
        """After a controller reset (fresh association) the stepper must
        re-fire on_hint with the current value, not wait for an edge."""

        class SpyController:
            def __init__(self):
                self.hints = []

            def choose_rate(self, now_ms):
                return 0

            def on_result(self, rate_index, success, now_ms):
                pass

            def observe_snr(self, snr_db, now_ms):
                pass

            def on_hint(self, hint):
                self.hints.append(hint.moving)

        trace = cached_trace("office", "mobile", GOLDEN_SEED, 2.0)
        hints = cached_hints("mobile", GOLDEN_SEED, 2.0)
        spy = SpyController()
        proc = LinkProcess(trace, spy, UdpSource(), hints,
                           SimConfig(seed=GOLDEN_SEED))
        while not spy.hints and not proc.done:
            proc.step()
        n_before = len(spy.hints)
        assert n_before > 0
        proc.resync_hints()
        proc.step()
        assert len(spy.hints) == n_before + 1
        assert spy.hints[-1] == spy.hints[-2]  # same value, re-delivered

    def test_edgeless_hint_series_still_delivers_initial_false(self):
        """An empty hint series fires on_hint(False) once, exactly like
        both LinkSimulator engines (bit-identity includes hint calls)."""
        from repro.core.architecture import HintSeries

        class SpyController:
            def __init__(self):
                self.hints = []

            def choose_rate(self, now_ms):
                return 0

            def on_result(self, rate_index, success, now_ms):
                pass

            def observe_snr(self, snr_db, now_ms):
                pass

            def on_hint(self, hint):
                self.hints.append(hint.moving)

        trace = cached_trace("office", "static", GOLDEN_SEED, 2.0)
        empty = HintSeries(times_s=np.zeros(0), values=np.zeros(0, bool))
        ref_spy, proc_spy = SpyController(), SpyController()
        run_link(trace, ref_spy, UdpSource(), empty,
                 SimConfig(seed=GOLDEN_SEED))
        LinkProcess(trace, proc_spy, UdpSource(), empty,
                    SimConfig(seed=GOLDEN_SEED)).run_to_completion()
        assert ref_spy.hints == proc_spy.hints == [False]

    def test_defer_past_trace_end_expires_in_flight_packet(self):
        """A serving station deferred beyond the trace end drops its
        in-flight packet instead of transmitting after the scenario."""
        from repro.channel import ChannelTrace
        from repro.channel.rates import N_RATES
        from repro.rate import FixedRate

        n_slots = 100  # 0.5 s trace where every attempt fails
        trace = ChannelTrace(
            fates=np.zeros((n_slots, N_RATES), dtype=bool),
            snr_db=np.zeros(n_slots),
            moving=np.zeros(n_slots, dtype=bool),
        )
        proc = LinkProcess(trace, FixedRate(0), UdpSource(), None,
                           SimConfig(seed=GOLDEN_SEED))
        span = proc.step()            # first attempt fails, still serving
        assert span is not None and span[2] is False
        attempts_before = proc.result().attempts
        proc.defer_until(trace.duration_s * 1e6 + 1_000)
        assert proc.next_ready_us() == float("inf")
        assert proc.done
        result = proc.result()
        assert result.attempts == attempts_before  # no post-end exchange
        assert result.dropped == 1                 # in-flight expired


class TestLinkEquivalence:
    """The golden invariant: 1 station / 1 AP == LinkSimulator, bit for bit."""

    @pytest.mark.parametrize("protocol", sorted(RATE_PROTOCOLS))
    def test_matches_link_simulator(self, protocol):
        scenario = solo_scenario(protocol=protocol)
        net = run_scenario(scenario)
        assert_results_identical(
            link_equivalent_result(scenario), net.station("s0"))

    @pytest.mark.parametrize("traffic", ["udp", "tcp"])
    @pytest.mark.parametrize("mobility", ["static", "pace", "drive_by"])
    def test_matches_across_traffic_and_mobility(self, traffic, mobility):
        scenario = solo_scenario(protocol="HintAware", mobility=mobility,
                                 traffic=traffic)
        net = run_scenario(scenario)
        assert_results_identical(
            link_equivalent_result(scenario), net.station("s0"))

    def test_matches_with_hints_off(self):
        scenario = solo_scenario(protocol="SampleRate", hint_mode="off")
        net = run_scenario(scenario)
        assert_results_identical(
            link_equivalent_result(scenario), net.station("s0"))

    def test_equivalence_helper_rejects_multi_station(self):
        scenario = make_scenario("dense_cell", duration_s=2.0, n_stations=2)
        with pytest.raises(ValueError):
            link_equivalent_result(scenario)

    def test_equivalence_helper_rejects_protocol_mode(self):
        with pytest.raises(ValueError):
            link_equivalent_result(solo_scenario(hint_mode="protocol"))


class TestCsmaSharing:
    def _cell(self, n, duration_s=4.0):
        stations = tuple(
            StationSpec(name=f"s{i}", mobility="static",
                        start_xy=(float(i), 0.0))
            for i in range(n)
        )
        return NetworkScenario(
            name="cell", stations=stations,
            aps=(ApSpec(bssid="ap0", x_m=0.0, y_m=10.0),),
            environment="office", duration_s=duration_s, seed=GOLDEN_SEED,
        )

    def test_two_stations_split_a_saturated_medium(self):
        solo = run_scenario(self._cell(1)).aggregate_throughput_mbps
        pair = run_scenario(self._cell(2))
        each = [r.throughput_mbps for r in pair.stations.values()]
        # Each station gets a real share, neither gets the whole medium,
        # and the aggregate stays in the solo link's ballpark (the
        # medium is shared, not duplicated).
        assert all(0 < t < solo for t in each)
        assert 0.6 * solo < sum(each) < 1.15 * solo
        # Round-robin contention: roughly fair airtime.
        air = list(pair.airtime_us.values())
        assert min(air) > 0.35 * max(air)

    def test_airtime_bounded_by_duration(self):
        result = run_scenario(self._cell(3))
        total_s = sum(result.airtime_us.values()) / 1e6
        assert total_s <= result.scenario.duration_s * 1.01

    def test_stations_in_different_cells_do_not_contend(self):
        solo = run_scenario(self._cell(1)).aggregate_throughput_mbps
        two_cells = NetworkScenario(
            name="cells",
            stations=(
                StationSpec(name="s0", mobility="static", start_xy=(0.0, 0.0)),
                StationSpec(name="s1", mobility="static",
                            start_xy=(200.0, 0.0)),
            ),
            aps=(ApSpec(bssid="a", x_m=0.0, y_m=10.0),
                 ApSpec(bssid="b", x_m=200.0, y_m=10.0)),
            environment="office", duration_s=4.0, seed=GOLDEN_SEED,
        )
        result = run_scenario(two_cells)
        # Separate cells, separate airtime: both run at solo-like rates.
        for r in result.stations.values():
            assert r.throughput_mbps > 0.6 * solo


class TestAssociationAndHints:
    def test_corridor_walk_hands_off(self):
        result = run_scenario(make_scenario("corridor_walk", seed=1))
        assert result.handoff_count >= 1
        assert result.scorer.n_trained > 0
        # Every handoff closed an association with a sane lifetime, and
        # each walker's final association is recorded as censored.
        assert len(result.association_events) == result.handoff_count
        assert len(result.censored_events) == result.scenario.n_stations
        for _, event in (result.association_events
                         + result.censored_events):
            assert 0.0 <= event.lifetime_s <= result.scenario.duration_s

    def test_cold_lifetime_policy_matches_strongest_baseline(self):
        """Untrained scorer: the lifetime policy must be *exactly* the
        strongest-signal baseline (same physical-RSSI decisions)."""
        def handoffs(policy):
            result = run_scenario(make_scenario(
                "corridor_walk", seed=1, association_policy=policy,
                pretrain_walks=0))
            return result.handoffs

        assert handoffs("lifetime") == handoffs("strongest")

    def test_lifetime_policy_hands_off_before_strongest(self):
        """The learned policy switches to the ahead-of-travel AP while
        the baseline waits for it to become the loudest."""
        def first_handoff(policy):
            result = run_scenario(make_scenario(
                "corridor_walk", seed=1, association_policy=policy))
            times = [h.time_s for h in result.handoffs
                     if h.from_bssid is not None]
            assert times, f"no handoffs under {policy}"
            return min(times)

        assert first_handoff("lifetime") < first_handoff("strongest")

    def test_handoff_does_not_orphan_the_movement_hint(self):
        """Regression: the handoff controller reset wiped HintAware's
        movement state; without a hint resync the station ran its
        static-tuned protocol for the rest of the walk."""
        scenario = NetworkScenario(
            name="two-cells",
            stations=(StationSpec(name="w0", mobility="walk", speed_mps=2.0,
                                  heading_deg=90.0, start_xy=(0.0, 0.0),
                                  protocol="HintAware"),),
            aps=(ApSpec(bssid="a", x_m=0.0, y_m=8.0),
                 ApSpec(bssid="b", x_m=80.0, y_m=8.0)),
            environment="office", duration_s=40.0, seed=GOLDEN_SEED,
        )
        result = run_scenario(scenario)
        assert result.handoff_count >= 1
        controller = result.controllers["w0"]
        # The walker moves through the whole run; post-handoff the
        # re-synced hint must have restored the mobile-tuned protocol.
        assert controller.moving

    def test_trailing_scans_observe_late_handoffs(self, monkeypatch):
        """Regression: scans scheduled after the last exchange used to
        be skipped entirely, so a station that finished its replay
        early (stalled TCP) and then walked into a new cell never
        handed off -- the late association was never observed and the
        whole tail was misattributed to one censored lifetime."""
        from repro.channel import ChannelTrace
        from repro.channel.rates import N_RATES

        def all_fail_trace(scenario, index):
            n_slots = int(round(scenario.duration_s / 0.005))
            return ChannelTrace(
                fates=np.zeros((n_slots, N_RATES), dtype=bool),
                snr_db=np.zeros(n_slots),
                moving=np.ones(n_slots, dtype=bool),
            )

        monkeypatch.setattr("repro.network.simulator.station_trace",
                            all_fail_trace)
        scenario = NetworkScenario(
            name="late-handoff",
            stations=(StationSpec(name="w0", mobility="walk", speed_mps=1.0,
                                  heading_deg=90.0, start_xy=(0.0, 0.0),
                                  traffic="tcp", protocol="RapidSample"),),
            aps=(ApSpec(bssid="a", x_m=0.0, y_m=8.0),
                 ApSpec(bssid="b", x_m=12.0, y_m=8.0)),
            environment="office", duration_s=8.0, seed=GOLDEN_SEED,
            hint_mode="off",
        )
        result = run_scenario(scenario)
        station = result.station("w0")
        # Nothing ever delivers, so TCP's growing RTO stalls the source
        # past the scenario end well before the walk reaches cell b.
        assert station.delivered == 0
        assert result.handoff_count == 1, (
            "the post-replay walk into cell b must still hand off via "
            "the trailing scans"
        )
        handoff = result.handoffs[-1]
        assert (handoff.from_bssid, handoff.to_bssid) == ("a", "b")
        # The handoff closed (and trained on) the first association;
        # only the final one is censored.
        assert len(result.association_events) == 1
        assert len(result.censored_events) == 1

    def test_protocol_mode_delivers_hints_over_the_air(self):
        scenario = solo_scenario(protocol="HintAware", mobility="pace",
                                 hint_mode="protocol")
        result = run_scenario(scenario)
        assert result.hints_delivered["s0"] > 0

    def test_series_mode_delivers_no_protocol_hints(self):
        result = run_scenario(solo_scenario())
        assert result.hints_delivered["s0"] == 0


class TestScenarioConfig:
    def test_catalog_builds_and_runs(self):
        for name in scenario_names():
            result = run_scenario(make_scenario(name, seed=0, duration_s=2.0))
            assert set(result.stations) == {
                s.name for s in result.scenario.stations}

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            make_scenario("warp_field")

    def test_validation(self):
        ap = ApSpec(bssid="ap0", x_m=0.0, y_m=0.0)
        sta = StationSpec(name="s0")
        with pytest.raises(ValueError):
            StationSpec(name="x", mobility="teleport")
        with pytest.raises(ValueError):
            StationSpec(name="x", protocol="Minstrel")
        with pytest.raises(ValueError):
            NetworkScenario(name="x", stations=(), aps=(ap,))
        with pytest.raises(ValueError):
            NetworkScenario(name="x", stations=(sta,), aps=())
        with pytest.raises(ValueError):
            NetworkScenario(name="x", stations=(sta, sta), aps=(ap,))
        with pytest.raises(ValueError):
            NetworkScenario(name="x", stations=(sta,), aps=(ap,),
                            hint_mode="telepathy")
        with pytest.raises(ValueError):
            NetworkScenario(name="x", stations=(sta,), aps=(ap,),
                            environment="moon")
        with pytest.raises(ValueError):
            # Lifetime scoring needs hints in the probes.
            NetworkScenario(name="x", stations=(sta,), aps=(ap,),
                            association_policy="lifetime", hint_mode="off")
        with pytest.raises(ValueError):
            NetworkScenario(name="x", stations=(sta,), aps=(ap,),
                            hint_delay_s=-0.5)
        with pytest.raises(ValueError):
            NetworkScenario(name="x", stations=(sta,), aps=(ap,),
                            assoc_range_m=0.0)

    @pytest.mark.parametrize("field,value", [
        ("hint_delay_s", float("nan")),
        ("hint_delay_s", float("inf")),
        ("duration_s", float("nan")),
        ("duration_s", float("inf")),
        ("scan_interval_s", float("nan")),
        ("scan_interval_s", float("inf")),
        ("assoc_range_m", float("nan")),
        ("assoc_range_m", float("inf")),
        ("hint_beacon_s", float("nan")),
        ("hint_beacon_s", float("inf")),
    ])
    def test_non_finite_values_rejected(self, field, value):
        sta = StationSpec(name="a")
        ap = ApSpec(bssid="x", x_m=0.0, y_m=0.0)
        with pytest.raises(ValueError):
            NetworkScenario(name="x", stations=(sta,), aps=(ap,),
                            **{field: value})

    def test_station_artefacts_are_store_backed(self, monkeypatch,
                                                tmp_path):
        from repro.channel import TraceStore
        from repro.channel import store as store_mod
        from repro.network import traces

        monkeypatch.setattr(store_mod, "_STORE", TraceStore(tmp_path))
        scenario = solo_scenario()
        trace_a = station_trace(scenario, 0)
        hints_a = station_hints(scenario, 0)
        assert len(list(tmp_path.rglob("*.npz"))) == 2
        # A fresh store on the same root (empty memo) reads both from
        # disk, and they reproduce exactly.
        store_mod.install_store(TraceStore(tmp_path))
        monkeypatch.setattr(traces, "generate_trace", None)
        monkeypatch.setattr(traces, "HintAwareNode", None)
        trace_b = station_trace(scenario, 0)
        hints_b = station_hints(scenario, 0)
        assert np.array_equal(trace_a.fates, trace_b.fates)
        assert np.array_equal(trace_a.snr_db, trace_b.snr_db)
        assert np.array_equal(hints_a.times_s, hints_b.times_s)
        assert np.array_equal(hints_a.values, hints_b.values)


class TestGridDeterminism:
    def test_scenario_rerun_is_identical(self):
        a = run_scenario(solo_scenario())
        b = run_scenario(solo_scenario())
        assert_results_identical(a.station("s0"), b.station("s0"))

    def test_grid_matches_across_job_counts(self):
        kwargs = dict(scenarios=("dense_cell",), seeds=(0, 1),
                      duration_s=2.0)
        serial = run_grid(session=Session(jobs=1), **kwargs)
        parallel = run_grid(session=Session(jobs=2), **kwargs)
        assert serial == parallel
        direct = run_scenario(make_scenario(
            "dense_cell", seed=0, duration_s=2.0,
            association_policy="strongest"))
        assert serial[("dense_cell", "strongest")][0] == \
            NetworkSummary.from_result(direct).to_dict()


@pytest.mark.slow
class TestDenseCellScale:
    def test_20_station_30s_replay_under_60s(self):
        """Acceptance: the dense cell completes a 30 s replay in under
        60 s wall-clock via the fast engine + the session's workers."""
        scenario = make_scenario("dense_cell", seed=5)
        assert scenario.n_stations == 20 and scenario.duration_s == 30.0
        start = time.perf_counter()
        # Warm per-station artefacts through the pool (shared store),
        # then replay the scenario on the resumable fast-engine steppers.
        Session(jobs=2).scatter(warm_network_task,
                                [("dense_cell", 5, None, (), i)
                                 for i in range(20)])
        result = run_scenario(scenario)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"dense cell took {elapsed:.1f}s"
        assert result.aggregate_throughput_mbps > 0
        # The saturated cell's exchanges fill essentially the whole
        # trace: airtime accounting proves the medium was shared.
        assert sum(result.airtime_us.values()) / 1e6 == \
            pytest.approx(scenario.duration_s, rel=0.05)
