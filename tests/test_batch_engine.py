"""Batch-engine unit tests: edge cases the differential matrix can miss.

The cross-engine equivalence suite pins `batch == fast == reference` on
the evaluation grid; this file exercises the batch engine's own edge
geometry -- batches of one, ragged trace lengths, early-finishing links,
empty batches -- plus the spec-level contracts (controller state
write-back, batch-position independence, pool grouping).
"""

import numpy as np
import pytest

from repro.api import GridSpec, Session
from repro.channel import ChannelTrace
from repro.core.architecture import HintSeries
from repro.experiments.common import RATE_PROTOCOLS, cached_hints, cached_trace
from repro.mac import (
    BatchLinkSpec,
    SimConfig,
    TcpSource,
    UdpSource,
    run_batch,
    run_link,
)
from repro.mac.batch import BatchLinkEngine
from repro.rate import (
    CHARM,
    RBAR,
    RRAA,
    FixedRate,
    HintAwareRateController,
    RapidSample,
    RoundRobin,
    SampleRate,
)
from repro.rate.base import make_batch_adapter

SEED = 23


def _spec(mode="mixed", env="office", seed=SEED, duration_s=4.0,
          protocol="RapidSample", tcp=False, **config):
    return BatchLinkSpec(
        trace=cached_trace(env, mode, seed, duration_s),
        controller=RATE_PROTOCOLS[protocol](seed),
        traffic=TcpSource() if tcp else UdpSource(),
        hint_series=cached_hints(mode, seed, duration_s),
        config=SimConfig(seed=seed, **config),
    )


def assert_results_identical(a, b):
    assert a.duration_s == b.duration_s
    assert a.delivered == b.delivered
    assert a.dropped == b.dropped
    assert a.attempts == b.attempts
    assert a.payload_bytes == b.payload_bytes
    assert np.array_equal(a.rate_attempts, b.rate_attempts)
    assert np.array_equal(a.rate_successes, b.rate_successes)
    assert np.array_equal(a.delivery_times_s, b.delivery_times_s)


def _fast(mode="mixed", env="office", seed=SEED, duration_s=4.0,
          protocol="RapidSample", tcp=False, **config):
    return run_link(
        cached_trace(env, mode, seed, duration_s),
        RATE_PROTOCOLS[protocol](seed),
        traffic=TcpSource() if tcp else UdpSource(),
        hint_series=cached_hints(mode, seed, duration_s),
        config=SimConfig(seed=seed, **config),
    )


class TestBatchEdgeCases:
    def test_empty_batch(self):
        assert run_batch([]) == []

    def test_single_link_equals_fast_path(self):
        """B=1 through the array program == the scalar fast engine."""
        [batch] = run_batch([_spec()])
        assert_results_identical(batch, _fast())

    def test_engine_batch_config_on_link_simulator(self):
        """SimConfig(engine="batch") routes run_link through the engine."""
        res = _fast(engine="batch")
        assert_results_identical(res, _fast())

    def test_ragged_trace_lengths_in_one_batch(self):
        """Links with different durations replay together unchanged."""
        durations = [1.5, 6.0, 3.0, 4.5]
        specs = [_spec(duration_s=d, seed=SEED + i)
                 for i, d in enumerate(durations)]
        results = run_batch(specs)
        for i, (d, res) in enumerate(zip(durations, results)):
            assert res.duration_s == pytest.approx(d)
            assert_results_identical(
                res, _fast(duration_s=d, seed=SEED + i))

    def test_link_finishing_early_while_others_continue(self):
        """A short link's death must not disturb the survivors."""
        short = _spec(duration_s=1.0, seed=SEED)
        long_a = _spec(duration_s=5.0, seed=SEED + 1)
        long_b = _spec(duration_s=5.0, seed=SEED + 2, mode="static")
        results = run_batch([long_a, short, long_b])
        assert_results_identical(results[1], _fast(duration_s=1.0, seed=SEED))
        assert_results_identical(
            results[0], _fast(duration_s=5.0, seed=SEED + 1))
        assert_results_identical(
            results[2], _fast(duration_s=5.0, seed=SEED + 2, mode="static"))

    def test_batch_position_independence(self):
        """A link's result is keyed by its seed, not its batch slot."""
        seeds = [SEED, SEED + 7, SEED + 3]
        order_a = run_batch([_spec(seed=s) for s in seeds])
        order_b = run_batch([_spec(seed=s) for s in reversed(seeds)])
        for res_a, res_b in zip(order_a, reversed(order_b)):
            assert_results_identical(res_a, res_b)

    def test_tcp_links_batch_correctly(self):
        """Gated (non-saturated) traffic goes through the slow path."""
        specs = [_spec(tcp=True, seed=SEED + i) for i in range(3)]
        for i, res in enumerate(run_batch(specs)):
            assert_results_identical(res, _fast(tcp=True, seed=SEED + i))

    def test_mixed_udp_tcp_batch(self):
        specs = [_spec(tcp=False, seed=SEED), _spec(tcp=True, seed=SEED + 1)]
        udp, tcp = run_batch(specs)
        assert_results_identical(udp, _fast(tcp=False, seed=SEED))
        assert_results_identical(tcp, _fast(tcp=True, seed=SEED + 1))

    def test_mixed_controller_classes_in_one_engine(self):
        """A hand-built heterogeneous engine (``run_batch`` partitions by
        class instead) drives each class through its own sub-adapter of
        the composite, dropping rows as links end at different times."""
        from repro.rate.base import CompositeBatchAdapter

        links = [(RapidSample, 2.0, False), (lambda: FixedRate(4), 4.0, False),
                 (lambda: FixedRate(7), 3.0, True), (RapidSample, 3.0, True)]

        def spec(make, d, tcp, seed):
            return BatchLinkSpec(
                trace=cached_trace("office", "mixed", seed, d),
                controller=make(),
                traffic=TcpSource() if tcp else UdpSource(),
                hint_series=cached_hints("mixed", seed, d),
                config=SimConfig(seed=seed))

        engine = BatchLinkEngine([spec(make, d, tcp, SEED + i)
                                  for i, (make, d, tcp) in enumerate(links)])
        assert isinstance(engine._adapter, CompositeBatchAdapter)
        for i, ((make, d, tcp), res) in enumerate(zip(links, engine.run())):
            s = spec(make, d, tcp, SEED + i)
            assert_results_identical(res, run_link(
                s.trace, s.controller, s.traffic, hint_series=s.hint_series,
                config=s.config))

    @pytest.mark.parametrize("hints", ["none", "real", "every_ms"])
    def test_hint_series_never_changes_a_batched_result(self, hints):
        """Batched controllers ignore hints, so the engine never reads a
        spec's hint series: one RapidSample batch and one fixed-rate
        batch give the same results with no hints, the link's real
        hints or a hint edge every millisecond, and each matches its
        standalone fast replay."""
        duration_s = 3.0
        if hints == "none":
            series = None
        elif hints == "real":
            series = cached_hints("mixed", SEED, duration_s)
        else:
            times = np.arange(0.0, duration_s, 1e-3)
            series = HintSeries(times_s=times,
                                values=np.arange(len(times)) % 2 == 0)
        def specs(make, hint_series):
            return [BatchLinkSpec(
                trace=cached_trace("office", mode, SEED + i, duration_s),
                controller=make(), traffic=UdpSource(),
                hint_series=hint_series, config=SimConfig(seed=SEED + i))
                for i, mode in enumerate(("mixed", "mobile", "static"))]

        for make in (RapidSample, lambda: FixedRate(5)):
            hinted = specs(make, series)
            for spec, res, res_quiet in zip(hinted, run_batch(hinted),
                                            run_batch(specs(make, None))):
                assert_results_identical(res, res_quiet)
                assert_results_identical(res, run_link(
                    spec.trace, make(), UdpSource(), hint_series=series,
                    config=spec.config))

    def test_no_hints_no_backoff_no_floor(self):
        """Config flags off: the engine must not consume those streams."""
        kwargs = dict(use_backoff=False, floor_loss_prob=0.0,
                      snr_obs_noise_db=0.0, snr_calibration_error_db=0.0)
        spec = BatchLinkSpec(
            trace=cached_trace("office", "mixed", SEED, 3.0),
            controller=RapidSample(),
            traffic=UdpSource(),
            hint_series=None,
            config=SimConfig(seed=SEED, **kwargs),
        )
        [batch] = run_batch([spec])
        fast = run_link(
            cached_trace("office", "mixed", SEED, 3.0), RapidSample(),
            UdpSource(), hint_series=None,
            config=SimConfig(seed=SEED, **kwargs),
        )
        assert_results_identical(batch, fast)

    def test_fractional_airtime_falls_back_to_fast(self):
        """Payloads with non-integral airtimes still produce fast results."""
        cfg = SimConfig(seed=SEED, payload_bytes=1001)
        spec = BatchLinkSpec(
            trace=cached_trace("office", "mixed", SEED, 2.0),
            controller=RapidSample(),
            traffic=UdpSource(),
            hint_series=cached_hints("mixed", SEED, 2.0),
            config=cfg,
        )
        [batch] = run_batch([spec])
        fast = run_link(
            cached_trace("office", "mixed", SEED, 2.0), RapidSample(),
            UdpSource(), hint_series=cached_hints("mixed", SEED, 2.0),
            config=cfg,
        )
        assert_results_identical(batch, fast)

    def test_zero_duration_trace(self):
        """An empty-duration link yields an all-zero result."""
        base = cached_trace("office", "static", SEED, 2.0)
        tiny = ChannelTrace(
            fates=base.fates[:1], snr_db=base.snr_db[:1],
            moving=base.moving[:1], slot_s=1e-9,
        )
        spec = BatchLinkSpec(trace=tiny, controller=RapidSample(),
                             traffic=UdpSource(), config=SimConfig(seed=SEED))
        [res] = run_batch([spec])
        fast = run_link(tiny, RapidSample(), UdpSource(),
                        config=SimConfig(seed=SEED))
        assert_results_identical(res, fast)


class TestControllerStateParity:
    """After a batched run, controllers carry the same state as after a
    standalone fast run (the adapters write their SoA back on retire;
    controllers without one are the fast run's own)."""

    def test_rapidsample_state_written_back(self):
        c_batch = RapidSample()
        c_fast = RapidSample()
        trace = cached_trace("office", "mixed", SEED, 3.0)
        hints = cached_hints("mixed", SEED, 3.0)
        run_batch([BatchLinkSpec(trace=trace, controller=c_batch,
                                 traffic=UdpSource(), hint_series=hints,
                                 config=SimConfig(seed=SEED))])
        run_link(trace, c_fast, UdpSource(), hint_series=hints,
                 config=SimConfig(seed=SEED))
        assert c_batch._current == c_fast._current
        assert c_batch._sampling == c_fast._sampling
        assert c_batch._old_rate == c_fast._old_rate
        assert c_batch._failed_time == c_fast._failed_time
        assert c_batch._picked_time == c_fast._picked_time

    def test_samplerate_state_written_back(self):
        c_batch = SampleRate(window_s=1.0)
        c_fast = SampleRate(window_s=1.0)
        trace = cached_trace("office", "mixed", SEED, 3.0)
        run_batch([BatchLinkSpec(trace=trace, controller=c_batch,
                                 traffic=UdpSource(),
                                 config=SimConfig(seed=SEED))])
        run_link(trace, c_fast, UdpSource(), config=SimConfig(seed=SEED))
        # The instance state is Python lists and (time, rate, success,
        # airtime) tuples again after the SoA writes it back.
        for attr in ("_tx_time_us", "_successes", "_failures",
                     "_consecutive_failures"):
            assert type(getattr(c_batch, attr)) is list
            assert getattr(c_batch, attr) == getattr(c_fast, attr)
        assert list(c_batch._records) == list(c_fast._records)
        assert c_batch._packet_count == c_fast._packet_count
        assert c_batch._current == c_fast._current
        assert c_batch._sampling_rate == c_fast._sampling_rate

    def test_hintaware_switch_count_written_back(self):
        from repro.rate import HintAwareRateController

        c_batch = HintAwareRateController()
        c_fast = HintAwareRateController()
        trace = cached_trace("office", "mixed", SEED, 4.0)
        hints = cached_hints("mixed", SEED, 4.0)
        run_batch([BatchLinkSpec(trace=trace, controller=c_batch,
                                 traffic=UdpSource(), hint_series=hints,
                                 config=SimConfig(seed=SEED))])
        run_link(trace, c_fast, UdpSource(), hint_series=hints,
                 config=SimConfig(seed=SEED))
        assert c_batch.switch_count == c_fast.switch_count
        assert c_batch.moving == c_fast.moving


class TestCruisePaths:
    """Protocols with vectorized adapters cover the cruise fast path."""

    @pytest.mark.parametrize("rate_index", [0, 4, 7])
    def test_fixed_rate_batches(self, rate_index):
        trace = cached_trace("office", "static", SEED, 4.0)
        cfg = SimConfig(seed=SEED)
        [batch] = run_batch([BatchLinkSpec(
            trace=trace, controller=FixedRate(rate_index),
            traffic=UdpSource(), config=cfg)])
        fast = run_link(trace, FixedRate(rate_index), UdpSource(), config=cfg)
        assert_results_identical(batch, fast)

    @pytest.mark.parametrize("hook", ["on_hint", "observe_snr"])
    def test_controller_reading_hints_or_snr_has_no_adapter(self, hook,
                                                            monkeypatch):
        """The batch engine delivers neither hints nor SNR, so a class
        overriding either hook has no array adapter even when it defines
        ``step_batch`` itself, and replays on the fast engine."""
        def on_hint(self, hint):
            self._current = 0 if hint.moving else self.n_rates - 1

        def observe_snr(self, snr_db, now_ms):
            self._current = 0 if snr_db < 10.0 else self._current

        class Reactive(RapidSample):
            step_batch = vars(RapidSample)["step_batch"]

        assert make_batch_adapter([Reactive()]) is not None
        setattr(Reactive, hook, on_hint if hook == "on_hint" else observe_snr)
        assert make_batch_adapter([Reactive(), Reactive()]) is None
        assert make_batch_adapter([RapidSample(), Reactive()]) is None
        trace = cached_trace("office", "mixed", SEED, 3.0)
        hints = cached_hints("mixed", SEED, 3.0)
        cfg = SimConfig(seed=SEED)
        fast = run_link(trace, Reactive(), UdpSource(), hint_series=hints,
                        config=cfg)
        TestScalarFallback._forbid_engine(monkeypatch)
        [batch] = run_batch([BatchLinkSpec(
            trace=trace, controller=Reactive(), traffic=UdpSource(),
            hint_series=hints, config=cfg)])
        assert_results_identical(batch, fast)
        # The hook is live: the same link replays differently without it.
        assert not np.array_equal(
            fast.rate_attempts,
            run_link(trace, RapidSample(), UdpSource(), hint_series=hints,
                     config=cfg).rate_attempts)

    def test_subclassed_controller_falls_back_to_loop(self):
        """A subclass inheriting RapidSample's vectorized adapter but
        overriding a scalar hook must NOT be vectorized with the
        parent's semantics -- it has no array adapter and replays on
        the fast engine instead."""
        class Sticky(RapidSample):
            def on_result(self, rate_index, success, now_ms):
                pass  # never adapts: very different from RapidSample

        assert make_batch_adapter([Sticky(), Sticky()]) is None
        trace = cached_trace("office", "mixed", SEED, 3.0)
        hints = cached_hints("mixed", SEED, 3.0)
        cfg = SimConfig(seed=SEED)
        [batch] = run_batch([BatchLinkSpec(
            trace=trace, controller=Sticky(), traffic=UdpSource(),
            hint_series=hints, config=cfg)])
        fast = run_link(trace, Sticky(), UdpSource(), hint_series=hints,
                        config=cfg)
        assert_results_identical(batch, fast)

    def test_retry_limit_zero_disables_failure_commits(self):
        """retry_limit=0 turns every failure into a drop; the cruise
        terminal-commit path must leave those to the general step."""
        cfg = SimConfig(seed=SEED, retry_limit=0)
        trace = cached_trace("office", "mobile", SEED, 3.0)
        hints = cached_hints("mobile", SEED, 3.0)
        [batch] = run_batch([BatchLinkSpec(
            trace=trace, controller=RapidSample(), traffic=UdpSource(),
            hint_series=hints, config=cfg)])
        fast = run_link(trace, RapidSample(), UdpSource(),
                        hint_series=hints, config=cfg)
        assert_results_identical(batch, fast)


class TestScalarFallback:
    """Groups without an array adapter replay on the fast engine inside
    :func:`run_batch`, bit-identical to standalone replays."""

    @staticmethod
    def _forbid_engine(monkeypatch):
        def run(self):
            raise AssertionError("a batch engine ran")

        monkeypatch.setattr(BatchLinkEngine, "run", run)

    @pytest.mark.parametrize("make", [
        RRAA,
        lambda: RBAR(training_seed=SEED),
        lambda: CHARM(training_seed=SEED),
        RoundRobin,
        SampleRate,
        HintAwareRateController,
        lambda: HintAwareRateController(static=RRAA()),
    ], ids=["RRAA", "RBAR", "CHARM", "RoundRobin", "SampleRate", "HintAware",
            "HintAware-RRAA-static"])
    def test_group_without_array_adapter_matches_run_link(self, make,
                                                          monkeypatch):
        assert make_batch_adapter([make(), make()]) is None
        trace = cached_trace("office", "mixed", SEED, 3.0)
        hints = cached_hints("mixed", SEED, 3.0)
        cfg = SimConfig(seed=SEED)
        fast = run_link(trace, make(), UdpSource(), hint_series=hints,
                        config=cfg)
        self._forbid_engine(monkeypatch)
        batch = run_batch([BatchLinkSpec(
            trace=trace, controller=make(), traffic=UdpSource(),
            hint_series=hints, config=cfg) for _ in range(2)])
        for res in batch:
            assert_results_identical(res, fast)

    def test_hand_built_engine_rejects_charm(self):
        with pytest.raises(ValueError, match="no array adapter"):
            BatchLinkEngine([_spec(protocol="CHARM")])

    def test_mixed_rate_counts_have_no_array_adapter(self):
        assert make_batch_adapter([RapidSample(4), RapidSample()]) is None
        assert make_batch_adapter([SampleRate(4), SampleRate()]) is None
        assert make_batch_adapter([RapidSample(), CHARM()]) is None

    def test_array_and_scalar_groups_in_one_call(self):
        protocols = ["RapidSample", "CHARM", "SampleRate", "RRAA",
                     "HintAware", "RBAR"]
        specs = [_spec(protocol=p, seed=SEED + i, duration_s=2.0)
                 for i, p in enumerate(protocols)]
        for i, (p, res) in enumerate(zip(protocols, run_batch(specs))):
            assert_results_identical(
                res, _fast(protocol=p, seed=SEED + i, duration_s=2.0))

    def test_snr_config_knobs_share_one_batch(self, monkeypatch):
        """No adapted controller reads SNR, so SNR-observation knobs no
        longer split groups: one engine replays all these links."""
        knobs = [dict(), dict(snr_obs_noise_db=0.0),
                 dict(snr_calibration_error_db=0.0),
                 dict(snr_feedback=False),
                 dict(snr_obs_noise_db=4.0, snr_calibration_error_db=3.0)]
        specs = [_spec(protocol="RapidSample", seed=SEED + i, duration_s=2.0,
                       **kw) for i, kw in enumerate(knobs)]
        engines = []
        original = BatchLinkEngine.run

        def run(self):
            engines.append(self)
            return original(self)

        monkeypatch.setattr(BatchLinkEngine, "run", run)
        results = run_batch(specs)
        assert len(engines) == 1
        for i, (kw, res) in enumerate(zip(knobs, results)):
            assert_results_identical(
                res, _fast(protocol="RapidSample", seed=SEED + i,
                           duration_s=2.0, **kw))


class TestBatchPool:
    #: Three protocol groups of three ragged UDP tasks each (best-
    #: SampleRate expands into one link per window).
    GRID = [
        GridSpec(protocols=(protocol,), envs=(env,), mode="mixed",
                 n_seeds=3, seed0=SEED, duration_s=3.0, tcp=False,
                 best_samplerate_protocols=("SampleRate",))
        for protocol, env in (("RapidSample", "office"),
                              ("SampleRate", "office"),
                              ("HintAware", "hallway"))
    ]

    @staticmethod
    def _throughputs(session):
        return [v for run in session.map(TestBatchPool.GRID)
                for v in run.throughputs]

    def test_pool_matches_serial_pool(self, monkeypatch):
        from repro.api import planner

        reference = self._throughputs(Session(engine="reference", jobs=1))
        assert self._throughputs(Session(engine="batch", jobs=1)) == reference
        # Grouping geometry must not matter either.
        for batch_size in (2, 3):
            monkeypatch.setattr(planner, "BATCH_SIZE", batch_size)
            assert self._throughputs(Session(engine="batch", jobs=1)) \
                == reference, f"BATCH_SIZE={batch_size}"
        # Groups below their break-even width replay per task on fast.
        monkeypatch.undo()
        runs = Session(jobs=1).map(self.GRID)
        assert [v for run in runs for v in run.throughputs] == reference
        assert all(run.engine == "fast" for run in runs)

    def test_pool_parallel_jobs_identical(self):
        grid = GridSpec(protocols=("RapidSample",), envs=("office",),
                        mode="mixed", n_seeds=4, seed0=SEED, duration_s=3.0,
                        tcp=False)
        assert Session(engine="batch", jobs=1).run(grid).throughputs == \
            Session(engine="batch", jobs=2).run(grid).throughputs
