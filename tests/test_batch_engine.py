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
from repro.experiments.common import RATE_PROTOCOLS, cached_hints, cached_trace
from repro.mac import (
    BatchLinkSpec,
    SimConfig,
    TcpSource,
    UdpSource,
    run_batch,
    run_link,
)
from repro.rate import FixedRate, RapidSample

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
        from repro.mac.batch import BatchLinkEngine
        from repro.rate.base import CompositeBatchAdapter

        links = [("RapidSample", 2.0, False), ("SampleRate", 4.0, False),
                 ("HintAware", 3.0, True), ("CHARM", 4.0, False),
                 ("RapidSample", 3.0, True)]
        engine = BatchLinkEngine([
            _spec(protocol=p, duration_s=d, tcp=tcp, seed=SEED + i)
            for i, (p, d, tcp) in enumerate(links)])
        assert isinstance(engine._adapter, CompositeBatchAdapter)
        for i, ((p, d, tcp), res) in enumerate(zip(links, engine.run())):
            assert_results_identical(
                res, _fast(protocol=p, duration_s=d, tcp=tcp, seed=SEED + i))

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
    standalone fast run (the adapters write their SoA back on retire)."""

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

    def test_subclassed_controller_falls_back_to_loop(self):
        """A subclass inheriting RapidSample's vectorized adapter but
        overriding a scalar hook must NOT be vectorized with the
        parent's semantics -- it gets the loop adapter instead."""
        class Sticky(RapidSample):
            def on_result(self, rate_index, success, now_ms):
                pass  # never adapts: very different from RapidSample

        from repro.rate.base import LoopBatchAdapter, make_batch_adapter

        assert isinstance(make_batch_adapter([Sticky(), Sticky()]),
                          LoopBatchAdapter)
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
