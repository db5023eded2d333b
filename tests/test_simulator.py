"""The trace-driven link simulator."""

import numpy as np
import pytest

from repro.channel import ChannelTrace, OFFICE, generate_trace
from repro.channel.rates import N_RATES
from repro.core.architecture import HintSeries
from repro.mac import SimConfig, SimResult, TcpSource, UdpSource, run_link, timing
from repro.rate import FixedRate, OracleRate, RapidSample, HintAwareRateController
from repro.sensors import mixed_mobility_script, stationary_script


def perfect_trace(duration_s=5.0):
    n = int(duration_s / 0.005)
    return ChannelTrace(
        fates=np.ones((n, N_RATES), dtype=bool),
        snr_db=np.full(n, 40.0),
        moving=np.zeros(n, dtype=bool),
    )


def dead_trace(duration_s=1.0):
    n = int(duration_s / 0.005)
    return ChannelTrace(
        fates=np.zeros((n, N_RATES), dtype=bool),
        snr_db=np.full(n, -10.0),
        moving=np.zeros(n, dtype=bool),
    )


class TestBasics:
    def test_perfect_trace_near_lossless_throughput(self):
        result = run_link(perfect_trace(), FixedRate(7), UdpSource(),
                          config=SimConfig(seed=0))
        expected = timing.lossless_throughput_mbps(7, 1000)
        assert result.throughput_mbps == pytest.approx(expected, rel=0.1)

    def test_dead_trace_delivers_nothing(self):
        result = run_link(dead_trace(), FixedRate(0), UdpSource(),
                          config=SimConfig(seed=0))
        assert result.delivered == 0
        assert result.dropped > 0

    def test_deterministic_per_seed(self):
        trace = generate_trace(OFFICE, mixed_mobility_script(5.0), seed=1)
        a = run_link(trace, RapidSample(), UdpSource(), config=SimConfig(seed=2))
        b = run_link(trace, RapidSample(), UdpSource(), config=SimConfig(seed=2))
        assert a.delivered == b.delivered
        assert np.array_equal(a.rate_attempts, b.rate_attempts)

    def test_attempts_at_least_deliveries(self):
        trace = generate_trace(OFFICE, mixed_mobility_script(5.0), seed=1)
        result = run_link(trace, RapidSample(), UdpSource(),
                          config=SimConfig(seed=0))
        assert result.attempts >= result.delivered
        assert result.rate_attempts.sum() == result.attempts

    def test_invalid_rate_rejected(self):
        class BadController(FixedRate):
            def choose_rate(self, now_ms):
                return 99
        with pytest.raises(ValueError):
            run_link(perfect_trace(1.0), BadController(0), UdpSource())

    def test_throughput_series_sums_to_total(self):
        trace = generate_trace(OFFICE, stationary_script(10.0), seed=3)
        result = run_link(trace, FixedRate(4), UdpSource(),
                          config=SimConfig(seed=1))
        series = result.throughput_series_mbps(1.0)
        total_bits = series.sum() * 1.0 * 1e6
        assert total_bits == pytest.approx(result.delivered * 8000.0, rel=0.01)


class TestConfigValidation:
    """Values the engines would disagree on are rejected up front."""

    @pytest.mark.parametrize("field,value", [
        ("hint_delay_s", float("nan")),
        ("hint_delay_s", float("inf")),
        ("hint_delay_s", -0.5),
        ("floor_loss_prob", 1.5),
        ("floor_loss_prob", -0.1),
        ("floor_loss_prob", float("nan")),
        ("snr_obs_noise_db", -1.0),
        ("snr_obs_noise_db", float("nan")),
        ("snr_calibration_error_db", -1.0),
        ("snr_calibration_error_db", float("inf")),
        ("retry_limit", -1),
        ("retry_ladder_after", -2),
        ("payload_bytes", 0),
    ])
    def test_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("hint_delay_s", 0.0),
        ("floor_loss_prob", 0.0),
        ("floor_loss_prob", 1.0),
        ("snr_obs_noise_db", 0.0),
        ("snr_calibration_error_db", 0.0),
        ("retry_limit", 0),
        ("retry_ladder_after", 0),
        ("payload_bytes", 1),
    ])
    def test_boundary_values_accepted(self, field, value):
        SimConfig(**{field: value})


class TestOracleBound:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_oracle_beats_causal_controllers(self, seed):
        trace = generate_trace(OFFICE, mixed_mobility_script(10.0), seed=seed)
        oracle = run_link(trace, OracleRate(trace), UdpSource(),
                          config=SimConfig(seed=seed)).throughput_mbps
        for make in (lambda: RapidSample(), lambda: FixedRate(4)):
            causal = run_link(trace, make(), UdpSource(),
                              config=SimConfig(seed=seed)).throughput_mbps
            assert oracle >= causal * 0.98  # small slack for floor-loss luck


class TestRetryLadder:
    def test_ladder_reduces_drops(self):
        """On a trace where only low rates work, the driver ladder must
        rescue packets that a stubborn high-rate controller would drop."""
        n = 1000
        fates = np.zeros((n, N_RATES), dtype=bool)
        fates[:, 0] = True  # only 6 Mb/s works
        trace = ChannelTrace(fates=fates, snr_db=np.full(n, 5.0),
                             moving=np.zeros(n, dtype=bool))
        with_ladder = run_link(
            trace, FixedRate(7), UdpSource(),
            config=SimConfig(seed=0, retry_limit=10, retry_ladder_after=1))
        without = run_link(
            trace, FixedRate(7), UdpSource(),
            config=SimConfig(seed=0, retry_limit=10, retry_ladder_after=0))
        assert with_ladder.delivered > 0
        assert without.delivered == 0


class TestHintDelivery:
    def test_hint_switches_controller(self):
        trace = generate_trace(OFFICE, mixed_mobility_script(10.0), seed=4)
        times = np.array([0.0, 5.0])
        hints = HintSeries(times_s=times, values=np.array([False, True]))
        controller = HintAwareRateController()
        run_link(trace, controller, UdpSource(), hint_series=hints,
                 config=SimConfig(seed=0))
        assert controller.switch_count == 1
        assert controller.moving is True

    def test_hint_delay_applies(self):
        trace = perfect_trace(1.0)
        hints = HintSeries(times_s=np.array([0.0, 0.5]),
                           values=np.array([False, True]))
        controller = HintAwareRateController()
        run_link(trace, controller, UdpSource(), hint_series=hints,
                 config=SimConfig(seed=0, hint_delay_s=10.0))
        # With a 10 s protocol delay nothing arrives within 1 s.
        assert controller.switch_count == 0


class _CountingSource:
    """Spy traffic source: independently counts MAC outcome callbacks."""

    def __init__(self, inner):
        self.inner = inner
        self.delivered = 0
        self.drops = 0

    def next_send_time_us(self, now_us):
        return self.inner.next_send_time_us(now_us)

    def on_delivered(self, now_us):
        self.delivered += 1
        self.inner.on_delivered(now_us)

    def on_dropped(self, now_us):
        self.drops += 1
        self.inner.on_dropped(now_us)


class TestPacketAccounting:
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_counts_match_traffic_callbacks(self, engine):
        """Delivered/dropped counts agree with what the traffic source
        observed, except for at most one in-flight packet at trace end
        (dropped for accounting but past the source's notification)."""
        trace = generate_trace(OFFICE, mixed_mobility_script(5.0), seed=1)
        for inner in (UdpSource(), TcpSource()):
            spy = _CountingSource(inner)
            result = run_link(trace, RapidSample(), spy,
                              config=SimConfig(seed=0, engine=engine))
            assert result.delivered == spy.delivered
            assert result.dropped - spy.drops in (0, 1)
            assert result.attempts >= result.packets_offered

    def test_truncated_inflight_packet_counts_as_dropped(self):
        """A dead trace so short that the retry loop outlives it: the
        in-flight packet must be accounted (as a drop), not vanish."""
        n = 2  # 10 ms of trace; one retry chain takes much longer
        trace = ChannelTrace(fates=np.zeros((n, N_RATES), dtype=bool),
                             snr_db=np.full(n, -10.0),
                             moving=np.zeros(n, dtype=bool))
        for engine in ("fast", "reference"):
            result = run_link(trace, FixedRate(0), UdpSource(),
                              config=SimConfig(seed=0, engine=engine,
                                               retry_limit=1000))
            assert result.delivered == 0
            assert result.dropped == 1
            assert result.packets_offered == 1
            assert result.attempts >= 1


class TestSimResultEdgeCases:
    def _result(self, duration_s, delivery_times):
        return SimResult(
            duration_s=duration_s, delivered=len(delivery_times),
            dropped=0, attempts=len(delivery_times), payload_bytes=1000,
            rate_attempts=np.zeros(N_RATES, dtype=np.int64),
            rate_successes=np.zeros(N_RATES, dtype=np.int64),
            delivery_times_s=np.asarray(delivery_times, dtype=np.float64))

    def test_series_with_zero_deliveries(self):
        series = self._result(3.0, []).throughput_series_mbps(1.0)
        assert len(series) == 3
        assert (series == 0.0).all()

    def test_series_with_zero_duration(self):
        series = self._result(0.0, []).throughput_series_mbps(1.0)
        assert len(series) == 0

    def test_series_with_sub_bucket_duration(self):
        series = self._result(0.4, [0.1, 0.2]).throughput_series_mbps(1.0)
        assert len(series) == 1
        assert series[0] == pytest.approx(2 * 8000.0 / 1e6)

    def test_series_rejects_bad_bucket(self):
        with pytest.raises(ValueError):
            self._result(1.0, []).throughput_series_mbps(0.0)

    def test_zero_duration_rates(self):
        result = self._result(0.0, [])
        assert result.throughput_mbps == 0.0
        assert result.loss_rate == 0.0
        assert result.attempts_per_packet == 0.0
        assert result.packets_offered == 0


class TestTcpIntegration:
    def test_tcp_below_udp_on_lossy_trace(self):
        trace = generate_trace(OFFICE, mixed_mobility_script(10.0), seed=5)
        udp = run_link(trace, RapidSample(), UdpSource(),
                       config=SimConfig(seed=0)).throughput_mbps
        tcp = run_link(trace, RapidSample(), TcpSource(),
                       config=SimConfig(seed=0)).throughput_mbps
        assert tcp <= udp * 1.05

    def test_tcp_makes_progress_on_good_trace(self):
        result = run_link(perfect_trace(5.0), FixedRate(7), TcpSource(),
                          config=SimConfig(seed=0))
        assert result.throughput_mbps > 10.0
