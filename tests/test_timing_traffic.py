"""802.11a timing arithmetic and traffic sources."""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mac import timing
from repro.mac.traffic import TcpSource, UdpSource


class TestTiming:
    def test_faster_rates_less_airtime(self):
        times = [timing.data_airtime_us(r, 1000) for r in range(8)]
        assert times == sorted(times, reverse=True)

    def test_known_54mbps_airtime(self):
        """1000 bytes at 54 Mb/s: ceil(8022/216)=38 symbols -> 172 us."""
        assert timing.data_airtime_us(7, 1000) == pytest.approx(20 + 38 * 4)

    def test_known_6mbps_airtime(self):
        assert timing.data_airtime_us(0, 1000) == pytest.approx(20 + 335 * 4)

    def test_ack_rate_mandatory_subset(self):
        assert timing.ack_rate_index(7) == 4
        assert timing.ack_rate_index(3) == 2
        assert timing.ack_rate_index(0) == 0

    def test_exchange_exceeds_data_airtime(self):
        for r in range(8):
            assert (timing.exchange_airtime_us(r, 1000)
                    > timing.data_airtime_us(r, 1000))

    def test_failed_exchange_costs_more_than_success(self):
        assert (timing.failed_exchange_us(4, 1000)
                > timing.exchange_airtime_us(4, 1000))

    def test_backoff_grows_with_retries(self):
        waits = [timing.mean_backoff_us(k) for k in range(7)]
        assert waits == sorted(waits)
        assert waits[6] <= timing.CW_MAX / 2 * timing.SLOT_TIME_US + 1e-9

    def test_lossless_throughput_ordering(self):
        tputs = [timing.lossless_throughput_mbps(r) for r in range(8)]
        assert tputs == sorted(tputs)
        assert tputs[7] < 54.0  # overhead eats into the nominal rate

    def test_zero_bytes_rejected(self):
        with pytest.raises(ValueError):
            timing.data_airtime_us(0, 0)

    def test_negative_retry_rejected(self):
        with pytest.raises(ValueError):
            timing.mean_backoff_us(-1)


class TestUdpSource:
    def test_always_ready(self):
        src = UdpSource()
        assert src.next_send_time_us(123.0) == 123.0


class TestTcpSource:
    def test_initially_ready(self):
        src = TcpSource()
        assert src.next_send_time_us(0.0) == 0.0

    def test_window_limits_in_flight(self):
        src = TcpSource(initial_cwnd=2.0, base_rtt_us=1e6)
        assert src.next_send_time_us(0.0) == 0.0
        src.on_delivered(10.0)
        src.on_delivered(20.0)
        # Window of 2 full until acks at ~1 s.
        assert src.next_send_time_us(30.0) > 30.0

    def test_acks_grow_window(self):
        src = TcpSource(initial_cwnd=2.0, base_rtt_us=100.0)
        src.on_delivered(0.0)
        src.on_delivered(0.0)
        src.next_send_time_us(200.0)  # reap acks
        assert src.cwnd > 2.0

    def test_drop_collapses_window_and_stalls(self):
        src = TcpSource(initial_cwnd=8.0, initial_rto_us=1000.0)
        src.on_dropped(0.0)
        assert src.cwnd == 1.0
        assert src.next_send_time_us(1.0) == pytest.approx(1000.0)
        assert src.timeouts == 1

    def test_rto_doubles_on_consecutive_drops(self):
        src = TcpSource(initial_rto_us=1000.0)
        src.on_dropped(0.0)
        first_stall = src.next_send_time_us(0.0)
        src.on_dropped(first_stall)
        second_stall = src.next_send_time_us(first_stall) - first_stall
        assert second_stall == pytest.approx(2000.0)

    def test_rto_resets_after_delivery(self):
        src = TcpSource(initial_rto_us=1000.0, base_rtt_us=100.0)
        src.on_dropped(0.0)
        src.on_delivered(2000.0)
        src.next_send_time_us(3000.0)  # reap the ack (due at 2100)
        src.on_dropped(4000.0)
        stall = src.next_send_time_us(4000.0) - 4000.0
        assert stall == pytest.approx(1000.0)

    def test_rto_capped(self):
        src = TcpSource(initial_rto_us=1000.0, max_rto_us=4000.0)
        for i in range(10):
            src.on_dropped(float(i))
        assert src._rto_us <= 4000.0


class _OrderCheckedTcp(TcpSource):
    """A TcpSource that checks its ack queue stays in due-time order."""

    deliveries = 0

    def on_delivered(self, now_us: float) -> None:
        super().on_delivered(now_us)
        due = list(self._in_flight)
        assert due == sorted(due), due
        type(self).deliveries += 1


_ACK_ORDER_SETTINGS = dict(
    max_examples=8, deadline=None, print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestTcpAckQueueOrder:
    """The ack queue is FIFO: the head is the earliest due ack, which is
    what lets ``TcpSource`` reap from the head and wait on the head.
    That holds only while every caller delivers in time order."""

    @settings(**_ACK_ORDER_SETTINGS)
    @given(seed=st.integers(min_value=0, max_value=400),
           mode=st.sampled_from(["static", "mobile", "mixed"]),
           protocol=st.sampled_from(["SampleRate", "RapidSample", "RRAA"]))
    def test_link_process_delivers_in_order(self, seed, mode, protocol):
        from repro.experiments.common import (
            RATE_PROTOCOLS,
            cached_hints,
            cached_trace,
        )
        from repro.mac import LinkProcess, SimConfig

        _OrderCheckedTcp.deliveries = 0
        proc = LinkProcess(
            cached_trace("office", mode, seed, 2.0),
            RATE_PROTOCOLS[protocol](seed), _OrderCheckedTcp(),
            cached_hints(mode, seed, 2.0), SimConfig(seed=seed))
        result = proc.run_to_completion()
        assert _OrderCheckedTcp.deliveries == result.delivered > 0

    @settings(**_ACK_ORDER_SETTINGS)
    @given(seed=st.integers(min_value=0, max_value=400),
           engine=st.sampled_from(["reference", "batch"]),
           n_tcp=st.integers(min_value=1, max_value=3),
           two_cells=st.booleans())
    def test_network_schedulers_deliver_in_order(self, seed, engine, n_tcp,
                                                 two_cells):
        from repro.network import (
            ApSpec,
            NetworkScenario,
            StationSpec,
            run_scenario,
        )

        stations = tuple(
            StationSpec(name=f"s{i}", mobility="walk" if i % 2 else "static",
                        start_xy=(float(30 * i), 0.0),
                        traffic="tcp" if i < n_tcp else "udp")
            for i in range(n_tcp + 1))
        aps = (ApSpec(bssid="a", x_m=0.0, y_m=10.0),)
        if two_cells:
            aps += (ApSpec(bssid="b", x_m=60.0, y_m=10.0),)
        scenario = NetworkScenario(
            name="ack-order", stations=stations, aps=aps,
            environment="office", duration_s=1.5, seed=seed,
            scan_interval_s=0.5, engine=engine)
        _OrderCheckedTcp.deliveries = 0
        with mock.patch("repro.network.simulator.TcpSource",
                        _OrderCheckedTcp):
            result = run_scenario(scenario)
        assert _OrderCheckedTcp.deliveries == sum(
            result.station(f"s{i}").delivered for i in range(n_tcp)) > 0
