"""Traffic workloads for the link simulator: saturated UDP and simple TCP.

Section 3.5 evaluates with TCP in the indoor/outdoor environments and
with UDP in the vehicular setting "as TCP times out when faced with the
high loss rate of the mobile case".  The TCP model here is deliberately
the minimum machinery that reproduces that phenomenon:

* a congestion window (slow start / AIMD) clocked by acks over a small
  base RTT, and
* retransmission timeouts with exponential backoff whenever the MAC
  gives up on a packet (retry limit exhausted), stalling the source.

MAC-recovered losses are invisible to TCP, exactly as over real WiFi.
"""

from __future__ import annotations

from collections import deque
from typing import Protocol

__all__ = ["TrafficSource", "UdpSource", "TcpSource"]


class TrafficSource(Protocol):
    """What the link simulator needs from a workload."""

    def next_send_time_us(self, now_us: float) -> float:
        """Earliest time >= now at which a packet is ready (inf if never)."""
        ...

    def on_delivered(self, now_us: float) -> None:
        """The MAC delivered one payload packet."""
        ...

    def on_dropped(self, now_us: float) -> None:
        """The MAC dropped one payload packet (retry limit exhausted)."""
        ...


class UdpSource:
    """Saturated (always-backlogged) constant-pressure source."""

    def next_send_time_us(self, now_us: float) -> float:
        return now_us

    def on_delivered(self, now_us: float) -> None:  # noqa: D401 - no state
        pass

    def on_dropped(self, now_us: float) -> None:
        pass


class TcpSource:
    """Minimal single-flow TCP over the simulated link.

    The sender may have up to ``cwnd`` packets outstanding; each
    delivered packet's ack returns after ``base_rtt_us``.  Deliveries
    arrive in time order, so the acks in flight are due in FIFO order:
    the queue's head is always the earliest.  A MAC drop
    triggers a timeout: the window collapses to 1, the source stalls for
    the current RTO, and the RTO doubles (Karn-style backoff) until a
    delivery succeeds again.
    """

    def __init__(
        self,
        base_rtt_us: float = 5_000.0,
        initial_cwnd: float = 4.0,
        max_cwnd: float = 64.0,
        initial_rto_us: float = 100_000.0,
        max_rto_us: float = 2_000_000.0,
    ) -> None:
        self._base_rtt_us = base_rtt_us
        self._cwnd = initial_cwnd
        self._max_cwnd = max_cwnd
        self._ssthresh = max_cwnd / 2.0
        self._base_rto_us = initial_rto_us
        self._rto_us = initial_rto_us
        self._max_rto_us = max_rto_us
        #: Ack due times (µs) of the packets in flight, oldest first.
        self._in_flight: deque[float] = deque()
        self._stalled_until_us = 0.0
        self.timeouts = 0

    # ------------------------------------------------------------------
    @property
    def cwnd(self) -> float:
        return self._cwnd

    def _reap_acks(self, now_us: float) -> None:
        """Process acks that have arrived by ``now_us`` (grows cwnd)."""
        in_flight = self._in_flight
        while in_flight and in_flight[0] <= now_us:
            in_flight.popleft()
            if self._cwnd < self._ssthresh:
                self._cwnd = min(self._max_cwnd, self._cwnd + 1.0)  # slow start
            else:
                self._cwnd = min(self._max_cwnd, self._cwnd + 1.0 / self._cwnd)
            self._rto_us = self._base_rto_us  # fresh RTT sample

    def next_send_time_us(self, now_us: float) -> float:
        self._reap_acks(now_us)
        candidate = max(now_us, self._stalled_until_us)
        if len(self._in_flight) < int(self._cwnd):
            return candidate
        # Window full: ready when the earliest ack lands (or stall ends).
        return max(candidate, self._in_flight[0])

    def on_delivered(self, now_us: float) -> None:
        self._in_flight.append(now_us + self._base_rtt_us)

    def on_dropped(self, now_us: float) -> None:
        """MAC gave up: TCP retransmission timeout."""
        self.timeouts += 1
        self._ssthresh = max(2.0, self._cwnd / 2.0)
        self._cwnd = 1.0
        self._stalled_until_us = now_us + self._rto_us
        self._rto_us = min(self._max_rto_us, self._rto_us * 2.0)
        self._in_flight.clear()
