"""Scalar oracle for the network's ``protocol``-mode hint delivery.

This is the per-exchange delivery the network simulator ran before it
stopped building hint objects for exchanges that learn nothing new: at
the end of every exchange the station publishes a
:class:`~repro.core.hints.MovementHint` into its
:class:`~repro.core.hint_protocol.HintChannel`, the channel decides
whether the exchange (or a due beacon) carries it, round-trips it
through the two-byte wire field, and the sender fires ``on_hint`` when
the learned value changes.  The channel's ``deliver`` body is kept here
too, so the oracle does not lean on the rule the new path factors out.

``tests/test_hint_delivery_equivalence.py`` fuzzes the network's
delivery against :func:`deliver_hint` and replays whole ``protocol``
scenarios on :class:`OracleNetworkSimulator` /
:class:`OracleNetworkBatchEngine`.
"""

from __future__ import annotations

from repro.core.hint_protocol import (
    HintChannel,
    decode_hint_field,
    encode_hint_field,
)
from repro.core.hints import Hint, MovementHint
from repro.network.batch import NetworkBatchEngine
from repro.network.simulator import NetworkSimulator

__all__ = [
    "channel_deliver",
    "deliver_hint",
    "OracleNetworkSimulator",
    "OracleNetworkBatchEngine",
]


def channel_deliver(channel: HintChannel, now_s: float,
                    exchange_success: bool) -> Hint | None:
    """``HintChannel.deliver`` as one body: rule, beacon clock, codec."""
    if channel._pending is None:
        return None
    beacon_due = (
        channel.beacon_interval_s > 0
        and now_s - channel._last_beacon_s >= channel.beacon_interval_s
    )
    if exchange_success or beacon_due:
        channel._last_beacon_s = now_s
        try:
            wire = encode_hint_field(channel._pending)
            learned = decode_hint_field(wire, time_s=now_s)
        except TypeError:
            learned = channel._pending
        channel._last_delivered = learned
        return learned
    return None


def deliver_hint(st, end_s: float, success: bool) -> None:
    """Publish the station's hint object, then deliver it, per exchange."""
    channel = st.channel
    assert channel is not None
    channel.publish(
        MovementHint(time_s=end_s, moving=st.advance_hint(end_s)))
    learned = channel_deliver(channel, end_s, exchange_success=success)
    if learned is not None and isinstance(learned, MovementHint):
        st.hints_delivered += 1
        if learned.moving != st.last_learned:
            st.controller.on_hint(learned)
            st.last_learned = learned.moving


class OracleNetworkSimulator(NetworkSimulator):
    """The reference scenario engine with the oracle's delivery."""

    def _deliver_hint(self, st, end_s: float, success: bool) -> None:
        deliver_hint(st, end_s, success)


class OracleNetworkBatchEngine(NetworkBatchEngine):
    """The batch scenario engine with the oracle's delivery."""

    def _deliver_hint(self, st, end_s: float, success: bool) -> None:
        deliver_hint(st, end_s, success)
