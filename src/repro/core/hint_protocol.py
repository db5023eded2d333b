"""The Hint Protocol: carrying hints between nodes (Section 2.3).

When node A sends to node B, A should learn B's hints.  The paper encodes
hints three ways, all implemented here:

1. **Single-bit stuffing** -- a boolean hint (movement) rides in an unused
   bit of a standard 802.11 ACK / probe-request frame, so legacy nodes
   interoperate untouched.
2. **Typed two-byte field** -- an expanded link-layer field carrying a
   ``(hintType, hintVal)`` pair for the general hint class.
3. **Piggyback / standalone hint frames** -- hints appended to data frames
   or, when there is no data to send, a short dedicated hint frame that
   only hint-aware nodes recognise.

Encoding is real bytes (``encode_*`` / ``decode_*`` round-trip) so the
protocol is testable at the wire level, and :class:`HintChannel` models
the *delivery semantics* the simulators need: a sender only learns the
receiver's hint when a frame exchange succeeds, so hints arrive with
latency that depends on traffic and loss.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .hints import (
    EnvironmentActivityHint,
    HeadingHint,
    Hint,
    HintType,
    MovementHint,
    PositionHint,
    SpeedHint,
)

__all__ = [
    "encode_movement_bit",
    "decode_movement_bit",
    "encode_hint_field",
    "decode_hint_field",
    "encode_hint_frame",
    "decode_hint_frame",
    "HintChannel",
    "HINT_FRAME_MAGIC",
]

#: First byte of a standalone hint frame; legacy nodes drop unknown types.
HINT_FRAME_MAGIC = 0xA7

# The 802.11 Frame Control field has reserved/unused bits in several frame
# subtypes; we use bit 7 of the second FC byte, as the paper suggests
# ("one of the unused bits in the standard 802.11 ACK frame").
_MOVEMENT_BIT_MASK = 0x80


def encode_movement_bit(fc_byte: int, moving: bool) -> int:
    """Stuff the boolean movement hint into an unused frame-control bit."""
    if not 0 <= fc_byte <= 0xFF:
        raise ValueError("frame-control byte out of range")
    return (fc_byte | _MOVEMENT_BIT_MASK) if moving else (fc_byte & ~_MOVEMENT_BIT_MASK)


def decode_movement_bit(fc_byte: int) -> bool:
    """Read the movement hint back out of the frame-control bit."""
    if not 0 <= fc_byte <= 0xFF:
        raise ValueError("frame-control byte out of range")
    return bool(fc_byte & _MOVEMENT_BIT_MASK)


def _quantise_hint(hint: Hint) -> int:
    """Map a hint to its one-byte wire value (Section 2.3's hintVal)."""
    if isinstance(hint, MovementHint):
        return 1 if hint.moving else 0
    if isinstance(hint, HeadingHint):
        # 0..255 covers 0..358.6 degrees in ~1.4 degree steps.
        return int(round((hint.heading_deg % 360.0) / 360.0 * 255.0))
    if isinstance(hint, SpeedHint):
        # 0.5 m/s steps, saturating at 127.5 m/s (~460 km/h).
        return min(255, int(round(hint.speed_mps * 2.0)))
    if isinstance(hint, EnvironmentActivityHint):
        return 1 if hint.active else 0
    raise TypeError(f"{type(hint).__name__} does not fit a one-byte hintVal")


def _dequantise_hint(hint_type: HintType, value: int, time_s: float) -> Hint:
    if hint_type is HintType.MOVEMENT:
        return MovementHint(time_s=time_s, moving=bool(value))
    if hint_type is HintType.HEADING:
        return HeadingHint(time_s=time_s, heading_deg=value / 255.0 * 360.0)
    if hint_type is HintType.SPEED:
        return SpeedHint(time_s=time_s, speed_mps=value / 2.0)
    if hint_type is HintType.ENVIRONMENT_ACTIVITY:
        return EnvironmentActivityHint(
            time_s=time_s, active=bool(value), noise_variation_db=0.0
        )
    raise ValueError(f"hint type {hint_type} has no one-byte encoding")


def encode_hint_field(hint: Hint) -> bytes:
    """Two-byte (hintType, hintVal) link-layer field (Section 2.3)."""
    return struct.pack("BB", int(hint.hint_type), _quantise_hint(hint))


def decode_hint_field(data: bytes, time_s: float = 0.0) -> Hint:
    """Inverse of :func:`encode_hint_field` (value quantised to the wire)."""
    if len(data) != 2:
        raise ValueError("hint field must be exactly two bytes")
    type_byte, value = struct.unpack("BB", data)
    return _dequantise_hint(HintType(type_byte), value, time_s)


def encode_hint_frame(hints: list[Hint]) -> bytes:
    """A standalone short hint frame: magic, count, then 2-byte fields.

    Position hints need more than one byte per coordinate, so they are
    encoded as two int16 metres appended after the fields they follow.
    """
    parts = [struct.pack("BB", HINT_FRAME_MAGIC, len(hints))]
    for hint in hints:
        if isinstance(hint, PositionHint):
            parts.append(struct.pack("B", int(HintType.POSITION)))
            parts.append(struct.pack("<hh", _clamp16(hint.x_m), _clamp16(hint.y_m)))
        else:
            parts.append(encode_hint_field(hint))
    return b"".join(parts)


def decode_hint_frame(data: bytes, time_s: float = 0.0) -> list[Hint]:
    """Parse a standalone hint frame; raises ValueError on bad frames."""
    if len(data) < 2 or data[0] != HINT_FRAME_MAGIC:
        raise ValueError("not a hint frame")
    count = data[1]
    hints: list[Hint] = []
    offset = 2
    for _ in range(count):
        if offset >= len(data):
            raise ValueError("truncated hint frame")
        type_byte = data[offset]
        if type_byte == int(HintType.POSITION):
            if offset + 5 > len(data):
                raise ValueError("truncated position hint")
            x, y = struct.unpack_from("<hh", data, offset + 1)
            hints.append(PositionHint(time_s=time_s, x_m=float(x), y_m=float(y)))
            offset += 5
        else:
            hints.append(decode_hint_field(data[offset:offset + 2], time_s))
            offset += 2
    return hints


def _clamp16(value: float) -> int:
    return max(-32768, min(32767, int(round(value))))


@dataclass
class HintChannel:
    """Delivery semantics of the Hint Protocol for the link simulators.

    The receiver publishes its current hint with :meth:`publish`; the
    sender learns it only when a frame exchange succeeds (hints ride on
    ACKs / piggybacked data) or when a periodic standalone hint frame
    goes out (``beacon_interval_s``, 0 disables).  :meth:`deliver`
    is called by the simulator at each successful exchange and returns
    newly learned hints.

    :meth:`carries` is the one statement of that rule, beacon clock
    included.  :meth:`deliver` applies it to a published hint object;
    the network simulator's ``protocol`` mode applies it directly to a
    station's movement bit, so a replay builds no hint objects for
    exchanges that learn nothing new.
    """

    beacon_interval_s: float = 0.1
    _pending: Hint | None = None
    _last_delivered: Hint | None = None
    _last_beacon_s: float = field(default=float("-inf"))

    def publish(self, hint: Hint) -> None:
        """Receiver side: update the hint value to be shared."""
        self._pending = hint

    def carries(self, now_s: float, exchange_success: bool) -> bool:
        """Whether the exchange ending at ``now_s`` carries the hint.

        A successful exchange always does (stuffed bit / piggyback);
        otherwise a standalone beacon does if one is due.  Either way
        the delivery moves the beacon clock to ``now_s``.
        """
        if exchange_success or (
                self.beacon_interval_s > 0
                and now_s - self._last_beacon_s >= self.beacon_interval_s):
            self._last_beacon_s = now_s
            return True
        return False

    def deliver(self, now_s: float, exchange_success: bool) -> Hint | None:
        """Sender side: the hint learned at this instant, if any.

        Called once per frame exchange; :meth:`carries` decides whether
        the published hint gets through.
        """
        if self._pending is None or not self.carries(now_s, exchange_success):
            return None
        # Round-trip through the wire encoding so the sender sees the
        # quantised value, exactly as over the air.
        try:
            wire = encode_hint_field(self._pending)
            learned = decode_hint_field(wire, time_s=now_s)
        except TypeError:
            learned = self._pending
        self._last_delivered = learned
        return learned

    @property
    def last_delivered(self) -> Hint | None:
        return self._last_delivered
