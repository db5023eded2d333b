"""Motion scripts: the ground-truth trajectories that drive every substrate.

The paper's experiments move a receiver through scripted patterns
(stationary on a desk, wheeled-chair walks, drive-bys at 8-72 km/h).  A
:class:`MotionScript` captures such a pattern as a list of
:class:`MotionSegment` pieces and can be sampled at any simulated time to
obtain a :class:`MotionState` (position, speed, heading, moving flag).

Both the synthetic sensors (:mod:`repro.sensors`) and the channel trace
generator (:mod:`repro.channel.tracegen`) sample the *same* script, so the
accelerometer jerks exactly when the channel starts to fade fast -- the
coupling the paper's hint architecture exploits.

All times are in seconds; positions in metres; headings in degrees
clockwise from north; speeds in metres/second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

__all__ = [
    "Motion",
    "MotionSegment",
    "MotionState",
    "MotionScript",
    "WALKING_SPEED",
    "stationary_script",
    "walking_script",
    "driving_script",
    "mixed_mobility_script",
    "pacing_script",
    "stop_and_go_script",
    "drive_by_script",
    "segments_of",
    "script_from_segments",
]

#: Standard indoor walking speed used throughout the paper's experiments.
WALKING_SPEED = 1.4


class Motion(Enum):
    """Kind of motion during a segment."""

    STATIONARY = "stationary"
    WALK = "walk"
    DRIVE = "drive"

    @property
    def is_moving(self) -> bool:
        return self is not Motion.STATIONARY


@dataclass(frozen=True)
class MotionSegment:
    """A constant-behaviour piece of a trajectory.

    Parameters
    ----------
    kind:
        Whether the device is stationary, carried at walking pace, or
        driven in a vehicle.
    duration_s:
        Length of the segment in seconds.  Must be positive.
    speed_mps:
        Speed during the segment.  Ignored (forced to 0) when stationary.
    heading_deg:
        Direction of travel, degrees clockwise from north.
    turn_rate_dps:
        Constant rate of heading change during the segment (deg/s).
    outdoor:
        Whether GPS has a sky view during this segment.
    """

    kind: Motion
    duration_s: float
    speed_mps: float = 0.0
    heading_deg: float = 0.0
    turn_rate_dps: float = 0.0
    outdoor: bool = False

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(f"segment duration must be positive, got {self.duration_s}")
        if self.speed_mps < 0:
            raise ValueError(f"speed must be non-negative, got {self.speed_mps}")
        if self.kind is Motion.STATIONARY and self.speed_mps != 0.0:
            object.__setattr__(self, "speed_mps", 0.0)


@dataclass(frozen=True)
class MotionState:
    """Instantaneous ground-truth state of the device."""

    time_s: float
    x_m: float
    y_m: float
    speed_mps: float
    heading_deg: float
    moving: bool
    kind: Motion
    outdoor: bool

    @property
    def position(self) -> tuple[float, float]:
        return (self.x_m, self.y_m)


class MotionScript:
    """A piecewise-constant trajectory assembled from segments.

    Construction integrates each segment's start position once, so
    :meth:`state_at` bisects for the segment and advances from its
    start: O(log n) on straight segments, plus one 50 ms Euler step per
    elapsed step on turning ones.  :meth:`state_at` is the scalar spec;
    :meth:`segment_indices`, :meth:`positions` and :meth:`moving_flags`
    answer the same questions for a whole array of times at once and
    are bit-identical to it.

    >>> script = MotionScript([
    ...     MotionSegment(Motion.STATIONARY, 10.0),
    ...     MotionSegment(Motion.WALK, 10.0, speed_mps=1.4, heading_deg=90.0),
    ... ])
    >>> script.duration_s
    20.0
    >>> script.state_at(5.0).moving
    False
    >>> script.state_at(15.0).moving
    True
    """

    def __init__(
        self,
        segments: Sequence[MotionSegment],
        start_xy: tuple[float, float] = (0.0, 0.0),
    ) -> None:
        if not segments:
            raise ValueError("a MotionScript needs at least one segment")
        self._segments = list(segments)
        self._start_times: list[float] = []
        self._start_positions: list[tuple[float, float]] = []
        t = 0.0
        x, y = start_xy
        for seg in self._segments:
            self._start_times.append(t)
            self._start_positions.append((x, y))
            x, y = self._advance(seg, x, y, seg.duration_s)
            t += seg.duration_s
        self._duration = t
        self._end_position = (x, y)
        # Per-segment tables for the array methods (:meth:`positions`,
        # :meth:`moving_flags`): one ``math.sin``/``math.cos`` per
        # segment, exactly the factors :meth:`_advance` computes.
        self._starts = np.array(self._start_times)
        self._x0 = np.array([p[0] for p in self._start_positions])
        self._y0 = np.array([p[1] for p in self._start_positions])
        self._moving = np.array([seg.kind.is_moving for seg in self._segments])
        self._speed = np.array([seg.speed_mps for seg in self._segments])
        moves = self._moving & (self._speed != 0.0)
        straight = np.array([abs(seg.turn_rate_dps) < 1e-12
                             for seg in self._segments])
        self._straight = moves & straight
        self._turning = moves & ~straight
        thetas = [math.radians(seg.heading_deg) for seg in self._segments]
        self._sin = np.array([math.sin(theta) for theta in thetas])
        self._cos = np.array([math.cos(theta) for theta in thetas])

    @staticmethod
    def _advance(
        seg: MotionSegment, x: float, y: float, dt: float
    ) -> tuple[float, float]:
        """Integrate position over ``dt`` seconds of segment ``seg``."""
        if seg.kind is Motion.STATIONARY or seg.speed_mps == 0.0 or dt <= 0.0:
            return (x, y)
        if abs(seg.turn_rate_dps) < 1e-12:
            theta = math.radians(seg.heading_deg)
            # Heading measured clockwise from north: north = +y, east = +x.
            return (x + seg.speed_mps * dt * math.sin(theta),
                    y + seg.speed_mps * dt * math.cos(theta))
        # Constant-rate turn: Euler steps of at most 50 ms from the
        # segment start, whatever the caller's sampling rate.  The
        # stepping *defines* turning trajectories (positions() calls
        # back into it per sample), so swapping in the closed-form arc
        # would change every turning trace.
        steps = max(1, int(math.ceil(dt / 0.05)))
        h = dt / steps
        heading = seg.heading_deg
        for _ in range(steps):
            theta = math.radians(heading)
            x += seg.speed_mps * h * math.sin(theta)
            y += seg.speed_mps * h * math.cos(theta)
            heading += seg.turn_rate_dps * h
        return (x, y)

    @property
    def duration_s(self) -> float:
        return self._duration

    @property
    def segments(self) -> list[MotionSegment]:
        return list(self._segments)

    def segment_index_at(self, time_s: float) -> int:
        """Index of the segment active at ``time_s`` (clamped to range)."""
        if time_s <= 0:
            return 0
        if time_s >= self._duration:
            return len(self._segments) - 1
        lo, hi = 0, len(self._segments) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._start_times[mid] <= time_s:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def segment_indices(self, times: np.ndarray) -> np.ndarray:
        """:meth:`segment_index_at` for an array of times (same clamping)."""
        idx = np.searchsorted(self._starts, times, side="right") - 1
        return np.clip(idx, 0, len(self._segments) - 1)

    def positions(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(x_m, y_m)`` arrays equal to :meth:`state_at` at each time.

        Straight segments use :meth:`_advance`'s closed form with its
        operation order, so every element is bit-identical to the
        scalar path; turning segments call :meth:`_advance` per sample.
        """
        t = np.minimum(np.maximum(np.asarray(times, dtype=np.float64), 0.0),
                       self._duration)
        idx = self.segment_indices(t)
        dt = t - self._starts[idx]
        x0 = self._x0[idx]
        y0 = self._y0[idx]
        step = self._speed[idx] * dt
        advance = self._straight[idx] & (dt > 0.0)
        xs = np.where(advance, x0 + step * self._sin[idx], x0)
        ys = np.where(advance, y0 + step * self._cos[idx], y0)
        for i in np.flatnonzero(self._turning[idx]).tolist():
            k = int(idx[i])
            xs[i], ys[i] = self._advance(self._segments[k], float(x0[i]),
                                         float(y0[i]), float(dt[i]))
        return xs, ys

    def moving_flags(self, times: np.ndarray) -> np.ndarray:
        """:meth:`moving_at` for an array of times, as a bool array."""
        return self._moving[self.segment_indices(times)]

    def state_at(self, time_s: float) -> MotionState:
        """Ground-truth motion state at an arbitrary time (clamped)."""
        t = min(max(time_s, 0.0), self._duration)
        idx = self.segment_index_at(t)
        seg = self._segments[idx]
        dt = t - self._start_times[idx]
        x0, y0 = self._start_positions[idx]
        x, y = self._advance(seg, x0, y0, dt)
        heading = (seg.heading_deg + seg.turn_rate_dps * dt) % 360.0
        return MotionState(
            time_s=t,
            x_m=x,
            y_m=y,
            speed_mps=seg.speed_mps,
            heading_deg=heading,
            moving=seg.kind.is_moving,
            kind=seg.kind,
            outdoor=seg.outdoor,
        )

    def sample(self, rate_hz: float) -> list[MotionState]:
        """Sample the whole script at a fixed rate (inclusive of t=0)."""
        if rate_hz <= 0:
            raise ValueError("sample rate must be positive")
        n = int(self._duration * rate_hz)
        return [self.state_at(i / rate_hz) for i in range(n)]

    def moving_at(self, time_s: float) -> bool:
        return self.state_at(time_s).moving

    def moving_mask(self, slot_s: float) -> list[bool]:
        """Boolean per-slot movement mask (slot midpoints)."""
        n = int(round(self._duration / slot_s))
        return self.moving_flags((np.arange(n) + 0.5) * slot_s).tolist()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = ",".join(s.kind.value[:4] for s in self._segments)
        return f"MotionScript({len(self._segments)} segments: {kinds}, {self._duration:.1f}s)"


def stationary_script(duration_s: float, outdoor: bool = False) -> MotionScript:
    """Device resting on a desk for ``duration_s`` seconds."""
    return MotionScript([MotionSegment(Motion.STATIONARY, duration_s, outdoor=outdoor)])


def walking_script(
    duration_s: float,
    speed_mps: float = WALKING_SPEED,
    heading_deg: float = 0.0,
    outdoor: bool = False,
) -> MotionScript:
    """Device carried at indoor walking speed (the Human/Mobile setup)."""
    return MotionScript(
        [MotionSegment(Motion.WALK, duration_s, speed_mps, heading_deg, outdoor=outdoor)]
    )


def driving_script(
    duration_s: float,
    speed_mps: float,
    heading_deg: float = 0.0,
) -> MotionScript:
    """Device on the passenger seat of a car (the Vehicle/Mobile setup)."""
    return MotionScript(
        [MotionSegment(Motion.DRIVE, duration_s, speed_mps, heading_deg, outdoor=True)]
    )


def pacing_script(
    duration_s: float,
    leg_s: float = 5.0,
    speed_mps: float = WALKING_SPEED,
    outdoor: bool = False,
    heading_deg: float = 0.0,
    start_xy: tuple[float, float] = (0.0, 0.0),
) -> MotionScript:
    """Walking back and forth within the same area (out-and-back legs).

    The paper's Human/Mobile receiver was "moved at standard indoor
    walking speed on a wheeled chair" around the experiment area -- it
    does not march out of the building.  Legs alternate between
    ``heading_deg`` and its reverse, which keeps the walker within
    ``leg_s * speed`` metres of ``start_xy``.
    """
    if leg_s <= 0:
        raise ValueError("leg duration must be positive")
    back_deg = (heading_deg + 180.0) % 360.0
    segments: list[MotionSegment] = []
    remaining = duration_s
    leg = 0
    while remaining > 1e-9:
        seg_s = min(leg_s, remaining)
        heading = heading_deg if leg % 2 == 0 else back_deg
        segments.append(
            MotionSegment(Motion.WALK, seg_s, speed_mps, heading, outdoor=outdoor)
        )
        remaining -= seg_s
        leg += 1
    return MotionScript(segments, start_xy=start_xy)


def mixed_mobility_script(
    total_s: float = 20.0,
    mobile_first: bool = False,
    speed_mps: float = WALKING_SPEED,
    outdoor: bool = False,
    leg_s: float = 5.0,
) -> MotionScript:
    """The paper's mixed trace: half static, half mobile (Section 3.5).

    Each evaluation trace is 20 seconds long with 50% static and 50%
    mobile periods; half the traces start mobile.  The mobile half
    paces out-and-back like the Human/Mobile setup.
    """
    half = total_s / 2.0
    still = [MotionSegment(Motion.STATIONARY, half, outdoor=outdoor)]
    move = pacing_script(half, leg_s, speed_mps, outdoor).segments
    order = move + still if mobile_first else still + move
    return MotionScript(order)


def stop_and_go_script(
    n_cycles: int = 3,
    still_s: float = 20.0,
    move_s: float = 20.0,
    speed_mps: float = WALKING_SPEED,
    outdoor: bool = False,
) -> MotionScript:
    """Alternating stationary/walking cycles (the supermarket shopper)."""
    if n_cycles <= 0:
        raise ValueError("need at least one cycle")
    segments: list[MotionSegment] = []
    for i in range(n_cycles):
        segments.append(MotionSegment(Motion.STATIONARY, still_s, outdoor=outdoor))
        heading = (i * 90.0) % 360.0
        segments.append(
            MotionSegment(Motion.WALK, move_s, speed_mps, heading, outdoor=outdoor)
        )
    return MotionScript(segments)


def drive_by_script(
    passes: int = 2,
    pass_duration_s: float = 5.0,
    speed_mps: float = 12.0,
) -> MotionScript:
    """Car driving back and forth past a roadside sender (Figure 3-4).

    Alternates heading 0/180 so the receiver repeatedly approaches and
    recedes from the sender, exactly like the paper's vehicular traces.
    """
    if passes <= 0:
        raise ValueError("need at least one pass")
    segments = [
        MotionSegment(
            Motion.DRIVE,
            pass_duration_s,
            speed_mps,
            heading_deg=0.0 if i % 2 == 0 else 180.0,
            outdoor=True,
        )
        for i in range(passes)
    ]
    return MotionScript(segments)


def segments_of(script: MotionScript) -> tuple[tuple, ...]:
    """A script as plain values, one 6-tuple per segment:
    ``(kind, duration_s, speed_mps, heading_deg, turn_rate_dps, outdoor)``.

    The inverse of :func:`script_from_segments`.  Plain values JSON-
    round-trip exactly, so declarative workloads (``repro.api`` specs)
    and the on-disk trace store can address hand-built scripts by
    content instead of by object identity.
    """
    return tuple(
        (seg.kind.value, float(seg.duration_s), float(seg.speed_mps),
         float(seg.heading_deg), float(seg.turn_rate_dps), bool(seg.outdoor))
        for seg in script.segments
    )


def script_from_segments(segments) -> MotionScript:
    """Rebuild the :class:`MotionScript` a :func:`segments_of` tuple
    describes (lists are accepted, as produced by a JSON round-trip)."""
    return MotionScript([
        MotionSegment(kind=Motion(kind), duration_s=duration_s,
                      speed_mps=speed_mps, heading_deg=heading_deg,
                      turn_rate_dps=turn_rate_dps, outdoor=outdoor)
        for kind, duration_s, speed_mps, heading_deg, turn_rate_dps, outdoor
        in segments
    ])
