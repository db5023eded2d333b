"""The hint-aware wireless architecture (Section 2.1, Figure 2-1).

Sensors on the device feed hint *services* (movement, heading, speed);
services publish hints onto a :class:`HintBus`; protocols at any layer of
the stack subscribe to the bus.  Remote hints arriving via the Hint
Protocol are published onto the same bus, so a protocol cannot tell (and
need not care) whether a hint is local or from a neighbour.

:class:`HintAwareNode` bundles the whole local pipeline for a device
following a motion script: synthetic sensors -> detectors -> bus.  The
experiment drivers use it to produce the hint streams that feed the
hint-aware protocols.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from ..sensors.accelerometer import ACCEL_RATE_HZ, Accelerometer
from ..sensors.compass import Compass
from ..sensors.gps import Gps
from ..sensors.gyroscope import Gyroscope
from ..sensors.trajectory import MotionScript
from .heading import HeadingEstimator
from .hints import HeadingHint, Hint, HintType, MovementHint, SpeedHint
from .movement import MovementDetector, movement_hint_series
from .speed import GpsSpeedSource, SpeedEstimator

__all__ = ["HintBus", "HintAwareNode", "HintSeries"]


class HintBus:
    """Publish/subscribe fabric between hint services and protocols.

    Subscribers register per hint type; publishing is synchronous and
    ordered.  The bus also remembers the latest hint of each type so
    late subscribers (or pull-style protocols) can query current state,
    matching the paper's "the movement hint service returns the most
    recently calculated hint value".
    """

    def __init__(self) -> None:
        self._subscribers: dict[HintType, list[Callable[[Hint], None]]] = defaultdict(list)
        self._latest: dict[HintType, Hint] = {}

    def subscribe(self, hint_type: HintType, callback: Callable[[Hint], None]) -> None:
        self._subscribers[hint_type].append(callback)

    def publish(self, hint: Hint) -> None:
        self._latest[hint.hint_type] = hint
        for callback in self._subscribers[hint.hint_type]:
            callback(hint)

    def latest(self, hint_type: HintType) -> Hint | None:
        return self._latest.get(hint_type)

    @property
    def known_types(self) -> set[HintType]:
        return set(self._latest)


@dataclass(frozen=True)
class HintSeries:
    """A precomputed timestamped hint stream (for trace-driven sims).

    ``times_s`` is sorted ascending; ``values`` is parallel.  ``value_at``
    returns the most recent value at or before ``t`` (step-function
    semantics, i.e. "most recently calculated hint").
    """

    times_s: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.times_s) != len(self.values):
            raise ValueError("times and values must be parallel")
        if len(self.times_s) > 1 and np.any(np.diff(self.times_s) < 0):
            raise ValueError("times must be sorted ascending")

    def value_at(self, time_s: float, default=False):
        idx = int(np.searchsorted(self.times_s, time_s, side="right")) - 1
        if idx < 0:
            return default
        return self.values[idx]

    def edges(self) -> list[tuple[float, object]]:
        """(time, new_value) at each change of value."""
        out: list[tuple[float, object]] = []
        prev = None
        for t, v in zip(self.times_s, self.values):
            if prev is None or v != prev:
                out.append((float(t), v))
                prev = v
        return out

    def __len__(self) -> int:
        return len(self.times_s)


class HintAwareNode:
    """A device running the full local hint pipeline of Figure 2-1.

    Construct with a motion script; the node instantiates synthetic
    sensors, runs the detectors, and can either stream hints onto a
    :class:`HintBus` or precompute :class:`HintSeries` for trace-driven
    simulation.
    """

    def __init__(self, script: MotionScript, seed: int = 0,
                 magnetic_disturbance: bool = False) -> None:
        self._script = script
        self._seed = seed
        self.bus = HintBus()
        self.accelerometer = Accelerometer(script, seed=seed)
        self.gps = Gps(script, seed=seed + 1)
        self.compass = Compass(script, seed=seed + 2,
                               magnetic_disturbance=magnetic_disturbance)
        self.gyroscope = Gyroscope(script, seed=seed + 3)
        self.movement_detector = MovementDetector()
        self.heading_estimator = HeadingEstimator()
        self.speed_estimator = SpeedEstimator()
        self.gps_source = GpsSpeedSource()

    @property
    def script(self) -> MotionScript:
        return self._script

    def movement_hint_series(self) -> HintSeries:
        """Run the jerk detector over the accelerometer trace.

        Returns a per-report (2 ms) boolean series -- the exact hint the
        device would publish at each instant.
        """
        forces = self.accelerometer.force_array()
        hints = movement_hint_series(forces)
        times = self.accelerometer.report_times()
        return HintSeries(times_s=times, values=hints)

    def heading_hint_series(self, rate_hz: float = 10.0) -> HintSeries:
        """Fused compass+gyro heading sampled at ``rate_hz``."""
        estimator = HeadingEstimator()
        compass_readings = self.compass.readings()
        gyro_readings = self.gyroscope.readings()
        # Merge the two streams in time order, then sample.
        events = sorted(
            [(r.time_s, "gyro", r.values[0]) for r in gyro_readings]
            + [(r.time_s, "compass", r.values[0]) for r in compass_readings]
        )
        sample_times = np.arange(0.0, self._script.duration_s, 1.0 / rate_hz)
        out = np.zeros(len(sample_times))
        cursor = 0
        for i, t in enumerate(sample_times):
            while cursor < len(events) and events[cursor][0] <= t:
                _, kind, value = events[cursor]
                if kind == "gyro":
                    estimator.update_gyro(value, events[cursor][0])
                else:
                    estimator.update_compass(value, events[cursor][0])
                cursor += 1
            out[i] = estimator.heading_deg
        return HintSeries(times_s=sample_times, values=out)

    def run_live(self, duration_s: float | None = None) -> None:
        """Stream the accelerometer through the detector onto the bus.

        Publishes a :class:`MovementHint` on every hint transition (a real
        device would publish on change, not per report).
        """
        limit = duration_s if duration_s is not None else self._script.duration_s
        prev = self.movement_detector.moving
        for reading in self.accelerometer.stream():
            if reading.time_s > limit:
                break
            fx, fy, fz = reading.values
            moving = self.movement_detector.update(fx, fy, fz)
            self.speed_estimator.update(fx, fy, fz)
            if moving != prev:
                self.bus.publish(MovementHint(time_s=reading.time_s, moving=moving))
                prev = moving

    def ground_truth_series(self, rate_hz: float = ACCEL_RATE_HZ) -> HintSeries:
        """Oracle movement series straight from the script (for comparison)."""
        n = int(self._script.duration_s * rate_hz)
        times = np.arange(n) / rate_hz
        values = self._script.moving_flags(times)
        return HintSeries(times_s=times, values=values)
