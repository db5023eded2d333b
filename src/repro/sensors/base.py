"""Common sensor abstractions for the synthetic sensor substrate.

The paper's hint extraction (Chapter 2) reads commodity sensors: a 500 Hz
serial accelerometer, GPS, a digital compass, and a gyroscope.  This repo
has no hardware, so each sensor is simulated: it samples the shared
:class:`~repro.sensors.trajectory.MotionScript` ground truth and corrupts
it with a realistic noise model, so the hint algorithms see the same
kind of signal they would read from hardware.

Every sensor is deterministic given its seed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .trajectory import MotionScript

__all__ = ["SensorReading", "Sensor"]


@dataclass(frozen=True)
class SensorReading:
    """One timestamped sensor report.

    ``values`` is sensor-specific: 3 force axes for the accelerometer,
    (lat-like y, lon-like x, speed, heading, fix) for GPS, a single
    heading for the compass, and so on.  ``valid`` is False when the
    sensor cannot produce a reading (e.g. GPS indoors).
    """

    time_s: float
    values: tuple[float, ...]
    valid: bool = True


class Sensor(ABC):
    """A simulated sensor attached to a motion script.

    Subclasses implement :meth:`_read` for a single instant; the base
    class provides uniform-rate streaming over the whole script.
    """

    def __init__(self, script: MotionScript, rate_hz: float, seed: int = 0) -> None:
        if rate_hz <= 0:
            raise ValueError("sensor rate must be positive")
        self._script = script
        self._rate_hz = float(rate_hz)
        self._rng = np.random.default_rng(seed)

    @property
    def rate_hz(self) -> float:
        return self._rate_hz

    @property
    def script(self) -> MotionScript:
        return self._script

    @property
    def period_s(self) -> float:
        return 1.0 / self._rate_hz

    @abstractmethod
    def _read(self, time_s: float) -> SensorReading:
        """Produce the reading for one instant (may draw from the RNG)."""

    def stream(self) -> Iterator[SensorReading]:
        """Yield readings at the sensor's rate across the whole script."""
        n = int(self._script.duration_s * self._rate_hz)
        for i in range(n):
            yield self._read(i / self._rate_hz)

    def readings(self) -> list[SensorReading]:
        """All readings for the script as a list."""
        return list(self.stream())
