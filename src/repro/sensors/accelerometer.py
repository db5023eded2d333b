"""Synthetic 3-axis accelerometer (the paper's Sparkfun serial unit).

The paper's movement hint (Section 2.2.1) reads force values for x, y and
z "once every 2 ms" in *custom units* -- the algorithm deliberately avoids
unit conversion or per-device calibration.  What the jerk detector needs
from the signal is purely statistical:

* **stationary**: the windowed force deltas (the "jerk" ``J_t``) stay
  below the threshold of 3 essentially always (Figure 2-2 shows the value
  never exceeding 3 at rest);
* **moving**: ``J_t`` frequently exceeds 3 by a significant amount, at
  sub-100 ms granularity, whether carried, rolled on a chair, or driven.

This module synthesises a force stream with exactly those properties:
a constant gravity offset, white measurement noise, and -- while the
script says the device is moving -- a body-motion process made of a
gait/road oscillation plus an exponentially-correlated (Gauss-Markov)
sway term whose variance puts the jerk comfortably past the threshold.

The noise magnitudes below were calibrated once against the detector
(mirroring the paper's one-time calibration for this accelerometer type)
and are validated by the unit tests in ``tests/test_movement.py``.
"""

from __future__ import annotations

import math

import numpy as np

from .base import Sensor, SensorReading
from .trajectory import Motion, MotionScript

__all__ = ["Accelerometer", "ACCEL_RATE_HZ"]

#: Report rate of the paper's serial accelerometer: one report per 2 ms.
ACCEL_RATE_HZ = 500.0

# Calibrated noise model (custom units, as in the paper).
_GRAVITY = (0.20, -0.35, 9.00)   # arbitrary constant bias; cancels in the jerk
_STILL_NOISE = 0.18              # white noise at rest -> jerk stays << 3
_WALK_SWAY = 2.6                 # Gauss-Markov sway std while walking
_DRIVE_SWAY = 3.2                # road vibration is rougher than gait
_SWAY_TAU_S = 0.030              # sway correlation time ~ one gait impact
_GAIT_HZ = 1.9                   # step frequency while walking
_GAIT_AMPL = 1.6                 # vertical bob amplitude
_RAMP_S = 0.05                   # motion onset ramp: keeps detection < 100 ms


class Accelerometer(Sensor):
    """500 Hz three-axis force sensor driven by a motion script.

    >>> from repro.sensors.trajectory import walking_script
    >>> acc = Accelerometer(walking_script(1.0), seed=1)
    >>> len(acc.force_array())
    500
    """

    def __init__(self, script: MotionScript, seed: int = 0,
                 rate_hz: float = ACCEL_RATE_HZ) -> None:
        super().__init__(script, rate_hz, seed)
        self._forces = self._synthesise()
        self._cursor = 0

    # ------------------------------------------------------------------
    # Synthesis
    # ------------------------------------------------------------------
    def _synthesise(self) -> np.ndarray:
        """Precompute the full (n, 3) force array for the script."""
        n = int(self._script.duration_s * self._rate_hz)
        dt = self.period_s
        rng = self._rng
        out = np.empty((n, 3), dtype=np.float64)
        out[:] = _GRAVITY
        out += rng.normal(0.0, _STILL_NOISE, size=(n, 3))

        # Per-sample sway std from the shared script (0 while still).
        seg_sway = np.array([
            (_DRIVE_SWAY if seg.kind is Motion.DRIVE else _WALK_SWAY)
            if seg.kind.is_moving else 0.0
            for seg in self._script.segments
        ])
        sway_std = seg_sway[self._script.segment_indices(np.arange(n) * dt)]
        moving = sway_std > 0.0

        if not moving.any():
            return out

        # Motion onset/offset ramp so force grows smoothly but fast enough
        # that detection stays under the paper's 100 ms bound.
        ramp = _ramp_envelope(moving, int(round(_RAMP_S / dt)))

        # Gauss-Markov sway on each axis: x[k+1] = rho x[k] + sqrt(1-rho^2) w,
        # reset to 0 wherever the ramp is off.  Only ramped samples draw
        # (three normals each, drawn here as one block), and the gait
        # phase advances only on them.  Both recurrences run on Python
        # floats in the order the per-sample model defines.
        rho = math.exp(-dt / _SWAY_TAU_S)
        innov = math.sqrt(1.0 - rho * rho)
        gait_phase = rng.uniform(0.0, 2.0 * math.pi)
        active = np.flatnonzero(ramp > 0.0)
        draws = rng.normal(0.0, 1.0, size=(len(active), 3)).tolist()
        restart = np.ones(len(active), dtype=bool)
        restart[1:] = np.diff(active) != 1
        phase_step = 2.0 * math.pi * _GAIT_HZ * dt
        sin = math.sin
        sway = []
        gait = []
        sx = sy = sz = 0.0
        for fresh, (zx, zy, zz) in zip(restart.tolist(), draws):
            if fresh:
                sx = sy = sz = 0.0
            sx = rho * sx + innov * zx
            sy = rho * sy + innov * zy
            sz = rho * sz + innov * zz
            sway.append((sx, sy, sz))
            gait_phase += phase_step
            gait.append(sin(gait_phase))

        ramp_on = ramp[active]
        amp = sway_std[active] * ramp_on
        out[active] += amp[:, None] * np.array(sway)
        # Gait bob: dominant on the gravity axis, fainter laterally.
        bob = _GAIT_AMPL * ramp_on * np.array(gait)
        out[active, 2] += bob
        out[active, 0] += 0.3 * bob
        return out

    # ------------------------------------------------------------------
    # Sensor interface
    # ------------------------------------------------------------------
    def _read(self, time_s: float) -> SensorReading:
        idx = min(int(time_s * self._rate_hz), len(self._forces) - 1)
        fx, fy, fz = self._forces[idx]
        return SensorReading(time_s=time_s, values=(fx, fy, fz))

    def force_array(self) -> np.ndarray:
        """The full (n_reports, 3) force matrix -- 2 ms per row."""
        return self._forces.copy()

    def report_times(self) -> np.ndarray:
        """Report timestamps in seconds, one per force row."""
        return np.arange(len(self._forces)) / self._rate_hz


def _ramp_envelope(moving: np.ndarray, ramp_samples: int) -> np.ndarray:
    """Envelope in [0, 1]: 0 at rest, ramping to 1 over motion onsets.

    Each moving run restarts the ramp ``level = min(1, level + step)``
    from 0, so every run follows the same level sequence; it is
    accumulated once and indexed by each sample's offset into its run.
    """
    env = moving.astype(np.float64)
    if ramp_samples <= 1:
        return env
    step = 1.0 / ramp_samples
    levels = [min(1.0, step)]
    while levels[-1] < 1.0:
        levels.append(min(1.0, levels[-1] + step))
    index = np.arange(len(env))
    run_start = np.maximum.accumulate(np.where(moving, 0, index + 1))
    offset = np.minimum(index - run_start, len(levels) - 1)
    return np.where(moving, np.array(levels)[np.maximum(offset, 0)], 0.0)
