"""Figure 2-2: jerk over time for stationary -> moving -> stationary.

The paper's plot: jerk never exceeds 3 while the device rests, and
frequently exceeds it (by a significant amount) during the interval of
movement; the derived hint flags the movement interval.
"""

from __future__ import annotations

import numpy as np

from ..core.movement import JERK_THRESHOLD, jerk_series, movement_hint_series
from ..sensors import Accelerometer, Motion, MotionScript, MotionSegment
from .common import print_table

__all__ = ["run", "main"]


def run(seed: int = 0, still_s: float = 60.0, move_s: float = 40.0) -> dict:
    """Reproduce the Figure 2-2 experiment.

    Returns the jerk series (per 2 ms report), the derived hint series,
    and the summary statistics the figure demonstrates.
    """
    script = MotionScript([
        MotionSegment(Motion.STATIONARY, still_s),
        MotionSegment(Motion.WALK, move_s, speed_mps=1.4),
        MotionSegment(Motion.STATIONARY, still_s),
    ])
    acc = Accelerometer(script, seed=seed)
    forces = acc.force_array()
    jerks = jerk_series(forces)
    hints = movement_hint_series(forces)
    times = acc.report_times()

    still_mask = ~script.moving_flags(times)
    move_mask = ~still_mask
    # Exclude transition edges (the detector's own 100 ms hold).
    guard = int(0.2 / 0.002)
    onset = int(still_s / 0.002)
    offset = int((still_s + move_s) / 0.002)
    interior_still = still_mask.copy()
    interior_still[onset - guard:onset + guard] = False
    interior_still[offset - guard:offset + guard] = False

    truth = move_mask
    return {
        "times_s": times,
        "jerk": jerks,
        "hint": hints,
        "threshold": JERK_THRESHOLD,
        "max_jerk_stationary": float(jerks[interior_still].max()),
        "median_jerk_moving": float(np.median(jerks[move_mask][guard:])),
        "fraction_moving_jerk_above_3": float(
            (jerks[move_mask] > JERK_THRESHOLD).mean()
        ),
        "hint_accuracy": float((hints == truth).mean()),
        "detection_latency_ms": float(
            (np.argmax(hints[onset:]) * 2.0) if hints[onset:].any() else np.inf
        ),
    }


def main(seed: int = 0) -> dict:
    result = run(seed)
    print_table("Figure 2-2: jerk and movement hint", {
        "max jerk while still": result["max_jerk_stationary"],
        "median jerk while moving": result["median_jerk_moving"],
        "P(jerk>3 | moving)": result["fraction_moving_jerk_above_3"],
        "hint accuracy": result["hint_accuracy"],
        "detection latency (ms)": result["detection_latency_ms"],
    })
    return result


if __name__ == "__main__":
    main()
