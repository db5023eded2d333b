"""The jerk-based movement detector -- Section 2.2.1, implemented exactly.

For each accelerometer report ``t`` (one per 2 ms) with force vector
``(x_t, y_t, z_t)``:

1. Average the most recent five reports and the five before them, per
   axis: ``x_bar = mean(x_t..x_{t-4})``, ``x_bar' = mean(x_{t-5}..x_{t-9})``
   (same for y, z).
2. The *jerk* is ``J_t = (x_bar - x_bar')^2 + (y_bar - y_bar')^2 +
   (z_bar - z_bar')^2`` -- roughly the recent change in force.
3. The movement hint ``H_t`` is::

       H_t = 1   if H_{t-1} = 0 and J_t > 3
       H_t = 1   if H_{t-1} = 1 and J_{t'} > 3 for some t' in {t-50..t}
       H_t = 0   if H_{t-1} = 1 and J_{t'} <= 3 for all t' in {t-50..t}
       H_t = 0   if H_{t-1} = 0 and J_t <= 3
       H_0 = 0

The paper empirically fixed the threshold at 3 and the hold window at 50
reports (100 ms) for this accelerometer type, calibrated once, and
detects movement changes in under 100 ms.  Both constants are exposed as
parameters; defaults match the paper.

Two implementations are provided: an incremental :class:`MovementDetector`
(what a device would run) and a vectorised :func:`movement_hint_series`
for whole recorded traces; a property test asserts they agree.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .hints import MovementHint

__all__ = [
    "JERK_THRESHOLD",
    "HOLD_WINDOW_REPORTS",
    "AVG_WINDOW_REPORTS",
    "MovementDetector",
    "jerk_series",
    "movement_hint_series",
    "hint_edges",
]

#: The paper's empirically determined jerk threshold.
JERK_THRESHOLD = 3.0
#: Reports the hint holds after the last above-threshold jerk (50 * 2 ms).
HOLD_WINDOW_REPORTS = 50
#: Reports per averaging block (two blocks are differenced).
AVG_WINDOW_REPORTS = 5


class MovementDetector:
    """Incremental movement-hint service (Section 2.2.1).

    Feed accelerometer force reports with :meth:`update`; query the most
    recent hint with :attr:`moving` at any time, exactly like the paper's
    "movement hint service returns the most recently calculated value".

    >>> det = MovementDetector()
    >>> for _ in range(20):
    ...     _ = det.update(0.0, 0.0, 9.8)
    >>> det.moving
    False
    """

    def __init__(
        self,
        threshold: float = JERK_THRESHOLD,
        hold_window: int = HOLD_WINDOW_REPORTS,
        avg_window: int = AVG_WINDOW_REPORTS,
    ) -> None:
        if threshold <= 0:
            raise ValueError("jerk threshold must be positive")
        if hold_window < 1 or avg_window < 1:
            raise ValueError("windows must be at least one report")
        self._threshold = threshold
        self._hold_window = hold_window
        self._avg_window = avg_window
        # The last 2*avg_window force reports, newest last.
        self._history: deque[tuple[float, float, float]] = deque(
            maxlen=2 * avg_window
        )
        # Reports since the last above-threshold jerk (for the hold rule).
        self._reports_since_high = hold_window + 1
        self._moving = False
        self._report_count = 0
        self._last_jerk = 0.0

    @property
    def moving(self) -> bool:
        """The most recently calculated movement hint value."""
        return self._moving

    @property
    def last_jerk(self) -> float:
        return self._last_jerk

    @property
    def report_count(self) -> int:
        return self._report_count

    def update(self, fx: float, fy: float, fz: float) -> bool:
        """Consume one force report; return the updated hint value."""
        self._history.append((fx, fy, fz))
        self._report_count += 1
        if len(self._history) < 2 * self._avg_window:
            return self._moving

        rows = np.asarray(self._history, dtype=np.float64)
        older = rows[: self._avg_window].mean(axis=0)
        newer = rows[self._avg_window :].mean(axis=0)
        delta = newer - older
        jerk = float(np.dot(delta, delta))
        self._last_jerk = jerk

        if jerk > self._threshold:
            self._reports_since_high = 0
        else:
            self._reports_since_high += 1

        if self._moving:
            # Rule: stay 1 while any of the last `hold_window` jerks was high.
            self._moving = self._reports_since_high <= self._hold_window
        else:
            # Rule: turn 1 only on a fresh above-threshold jerk.
            self._moving = jerk > self._threshold
        return self._moving

    def hint(self, time_s: float) -> MovementHint:
        """Wrap the current value as a timestamped :class:`MovementHint`."""
        return MovementHint(time_s=time_s, moving=self._moving)

    def reset(self) -> None:
        self._history.clear()
        self._reports_since_high = self._hold_window + 1
        self._moving = False
        self._report_count = 0
        self._last_jerk = 0.0


def jerk_series(
    forces: np.ndarray, avg_window: int = AVG_WINDOW_REPORTS
) -> np.ndarray:
    """Vectorised jerk ``J_t`` for an (n, 3) force matrix.

    Output has length n; entries before the first full double window are 0
    (the detector cannot fire there either).
    """
    forces = np.asarray(forces, dtype=np.float64)
    if forces.ndim != 2 or forces.shape[1] != 3:
        raise ValueError("forces must be an (n, 3) array")
    n = len(forces)
    out = np.zeros(n, dtype=np.float64)
    if n < 2 * avg_window:
        return out
    # Block means via cumulative sums: mean over [i-w+1, i] per axis.
    csum = np.cumsum(forces, axis=0)
    csum = np.vstack([np.zeros((1, 3)), csum])
    w = avg_window
    block = (csum[w:] - csum[:-w]) / w          # block[i] = mean of rows i..i+w-1
    newer = block[w:]                            # rows t-w+1..t   for t >= 2w-1
    older = block[:-w]                           # rows t-2w+1..t-w
    delta = newer - older
    out[2 * w - 1 :] = np.einsum("ij,ij->i", delta, delta)
    return out


def movement_hint_series(
    forces: np.ndarray,
    threshold: float = JERK_THRESHOLD,
    hold_window: int = HOLD_WINDOW_REPORTS,
    avg_window: int = AVG_WINDOW_REPORTS,
) -> np.ndarray:
    """Hint value ``H_t`` per report for a whole force trace (vectorised).

    Matches :class:`MovementDetector` report-for-report.  Past the
    averaging warm-up (``2 * avg_window - 1`` reports, which the
    detector ignores) its hysteresis state is exactly "a high jerk
    within the last ``hold_window + 1`` reports": the hint turns on
    with a high jerk and stays on while one is that recent.
    """
    high = jerk_series(forces, avg_window) > threshold
    index = np.arange(len(high))
    high &= index >= 2 * avg_window - 1
    last_high = np.maximum.accumulate(
        np.where(high, index, -(hold_window + 1)))
    return index - last_high <= hold_window


@dataclass(frozen=True)
class HintEdge:
    """A transition of the movement hint."""

    report_index: int
    time_s: float
    moving: bool


def hint_edges(
    hints: Sequence[bool] | np.ndarray, report_period_s: float = 0.002
) -> list[HintEdge]:
    """Extract hint transitions (for detection-latency measurements)."""
    edges: list[HintEdge] = []
    prev = False
    for i, value in enumerate(np.asarray(hints, dtype=bool)):
        if value != prev:
            edges.append(HintEdge(i, i * report_period_s, bool(value)))
            prev = bool(value)
    return edges
