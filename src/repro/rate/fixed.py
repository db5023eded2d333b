"""Trivial controllers: fixed rate, and round-robin (the trace collector).

``FixedRate`` is the classic ablation baseline.  ``RoundRobin`` cycles
through all rates like the paper's trace-collection sender (Section 3.3:
"cycling through the 802.11a OFDM bit rates ... in round-robin order"),
used to validate trace statistics.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..channel.rates import N_RATES
from .base import BatchRateAdapter, CruiseView, RateController

__all__ = ["FixedRate", "RoundRobin"]


class FixedRate(RateController):
    """Always the same rate."""

    name = "Fixed"

    def __init__(self, rate_index: int, n_rates: int = N_RATES) -> None:
        super().__init__(n_rates)
        self._check_rate(rate_index)
        self._rate = rate_index
        self.name = f"Fixed-{rate_index}"

    def choose_rate(self, now_ms: float) -> int:
        return self._rate

    def on_result(self, rate_index: int, success: bool, now_ms: float) -> None:
        self._check_rate(rate_index)

    @classmethod
    def step_batch(cls, controllers: Sequence[RateController]) -> BatchRateAdapter:
        return _FixedBatchAdapter(controllers)


class _FixedCruise(CruiseView):
    """Fixed rate never reacts to a success: cruise is always sound."""

    def __init__(self, adapter: "_FixedBatchAdapter") -> None:
        self._adapter = adapter

    def eligible(self) -> np.ndarray:
        return np.ones(len(self._adapter.rates), dtype=bool)

    def current(self) -> np.ndarray:
        return self._adapter.rates

    def success_noop(self, now_ms: np.ndarray) -> np.ndarray:
        return np.ones(now_ms.shape, dtype=bool)

    def commit_result(self, rows, rates, successes, now_ms) -> None:
        pass


class _FixedBatchAdapter(BatchRateAdapter):
    """NumPy lockstep driver for B fixed-rate controllers (stateless)."""

    def __init__(self, controllers: Sequence[RateController]) -> None:
        super().__init__(controllers)
        self.rates = np.array([c._rate for c in controllers], dtype=np.int64)
        self.cruise = _FixedCruise(self)

    def choose_rate_batch(self, rows) -> np.ndarray:
        return self.rates.copy() if rows is None else self.rates[rows]

    def on_result_batch(self, rows, rates, successes, now_ms) -> None:
        pass

    def compact(self, keep) -> None:
        super().compact(keep)
        self.rates = self.rates[keep]


class RoundRobin(RateController):
    """Cycle through every rate, one packet each."""

    name = "RoundRobin"

    def __init__(self, n_rates: int = N_RATES) -> None:
        super().__init__(n_rates)
        self._next = 0

    def choose_rate(self, now_ms: float) -> int:
        rate = self._next
        self._next = (self._next + 1) % self.n_rates
        return rate

    def on_result(self, rate_index: int, success: bool, now_ms: float) -> None:
        self._check_rate(rate_index)

    def reset(self) -> None:
        self._next = 0
