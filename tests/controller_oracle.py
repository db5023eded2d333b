"""Scalar oracle for SampleRate, CHARM/RBAR's SNR mapping and the hint switch.

These are the controller bodies the scalar engines ran before the
controllers were rewritten for speed: SampleRate on NumPy ``int64``
state arrays with one dataclass record per window entry, an airtime
call per ``on_result`` and a two-method best-rate scan; the SNR->rate
mapping as one logistic ``per`` call per rate per decision; and the
hint-aware switch resolving its active side through a property on
every call.  They are kept here, outside ``src/``, as the executable
spec the rewritten controllers must match decision for decision and
state for state (``tests/test_controller_equivalence.py``) and as the
baseline of the controller benchmark
(``benchmarks/test_bench_controllers.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.channel.ber import DEFAULT_PER_MODEL
from repro.channel.rates import N_RATES
from repro.core.hints import Hint, MovementHint
from repro.mac import timing
from repro.rate.base import RateController
from repro.rate.rapidsample import RapidSample

__all__ = ["SampleRate", "CHARM", "HintAware", "snr_to_rate"]


def snr_to_rate(snr_db, per_model=None, max_per=0.1, payload_bytes=1000,
                margin_db=0.0, threshold_bias_db=None) -> int:
    """Fastest rate with PER <= ``max_per``: one ``per`` call per rate."""
    model = per_model if per_model is not None else DEFAULT_PER_MODEL
    best = 0
    for r in range(N_RATES):
        bias = 0.0 if threshold_bias_db is None else float(threshold_bias_db[r])
        effective = snr_db - margin_db - bias
        if model.per(effective, r, payload_bytes) <= max_per:
            best = r
    return best


@dataclass
class _TxRecord:
    time_ms: float
    rate: int
    success: bool
    airtime_us: float


class SampleRate(RateController):
    """Minimum-average-transmission-time selection on array state."""

    name = "SampleRate"

    def __init__(self, n_rates=N_RATES, window_s=10.0, sample_every=10,
                 payload_bytes=1000, seed=0) -> None:
        super().__init__(n_rates)
        if window_s <= 0:
            raise ValueError("window must be positive")
        if sample_every < 2:
            raise ValueError("sample_every must be at least 2")
        self._window_ms = window_s * 1000.0
        self._sample_every = sample_every
        self._payload = payload_bytes
        self._rng = np.random.default_rng(seed)
        self._lossless_us = np.array(
            [timing.exchange_airtime_us(r, payload_bytes) for r in range(n_rates)]
        )
        self.reset()

    def reset(self) -> None:
        self._records: deque[_TxRecord] = deque()
        self._tx_time_us = np.zeros(self.n_rates)
        self._successes = np.zeros(self.n_rates, dtype=np.int64)
        self._failures = np.zeros(self.n_rates, dtype=np.int64)
        self._consecutive_failures = np.zeros(self.n_rates, dtype=np.int64)
        self._packet_count = 0
        self._current = self.n_rates - 1
        self._sampling_rate: int | None = None

    @property
    def current_rate(self) -> int:
        return self._current

    def _expire(self, now_ms: float) -> None:
        horizon = now_ms - self._window_ms
        while self._records and self._records[0].time_ms < horizon:
            rec = self._records.popleft()
            self._tx_time_us[rec.rate] -= rec.airtime_us
            if rec.success:
                self._successes[rec.rate] -= 1
            else:
                self._failures[rec.rate] -= 1
            if self._successes[rec.rate] + self._failures[rec.rate] == 0:
                self._consecutive_failures[rec.rate] = 0

    def _average_tx_time_us(self, rate: int) -> float:
        succ = self._successes[rate]
        if succ <= 0:
            return np.inf
        return self._tx_time_us[rate] / succ

    def _best_rate(self) -> int:
        best, best_time = 0, np.inf
        for r in range(self.n_rates):
            if self._consecutive_failures[r] >= 4 and self._successes[r] == 0:
                continue
            attempts = self._successes[r] + self._failures[r]
            score = (
                self._average_tx_time_us(r) if attempts > 0 else self._lossless_us[r]
            )
            if score < best_time:
                best, best_time = r, score
        return best

    def _pick_sample_rate(self, current_best: int) -> int | None:
        best_avg = self._average_tx_time_us(current_best)
        if not np.isfinite(best_avg):
            best_avg = self._lossless_us[current_best]
        candidates = [
            r
            for r in range(self.n_rates)
            if r != current_best
            and self._consecutive_failures[r] < 4
            and self._lossless_us[r] < best_avg
        ]
        if not candidates:
            return None
        return int(self._rng.choice(candidates))

    def choose_rate(self, now_ms: float) -> int:
        self._expire(now_ms)
        self._packet_count += 1
        best = self._best_rate()
        self._sampling_rate = None
        if self._packet_count % self._sample_every == 0:
            sample = self._pick_sample_rate(best)
            if sample is not None:
                self._sampling_rate = sample
                self._current = sample
                return sample
        self._current = best
        return best

    def on_result(self, rate_index: int, success: bool, now_ms: float) -> None:
        self._check_rate(rate_index)
        airtime = (
            timing.exchange_airtime_us(rate_index, self._payload)
            if success
            else timing.failed_exchange_us(rate_index, self._payload)
        )
        self._records.append(_TxRecord(now_ms, rate_index, success, airtime))
        self._tx_time_us[rate_index] += airtime
        if success:
            self._successes[rate_index] += 1
            self._consecutive_failures[rate_index] = 0
        else:
            self._failures[rate_index] += 1
            self._consecutive_failures[rate_index] += 1


class CHARM(RateController):
    """Windowed-average SNR with an adaptive protection margin, deciding
    through the per-rate ``per`` loop of :func:`snr_to_rate`."""

    name = "CHARM"

    def __init__(self, n_rates=N_RATES, window_ms=1000.0, per_model=None,
                 max_per=0.1, payload_bytes=1000, margin_step_db=0.25,
                 max_margin_db=6.0, training_error_db=1.5,
                 training_seed=0) -> None:
        super().__init__(n_rates)
        if window_ms <= 0:
            raise ValueError("window must be positive")
        self._window_ms = window_ms
        self._model = per_model if per_model is not None else DEFAULT_PER_MODEL
        self._max_per = max_per
        self._payload = payload_bytes
        self._margin_step = margin_step_db
        self._max_margin = max_margin_db
        rng = np.random.default_rng(training_seed)
        if training_error_db > 0:
            self._bias = np.asarray(
                rng.normal(0.0, training_error_db, size=N_RATES)
            )
        else:
            self._bias = np.zeros(N_RATES)
        self._reciprocity_offset_db = float(rng.normal(0.0, 1.5))
        self.reset()

    def reset(self) -> None:
        self._samples: deque[tuple[float, float]] = deque()
        self._snr_sum = 0.0
        self._margin_db = 0.0

    def _expire(self, now_ms: float) -> None:
        horizon = now_ms - self._window_ms
        while self._samples and self._samples[0][0] < horizon:
            _, snr = self._samples.popleft()
            self._snr_sum -= snr

    def observe_snr(self, snr_db: float, now_ms: float) -> None:
        self._expire(now_ms)
        observed = snr_db + self._reciprocity_offset_db
        self._samples.append((now_ms, observed))
        self._snr_sum += observed

    @property
    def average_snr_db(self) -> float | None:
        if not self._samples:
            return None
        return self._snr_sum / len(self._samples)

    def choose_rate(self, now_ms: float) -> int:
        self._expire(now_ms)
        avg = self.average_snr_db
        if avg is None:
            return 0
        rate = snr_to_rate(
            avg, self._model, self._max_per, self._payload,
            margin_db=self._margin_db, threshold_bias_db=self._bias,
        )
        return min(rate, self.n_rates - 1)

    def on_result(self, rate_index: int, success: bool, now_ms: float) -> None:
        self._check_rate(rate_index)
        if success:
            self._margin_db = max(0.0, self._margin_db - self._margin_step / 10.0)
        else:
            self._margin_db = min(self._max_margin, self._margin_db + self._margin_step)


class HintAware(RateController):
    """The hint-aware switch resolving its active side on every call.

    Defaults to RapidSample plus the oracle :class:`SampleRate`.
    """

    name = "HintAware"

    def __init__(self, n_rates=N_RATES, mobile=None, static=None,
                 reset_on_switch=True, initially_moving=False) -> None:
        super().__init__(n_rates)
        self._mobile = mobile if mobile is not None else RapidSample(n_rates)
        self._static = static if static is not None else SampleRate(n_rates)
        self._reset_on_switch = reset_on_switch
        self._moving = initially_moving
        self.switch_count = 0

    @property
    def moving(self) -> bool:
        return self._moving

    @property
    def active(self) -> RateController:
        return self._mobile if self._moving else self._static

    def on_hint(self, hint: Hint) -> None:
        if not isinstance(hint, MovementHint):
            return
        if hint.moving == self._moving:
            return
        previous = self.active
        self._moving = hint.moving
        self.switch_count += 1
        if self._moving and self._reset_on_switch:
            self._mobile.reset()
        seed_rate = getattr(previous, "current_rate", None)
        if seed_rate is not None and hasattr(self.active, "_current"):
            self.active._current = int(seed_rate)

    def choose_rate(self, now_ms: float) -> int:
        return self.active.choose_rate(now_ms)

    def on_result(self, rate_index: int, success: bool, now_ms: float) -> None:
        self._check_rate(rate_index)
        self.active.on_result(rate_index, success, now_ms)

    def observe_snr(self, snr_db: float, now_ms: float) -> None:
        self.active.observe_snr(snr_db, now_ms)

    def reset(self) -> None:
        self._mobile.reset()
        self._static.reset()
        self._moving = False
        self.switch_count = 0
