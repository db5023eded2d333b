"""SampleRate (Bicket 2005) -- the static-tuned baseline (Section 6.2).

SampleRate "picks the bit rate that minimizes the average packet
transmission time over a ten-second window" and "periodically samples
higher bit rates to adapt to changing channel conditions".  This is the
algorithm of John Bicket's MS thesis, implemented with its key rules:

* per-rate statistics (successes, failures, cumulative transmission
  time including retries and backoff) over a sliding ``window_s`` window
  (default 10 s);
* current rate = the rate with the lowest *average per-packet
  transmission time* among rates with data; unseen rates are scored by
  their lossless transmission time (optimistic);
* every ``sample_every`` packets (Bicket: 10), transmit one packet at a
  randomly chosen candidate rate whose lossless time beats the current
  best average and which has not failed four consecutive times;
* rates with four successive failures are excluded until the window
  forgets them.

The long window is exactly why SampleRate excels on stable channels and
lags on mobile ones (Figures 3-6/3-7): stale loss history keeps it at
yesterday's rate.  The paper post-processes to pick the best window per
trace; :class:`repro.experiments.fig3_5` mirrors that bias.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..channel.rates import N_RATES
from ..mac import timing
from .base import BatchRateAdapter, LoopBatchAdapter, RateController

__all__ = ["SampleRate", "SampleRateSoA"]


@dataclass
class _TxRecord:
    time_ms: float
    rate: int
    success: bool
    airtime_us: float


class SampleRate(RateController):
    """Minimum-average-transmission-time rate selection."""

    name = "SampleRate"

    def __init__(
        self,
        n_rates: int = N_RATES,
        window_s: float = 10.0,
        sample_every: int = 10,
        payload_bytes: int = 1000,
        seed: int = 0,
    ) -> None:
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
        self._current = self.n_rates - 1   # optimistic start, like the driver
        self._sampling_rate: int | None = None

    # ------------------------------------------------------------------
    @property
    def current_rate(self) -> int:
        """Most recent operating rate (for hint-aware seed handoff)."""
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
            # Once the window has forgotten a rate entirely, its
            # four-successive-failures quarantine lapses too; otherwise a
            # rate that crashed once would be banned forever.
            if self._successes[rec.rate] + self._failures[rec.rate] == 0:
                self._consecutive_failures[rec.rate] = 0

    def _average_tx_time_us(self, rate: int) -> float:
        """Average airtime per *delivered* packet at this rate."""
        succ = self._successes[rate]
        if succ <= 0:
            return np.inf
        return self._tx_time_us[rate] / succ

    def _best_rate(self) -> int:
        """Rate with minimum average tx time; unseen rates score lossless.

        The four-successive-failures quarantine only bars *unproven*
        rates (no success in the window): a rate with thousands of
        successes is not exiled by one unlucky burst -- its average
        transmission time already absorbs those failures.
        """
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
        """A candidate that could beat the current best, at random."""
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

    # ------------------------------------------------------------------
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

    @classmethod
    def step_batch(cls, controllers: Sequence[RateController]) -> BatchRateAdapter:
        if len({c.n_rates for c in controllers}) > 1:
            return LoopBatchAdapter(controllers)
        return _SampleRateBatchAdapter(controllers)


class SampleRateSoA:
    """Structure-of-arrays form of B SampleRate instances.

    Holds the per-rate window statistics (``tx_time``/``successes``/
    ``failures``/``consecutive_failures``) as ``(B, n_rates)`` arrays
    and the sliding-window records as per-row segments of shared
    ``(B, cap)`` ring arrays, and applies :meth:`SampleRate.choose_rate`
    / :meth:`SampleRate.on_result` to many links at once:

    * window expiry is a vectorized head-record check, with the rare
      row that actually expires drained by the exact scalar loop
      (records pop in FIFO order, so every float update replays the
      instance's operation order bit for bit);
    * the best-rate argmin (minimum average transmission time, unseen
      rates scored lossless, the four-successive-failures quarantine)
      is one ``(B, R)`` array program -- ``np.argmin`` keeps the first
      minimum, matching the instance loop's strict-less update;
    * the every-``sample_every``-packets sampling decision stays
      per-instance *only* on the rows it fires for (~1 in 10), driving
      each instance's own ``Generator`` so RNG streams are consumed
      exactly as in the single-link engines.

    Initialised *from* the wrapped instances (they may carry state) and
    written back on :meth:`retire_rows`.  Shared by the SampleRate
    adapter and the hint-aware adapter's static side.
    """

    def __init__(self, controllers: Sequence["SampleRate"]) -> None:
        n = len(controllers)
        n_rates = controllers[0].n_rates if n else N_RATES
        self.n_rates = n_rates
        self.tx = np.array([c._tx_time_us for c in controllers],
                           dtype=np.float64).reshape(n, n_rates)
        self.succ = np.array([c._successes for c in controllers],
                             dtype=np.int64).reshape(n, n_rates)
        self.fail = np.array([c._failures for c in controllers],
                             dtype=np.int64).reshape(n, n_rates)
        self.consec = np.array(
            [c._consecutive_failures for c in controllers],
            dtype=np.int64).reshape(n, n_rates)
        self.lossless = np.array([c._lossless_us for c in controllers],
                                 dtype=np.float64).reshape(n, n_rates)
        self.ok_air = np.array(
            [[timing.exchange_airtime_us(r, c._payload)
              for r in range(n_rates)] for c in controllers],
            dtype=np.float64).reshape(n, n_rates)
        self.fail_air = np.array(
            [[timing.failed_exchange_us(r, c._payload)
              for r in range(n_rates)] for c in controllers],
            dtype=np.float64).reshape(n, n_rates)
        self.window_ms = np.array([c._window_ms for c in controllers])
        self.sample_every = np.array([c._sample_every for c in controllers],
                                     dtype=np.int64)
        self.packet_count = np.array([c._packet_count for c in controllers],
                                     dtype=np.int64)
        self.current = np.array([c._current for c in controllers],
                                dtype=np.int64)
        self.sampling_rate = np.array(
            [-1 if c._sampling_rate is None else c._sampling_rate
             for c in controllers], dtype=np.int64)
        #: The instances' own generators, consumed in place (no copy, no
        #: write-back): sampling draws stay on the exact scalar streams.
        self.rngs = [c._rng for c in controllers]
        cap = 64
        need = max((len(c._records) for c in controllers), default=0)
        while cap < need:
            cap *= 2
        self._cap = cap
        self.rec_time = np.zeros((n, cap))
        self.rec_rate = np.zeros((n, cap), dtype=np.int64)
        self.rec_succ = np.zeros((n, cap), dtype=bool)
        self.rec_air = np.zeros((n, cap))
        self.start = np.zeros(n, dtype=np.int64)
        self.end = np.zeros(n, dtype=np.int64)
        for i, c in enumerate(controllers):
            for j, rec in enumerate(c._records):
                self.rec_time[i, j] = rec.time_ms
                self.rec_rate[i, j] = rec.rate
                self.rec_succ[i, j] = rec.success
                self.rec_air[i, j] = rec.airtime_us
            self.end[i] = len(c._records)
        self._rebuild_views()

    def _rebuild_views(self) -> None:
        n = len(self.current)
        self.base = np.arange(n, dtype=np.int64) * self.n_rates
        self._tx_flat = self.tx.reshape(-1)
        self._succ_flat = self.succ.reshape(-1)
        self._fail_flat = self.fail.reshape(-1)
        self._consec_flat = self.consec.reshape(-1)

    # ------------------------------------------------------------------
    def _expire_rows(self, sel: np.ndarray, now_ms: np.ndarray) -> None:
        """:meth:`SampleRate._expire` -- vectorized head check, exact
        scalar drain on the rows whose head record actually expired."""
        starts = self.start[sel]
        horizon = now_ms - self.window_ms[sel]
        head_t = self.rec_time[sel, np.minimum(starts, self._cap - 1)]
        pending = (starts < self.end[sel]) & (head_t < horizon)
        if not pending.any():
            return
        for j in np.flatnonzero(pending):
            r = int(sel[j])
            h = horizon[j]
            s = int(self.start[r])
            e = int(self.end[r])
            times = self.rec_time[r]
            while s < e and times[s] < h:
                rate = int(self.rec_rate[r, s])
                self.tx[r, rate] -= self.rec_air[r, s]
                if self.rec_succ[r, s]:
                    self.succ[r, rate] -= 1
                else:
                    self.fail[r, rate] -= 1
                if self.succ[r, rate] + self.fail[r, rate] == 0:
                    self.consec[r, rate] = 0
                s += 1
            self.start[r] = s

    def _best_rates(self, sel: np.ndarray) -> np.ndarray:
        """:meth:`SampleRate._best_rate`, vectorized over the rows.

        ``np.argmin`` returns the first occurrence of the minimum,
        matching the instance loop's ``score < best_time`` strict-less
        update (and its ``best = 0`` default when every score is inf).
        """
        succ = self.succ[sel]
        attempts = succ + self.fail[sel]
        avg = np.where(succ > 0, self.tx[sel] / np.maximum(succ, 1), np.inf)
        score = np.where(attempts > 0, avg, self.lossless[sel])
        score = np.where((self.consec[sel] >= 4) & (succ == 0),
                         np.inf, score)
        return np.argmin(score, axis=1)

    def _sample_row(self, r: int, best: int) -> int | None:
        """:meth:`SampleRate._pick_sample_rate` for one row, exactly."""
        succ = self.succ[r, best]
        best_avg = self.tx[r, best] / succ if succ > 0 else np.inf
        if not np.isfinite(best_avg):
            best_avg = self.lossless[r, best]
        candidates = [
            j for j in range(self.n_rates)
            if j != best and self.consec[r, j] < 4
            and self.lossless[r, j] < best_avg
        ]
        if not candidates:
            return None
        return int(self.rngs[r].choice(candidates))

    def choose(self, rows, now_ms: np.ndarray) -> np.ndarray:
        """:meth:`SampleRate.choose_rate` for the selected rows."""
        sel = np.arange(len(self.current), dtype=np.int64) \
            if rows is None else rows
        self._expire_rows(sel, now_ms)
        self.packet_count[sel] += 1
        best = self._best_rates(sel)
        self.sampling_rate[sel] = -1
        due = (self.packet_count[sel] % self.sample_every[sel]) == 0
        if due.any():
            for j in np.flatnonzero(due):
                r = int(sel[j])
                sample = self._sample_row(r, int(best[j]))
                if sample is not None:
                    self.sampling_rate[r] = sample
                    best[j] = sample
        self.current[sel] = best
        return best

    def on_result(self, rows, rates: np.ndarray, successes: np.ndarray,
                  now_ms: np.ndarray) -> None:
        """:meth:`SampleRate.on_result` for the selected rows (each row
        at most once per call, as the batch engines guarantee)."""
        sel = np.arange(len(self.current), dtype=np.int64) \
            if rows is None else rows
        if not len(sel):
            return
        if (self.end[sel] == self._cap).any():
            self._make_room()
        pos = self.end[sel]
        air = np.where(successes,
                       self.ok_air[sel, rates], self.fail_air[sel, rates])
        self.rec_time[sel, pos] = now_ms
        self.rec_rate[sel, pos] = rates
        self.rec_succ[sel, pos] = successes
        self.rec_air[sel, pos] = air
        self.end[sel] += 1
        base = self.base[sel] + rates
        self._tx_flat[base] += air
        si = successes.nonzero()[0]
        if si.size:
            self._succ_flat[base[si]] += 1
            self._consec_flat[base[si]] = 0
        fi = (~successes).nonzero()[0]
        if fi.size:
            self._fail_flat[base[fi]] += 1
            self._consec_flat[base[fi]] += 1

    def _grow_to(self, min_cap: int) -> None:
        """Double the record ring until it holds ``min_cap`` per row."""
        while self._cap < min_cap:
            self.rec_time = np.concatenate(
                [self.rec_time, np.zeros_like(self.rec_time)], axis=1)
            self.rec_rate = np.concatenate(
                [self.rec_rate, np.zeros_like(self.rec_rate)], axis=1)
            self.rec_succ = np.concatenate(
                [self.rec_succ, np.zeros_like(self.rec_succ)], axis=1)
            self.rec_air = np.concatenate(
                [self.rec_air, np.zeros_like(self.rec_air)], axis=1)
            self._cap *= 2

    def _make_room(self) -> None:
        """Shift drained prefixes out; grow the ring if a row is full."""
        for r in np.flatnonzero(self.end == self._cap):
            r = int(r)
            s = int(self.start[r])
            if s == 0:
                continue
            e = int(self.end[r])
            for arr in (self.rec_time, self.rec_rate,
                        self.rec_succ, self.rec_air):
                arr[r, : e - s] = arr[r, s:e]
            self.start[r] = 0
            self.end[r] = e - s
        if (self.end == self._cap).any():
            self._grow_to(self._cap * 2)

    # ------------------------------------------------------------------
    def retire_rows(self, rows: np.ndarray,
                    controllers: Sequence["SampleRate"]) -> None:
        """Write rows' state back into their SampleRate instances."""
        for r in rows:
            r = int(r)
            c = controllers[r]
            c._tx_time_us = self.tx[r].copy()
            c._successes = self.succ[r].copy()
            c._failures = self.fail[r].copy()
            c._consecutive_failures = self.consec[r].copy()
            c._packet_count = int(self.packet_count[r])
            c._current = int(self.current[r])
            sampling = int(self.sampling_rate[r])
            c._sampling_rate = None if sampling < 0 else sampling
            c._records = deque(
                _TxRecord(
                    time_ms=float(self.rec_time[r, j]),
                    rate=int(self.rec_rate[r, j]),
                    success=bool(self.rec_succ[r, j]),
                    airtime_us=float(self.rec_air[r, j]),
                )
                for j in range(int(self.start[r]), int(self.end[r]))
            )

    def compact(self, keep: np.ndarray) -> None:
        for name in ("tx", "succ", "fail", "consec", "lossless", "ok_air",
                     "fail_air", "window_ms", "sample_every", "packet_count",
                     "current", "sampling_rate", "rec_time", "rec_rate",
                     "rec_succ", "rec_air", "start", "end"):
            setattr(self, name, getattr(self, name)[keep])
        self.rngs = [self.rngs[int(k)] for k in keep]
        self._rebuild_views()


class _SampleRateBatchAdapter(BatchRateAdapter):
    """NumPy lockstep driver for B SampleRate controllers."""

    uses_snr = False

    def __init__(self, controllers: Sequence[SampleRate]) -> None:
        super().__init__(controllers)
        self.soa = SampleRateSoA(controllers)

    def choose_rate_batch(self, rows, now_ms) -> np.ndarray:
        return self.soa.choose(rows, now_ms)

    def on_result_batch(self, rows, rates, successes, now_ms) -> None:
        self.soa.on_result(rows, rates, successes, now_ms)

    def retire(self, rows) -> None:
        self.soa.retire_rows(rows, self.controllers)

    def compact(self, keep) -> None:
        super().compact(keep)
        self.soa.compact(keep)
