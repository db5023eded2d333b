"""RapidSample -- the paper's mobile-tuned rate protocol (Section 3.1).

The algorithm of Figure 3-2, verbatim in behaviour:

* Start at the fastest bit rate.
* On a failed attempt: record ``failedTime[rate] = now``; if the failed
  attempt was a *sample*, fall back to the pre-sample rate, otherwise
  step down one rate.
* On success: if the current rate has been held for more than
  ``succ_ms`` (paper: 5 ms), sample upward -- jump to the fastest rate
  such that neither it nor any slower rate has failed within the last
  ``fail_ms`` (paper: 10 ms, the measured channel coherence time).  The
  jump is opportunistic (may skip several rates).  If the sampled rate
  fails, revert to the original rate; if it succeeds, adopt it.

The four design ideas (Section 3.1): losses are bursty so step down
immediately; ``fail_ms`` matches the coherence time so failed rates are
retried only after the channel has decorrelated; a *small* number of
successes (``succ_ms`` < ``fail_ms``) is enough evidence to try faster
rates; and a failed sample reverts rather than re-stepping down.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..channel.rates import N_RATES
from .base import BatchRateAdapter, CruiseView, RateController

__all__ = ["RapidSample"]

#: Paper's parameter values (Section 3.1): 5 ms of success before
#: sampling up; 10 ms quarantine for failed rates.
DEFAULT_SUCC_MS = 5.0
DEFAULT_FAIL_MS = 10.0


class RapidSample(RateController):
    """Frame-based rate adaptation for rapidly changing channels."""

    name = "RapidSample"

    def __init__(
        self,
        n_rates: int = N_RATES,
        succ_ms: float = DEFAULT_SUCC_MS,
        fail_ms: float = DEFAULT_FAIL_MS,
    ) -> None:
        super().__init__(n_rates)
        if succ_ms <= 0 or fail_ms <= 0:
            raise ValueError("succ_ms and fail_ms must be positive")
        self._succ_ms = succ_ms
        self._fail_ms = fail_ms
        self.reset()

    def reset(self) -> None:
        self._failed_time = [-math.inf] * self.n_rates
        self._picked_time = [0.0] * self.n_rates
        self._current = self.n_rates - 1  # start at the fastest rate
        self._sampling = False
        self._old_rate = self._current
        self._have_result = True  # nothing pending before the first packet

    # ------------------------------------------------------------------
    @property
    def current_rate(self) -> int:
        return self._current

    @property
    def is_sampling(self) -> bool:
        return self._sampling

    def choose_rate(self, now_ms: float) -> int:
        return self._current

    def on_result(self, rate_index: int, success: bool, now_ms: float) -> None:
        """The Figure 3-2 update, applied after each attempt."""
        if not 0 <= rate_index < self.n_rates:
            self._check_rate(rate_index)
        last = rate_index
        if not success:
            self._failed_time[last] = now_ms
            if self._sampling:
                new = self._old_rate          # failed sample: revert
            else:
                new = max(0, last - 1)        # ordinary loss: step down
            self._sampling = False
        else:
            self._sampling = False            # a successful sample is adopted
            if now_ms - self._picked_time[last] > self._succ_ms:
                candidate = self._best_unquarantined(now_ms)
                if candidate != last:
                    self._sampling = True
                    self._old_rate = last
                new = candidate
            else:
                new = last
        if new != last:
            self._picked_time[new] = now_ms
        self._current = new

    def _best_unquarantined(self, now_ms: float) -> int:
        """Fastest rate i such that no rate j <= i failed within fail_ms.

        Figure 3-2: ``br <- max{i | forall j <= i:
        CurrTime() - failedTime[j] > fail_ms}``.  The prefix condition
        means a recent failure at a slow rate also blocks all faster
        rates (if 12 Mb/s just failed, 54 Mb/s will too).
        """
        best = -1
        for i in range(self.n_rates):
            if now_ms - self._failed_time[i] > self._fail_ms:
                best = i
            else:
                break
        # If even the slowest rate failed recently there is no clean
        # prefix; stay on the slowest rate rather than stall.
        return max(best, 0)

    @classmethod
    def step_batch(
        cls, controllers: Sequence[RateController]
    ) -> BatchRateAdapter | None:
        if len({c.n_rates for c in controllers}) > 1:
            return None
        return _RapidSampleBatchAdapter(controllers)


class RapidSampleSoA:
    """Structure-of-arrays form of B RapidSample instances.

    Holds the Figure 3-2 state (``failedTime``/``picked_time`` tables,
    current rate, sampling flag) as ``(B, n_rates)`` / ``(B,)`` arrays
    and applies :meth:`RapidSample.on_result` to many links at once.
    Initialised *from* the wrapped instances (they may carry state from
    earlier replays) and written back on :meth:`retire_rows`, so the
    instances end a batched run exactly as they would a looped one.
    """

    def __init__(self, controllers: Sequence[RapidSample]) -> None:
        n = len(controllers)
        n_rates = controllers[0].n_rates if n else N_RATES
        self.n_rates = n_rates
        self.failed = np.array(
            [c._failed_time for c in controllers], dtype=np.float64
        ).reshape(n, n_rates)
        self.picked = np.array(
            [c._picked_time for c in controllers], dtype=np.float64
        ).reshape(n, n_rates)
        self.current = np.array([c._current for c in controllers], dtype=np.int64)
        self.sampling = np.array([c._sampling for c in controllers], dtype=bool)
        self.old_rate = np.array([c._old_rate for c in controllers], dtype=np.int64)
        self.succ_ms = np.array([c._succ_ms for c in controllers], dtype=np.float64)
        self.fail_ms = np.array([c._fail_ms for c in controllers], dtype=np.float64)
        self._rebuild_views()

    def _rebuild_views(self) -> None:
        self.failed_flat = self.failed.reshape(-1)
        self.picked_flat = self.picked.reshape(-1)
        self.base = np.arange(len(self.current), dtype=np.int64) * self.n_rates

    def on_result(self, rows, rates: np.ndarray, successes: np.ndarray,
                  now_ms: np.ndarray) -> None:
        """The Figure 3-2 update for the selected rows, vectorized.

        ``rates`` are the rates actually attempted (possibly below the
        chosen rate because of the driver retry ladder), matching what
        the single-link engines feed ``on_result``.
        """
        fi = (~successes).nonzero()[0]
        if fi.size:
            g = fi if rows is None else rows[fi]
            rf = rates[fi]
            nwf = now_ms[fi]
            base_g = self.base[g]
            self.failed_flat[base_g + rf] = nwf
            new_f = np.where(
                self.sampling[g], self.old_rate[g], np.maximum(rf - 1, 0)
            )
            self.sampling[g] = False
            self.current[g] = new_f
            ch = new_f != rf
            if ch.any():
                self.picked_flat[(base_g + new_f)[ch]] = nwf[ch]
        si = successes.nonzero()[0]
        if si.size:
            g = si if rows is None else rows[si]
            rs = rates[si]
            nws = now_ms[si]
            self.sampling[g] = False
            # A ladder-lowered success adopts the attempted rate (the
            # reference loop's ``new = last``).
            self.current[g] = rs
            cond = (nws - self.picked_flat[self.base[g] + rs]) > self.succ_ms[g]
            if cond.any():
                gc = g[cond]
                rc = rs[cond]
                nwc = nws[cond]
                # best_unquarantined: fastest rate whose prefix of slower
                # rates is failure-free within fail_ms (leading-True count).
                ok = (nwc[:, None] - self.failed[gc]) > self.fail_ms[gc][:, None]
                lead = np.logical_and.accumulate(ok, axis=1).sum(axis=1)
                cand = np.maximum(lead - 1, 0)
                is_sample = cand != rc
                self.sampling[gc] = is_sample
                self.old_rate[gc] = np.where(is_sample, rc, self.old_rate[gc])
                self.current[gc] = cand
                if is_sample.any():
                    gs = gc[is_sample]
                    self.picked_flat[self.base[gs] + cand[is_sample]] = \
                        nwc[is_sample]

    def retire_rows(self, rows: np.ndarray,
                    controllers: Sequence[RapidSample]) -> None:
        """Write rows' state back into their RapidSample instances."""
        for r in rows:
            c = controllers[int(r)]
            c._failed_time = [float(v) for v in self.failed[r]]
            c._picked_time = [float(v) for v in self.picked[r]]
            c._current = int(self.current[r])
            c._sampling = bool(self.sampling[r])
            c._old_rate = int(self.old_rate[r])

    def compact(self, keep: np.ndarray) -> None:
        self.failed = self.failed[keep]
        self.picked = self.picked[keep]
        self.current = self.current[keep]
        self.sampling = self.sampling[keep]
        self.old_rate = self.old_rate[keep]
        self.succ_ms = self.succ_ms[keep]
        self.fail_ms = self.fail_ms[keep]
        self._rebuild_views()


class _RapidCruise(CruiseView):
    """Success-run view over a RapidSample SoA."""

    def __init__(self, soa: RapidSampleSoA):
        self._soa = soa

    def eligible(self) -> np.ndarray:
        # Sampling links are *not* excluded: a mid-sample attempt cannot
        # be a no-op prefix cell (success_noop vetoes it) but resolves
        # fine as a terminal cell through commit_result.
        return np.ones(len(self._soa.current), dtype=bool)

    def current(self) -> np.ndarray:
        return self._soa.current

    def success_noop(self, now_ms: np.ndarray) -> np.ndarray:
        """A success is a no-op before the sample-up deadline -- and
        also after it while re-picking provably returns the current
        rate (``best_unquarantined == current``), in which case the
        Figure 3-2 update changes nothing: no sampling, no picked-time
        write.

        ``best_unquarantined`` is a function of time only through
        quarantine expiries, so it is evaluated once at the tableau's
        first cell and declared valid for cells strictly before the
        earliest pending expiry (with a 1 µs guard band, conservative
        against float rounding at the boundary -- a blocked cell merely
        re-runs through the exact general step)."""
        soa = self._soa
        pk = soa.picked_flat[soa.base + soa.current]
        ok = (now_ms - pk[:, None]) <= soa.succ_ms[:, None]
        now0 = now_ms[:, 0]
        quarantined = (now0[:, None] - soa.failed) <= soa.fail_ms[:, None]
        lead = np.logical_and.accumulate(~quarantined, axis=1).sum(axis=1)
        cand = np.maximum(lead - 1, 0)
        repick_noop = cand == soa.current
        if repick_noop.any():
            expiry = np.where(quarantined, soa.failed, np.inf).min(axis=1) \
                + soa.fail_ms - 1e-3
            ok |= repick_noop[:, None] & (now_ms < expiry[:, None])
        if soa.sampling.any():
            # A mid-sample success adopts the sampled rate (state
            # change), so it is never a no-op.
            ok &= ~soa.sampling[:, None]
        return ok

    def commit_result(self, rows, rates, successes, now_ms) -> None:
        self._soa.on_result(rows, rates, successes, now_ms)


class _RapidSampleBatchAdapter(BatchRateAdapter):
    """NumPy lockstep driver for B RapidSample controllers."""

    def __init__(self, controllers: Sequence[RapidSample]) -> None:
        super().__init__(controllers)
        self.soa = RapidSampleSoA(controllers)
        self.cruise = _RapidCruise(self.soa)

    def choose_rate_batch(self, rows) -> np.ndarray:
        cur = self.soa.current
        return cur.copy() if rows is None else cur[rows]

    def on_result_batch(self, rows, rates, successes, now_ms) -> None:
        self.soa.on_result(rows, rates, successes, now_ms)

    def retire(self, rows) -> None:
        self.soa.retire_rows(rows, self.controllers)

    def compact(self, keep) -> None:
        super().compact(keep)
        self.soa.compact(keep)
