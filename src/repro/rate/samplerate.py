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

import math
from collections import deque

import numpy as np

from ..channel.rates import N_RATES
from ..mac import timing
from .base import RateController

__all__ = ["SampleRate"]


class SampleRate(RateController):
    """Minimum-average-transmission-time rate selection.

    The per-rate window statistics are Python lists and each window
    record is a ``(time_ms, rate, success, airtime_us)`` tuple: scalar
    reads and writes of list slots are several times cheaper than
    indexing NumPy arrays.  The airtime of an attempt comes from
    per-rate delivered/failed tables built once here.  There is no
    array adapter: :func:`repro.mac.batch.run_batch` replays SampleRate
    links on the fast engine.
    """

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
        self._rng = np.random.default_rng(seed)
        #: Airtime of a delivered (lossless) / failed exchange per rate;
        #: the lossless time is also an unseen rate's optimistic score.
        self._lossless_us = [timing.exchange_airtime_us(r, payload_bytes)
                             for r in range(n_rates)]
        self._fail_air_us = [timing.failed_exchange_us(r, payload_bytes)
                             for r in range(n_rates)]
        self._rates = range(n_rates)
        self.reset()

    def reset(self) -> None:
        n = self.n_rates
        self._records: deque[tuple[float, int, bool, float]] = deque()
        self._tx_time_us = [0.0] * n
        self._successes = [0] * n
        self._failures = [0] * n
        self._consecutive_failures = [0] * n
        self._packet_count = 0
        self._current = self.n_rates - 1   # optimistic start, like the driver
        self._sampling_rate: int | None = None

    # ------------------------------------------------------------------
    @property
    def current_rate(self) -> int:
        """Most recent operating rate (for hint-aware seed handoff)."""
        return self._current

    def _expire(self, now_ms: float) -> None:
        records = self._records
        horizon = now_ms - self._window_ms
        tx, succ, fail = self._tx_time_us, self._successes, self._failures
        while records and records[0][0] < horizon:
            _, rate, success, airtime = records.popleft()
            tx[rate] -= airtime
            if success:
                succ[rate] -= 1
            else:
                fail[rate] -= 1
            # Once the window has forgotten a rate entirely, its
            # four-successive-failures quarantine lapses too; otherwise a
            # rate that crashed once would be banned forever.
            if succ[rate] + fail[rate] == 0:
                self._consecutive_failures[rate] = 0

    def _best_rate(self) -> int:
        """Rate with minimum average tx time; unseen rates score lossless.

        A rate's score is its average airtime per *delivered* packet,
        ``inf`` when it has attempts but no success, and its lossless
        airtime when it has no attempts.  The four-successive-failures
        quarantine only bars *unproven* rates (no success in the
        window): a rate with thousands of successes is not exiled by one
        unlucky burst -- its average transmission time already absorbs
        those failures.  Ties keep the slower rate (strict ``<``), and
        when every score is ``inf`` the answer is rate 0.  An ``inf``
        score can never pass the strict test, so those rates, like
        quarantined ones, are skipped in the one pass below.
        """
        best, best_time = 0, math.inf
        for r, s, tx, f, consec, lossless in zip(
                self._rates, self._successes, self._tx_time_us,
                self._failures, self._consecutive_failures, self._lossless_us):
            if s > 0:
                score = tx / s
            elif f > 0 or consec >= 4:
                continue
            else:
                score = lossless
            if score < best_time:
                best, best_time = r, score
        return best

    def _pick_sample_rate(self, current_best: int) -> int | None:
        """A candidate that could beat the current best, at random."""
        succ = self._successes[current_best]
        best_avg = self._tx_time_us[current_best] / succ if succ > 0 else math.inf
        if not math.isfinite(best_avg):
            best_avg = self._lossless_us[current_best]
        consec = self._consecutive_failures
        candidates = [
            r
            for r, lossless in enumerate(self._lossless_us)
            if r != current_best and consec[r] < 4 and lossless < best_avg
        ]
        if not candidates:
            return None
        return int(self._rng.choice(candidates))

    # ------------------------------------------------------------------
    def choose_rate(self, now_ms: float) -> int:
        records = self._records
        if records and records[0][0] < now_ms - self._window_ms:
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
        if not 0 <= rate_index < self.n_rates:
            self._check_rate(rate_index)
        if success:
            airtime = self._lossless_us[rate_index]
            self._successes[rate_index] += 1
            self._consecutive_failures[rate_index] = 0
        else:
            airtime = self._fail_air_us[rate_index]
            self._failures[rate_index] += 1
            self._consecutive_failures[rate_index] += 1
        self._records.append((now_ms, rate_index, success, airtime))
        self._tx_time_us[rate_index] += airtime
