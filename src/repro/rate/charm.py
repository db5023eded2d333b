"""CHARM (Judd et al., MobiSys 2008) -- averaged-SNR baseline.

CHARM avoids RTS/CTS overhead by exploiting channel reciprocity: it
averages the SNR of frames recently overheard from the receiver and maps
the average through trained thresholds, adapting a protection margin
from observed losses.  Per Section 3.5: "While CHARM maintains a history
of SNR values of recent packets and uses the average SNR, RBAR uses the
SNR of the most recently received packet alone" -- so CHARM is the
smoothed twin of :class:`repro.rate.rbar.RBAR`, better static (robust to
short-term SNR fluctuation), slightly worse mobile (the average lags the
channel).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..channel.ber import LogisticPerModel
from ..channel.rates import N_RATES
from .base import RateController
from .rbar import rate_thresholds

__all__ = ["CHARM"]


class CHARM(RateController):
    """Windowed-average SNR with an adaptive protection margin."""

    name = "CHARM"

    def __init__(
        self,
        n_rates: int = N_RATES,
        window_ms: float = 1000.0,
        per_model: LogisticPerModel | None = None,
        max_per: float = 0.1,
        payload_bytes: int = 1000,
        margin_step_db: float = 0.25,
        max_margin_db: float = 6.0,
        training_error_db: float = 1.5,
        training_seed: int = 0,
    ) -> None:
        super().__init__(n_rates)
        if window_ms <= 0:
            raise ValueError("window must be positive")
        self._window_ms = window_ms
        self._margin_step = margin_step_db
        self._max_margin = max_margin_db
        # Imperfect per-rate training, same model as RBAR's: a single
        # adaptive margin cannot correct every rate boundary at once.
        # Kept as Python floats: the per-decision subtraction is scalar.
        rng = np.random.default_rng(training_seed)
        if training_error_db > 0:
            self._bias = rng.normal(0.0, training_error_db,
                                    size=N_RATES).tolist()
        else:
            self._bias = [0.0] * N_RATES
        # CHARM infers the downlink SNR from frames *overheard* on the
        # uplink (channel reciprocity).  TX/RX chain asymmetry makes that
        # inference off by a device-dependent constant -- the calibration
        # problem the CHARM paper itself works around.  RBAR's RTS/CTS
        # feedback does not suffer this.
        self._reciprocity_offset_db = float(rng.normal(0.0, 1.5))
        # The snr_to_rate test per rate, fastest first, as exact float
        # thresholds: (answer, bias, threshold, NaN verdict).
        thresholds, nan_passes = rate_thresholds(per_model, max_per,
                                                 payload_bytes)
        self._rules = [
            (min(r, n_rates - 1), self._bias[r], thresholds[r], nan_passes[r])
            for r in range(N_RATES - 1, 0, -1)
        ]
        self.reset()

    def reset(self) -> None:
        self._samples: deque[tuple[float, float]] = deque()  # (time_ms, snr)
        self._snr_sum = 0.0
        self._margin_db = 0.0

    # ------------------------------------------------------------------
    def _expire(self, now_ms: float) -> None:
        samples = self._samples
        horizon = now_ms - self._window_ms
        while samples and samples[0][0] < horizon:
            self._snr_sum -= samples.popleft()[1]

    def observe_snr(self, snr_db: float, now_ms: float) -> None:
        samples = self._samples
        if samples and samples[0][0] < now_ms - self._window_ms:
            self._expire(now_ms)
        observed = snr_db + self._reciprocity_offset_db
        samples.append((now_ms, observed))
        self._snr_sum += observed

    @property
    def average_snr_db(self) -> float | None:
        if not self._samples:
            return None
        return self._snr_sum / len(self._samples)

    @property
    def margin_db(self) -> float:
        return self._margin_db

    def choose_rate(self, now_ms: float) -> int:
        """:func:`~repro.rate.rbar.snr_to_rate` of the window average.

        Each rate's effective SNR is ``(avg - margin) - bias[r]``, the
        operation order of ``snr_to_rate``, compared against the exact
        float threshold of :func:`~repro.rate.rbar.rate_thresholds`, so
        the answer is bit-identical to evaluating ``per(effective) <=
        max_per`` per rate (a NaN average takes the ``per(nan)`` verdict,
        the top rate for the logistic model).
        """
        samples = self._samples
        if not samples:
            return 0
        if samples[0][0] < now_ms - self._window_ms:
            self._expire(now_ms)
            if not samples:
                return 0
        shifted = self._snr_sum / len(samples) - self._margin_db
        for rate, bias, threshold, nan_passes in self._rules:
            effective = shifted - bias
            if effective >= threshold or (effective != effective
                                          and nan_passes):
                return rate
        return 0

    def on_result(self, rate_index: int, success: bool, now_ms: float) -> None:
        """Adapt the protection margin: grow on loss, decay on success."""
        if not 0 <= rate_index < self.n_rates:
            self._check_rate(rate_index)
        # max(0.0, m) and min(cap, m) spelled as comparisons: the same
        # value for every float m, NaN included.
        if success:
            margin = self._margin_db - self._margin_step / 10.0
            self._margin_db = margin if margin > 0.0 else 0.0
        else:
            margin = self._margin_db + self._margin_step
            self._margin_db = margin if margin < self._max_margin else self._max_margin
