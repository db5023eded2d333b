"""RBAR (Holland et al., MobiCom 2001) -- instantaneous-SNR baseline.

RBAR picks the rate from the SNR of the most recent frame heard from the
receiver (in the original protocol, the RTS/CTS exchange).  Following
Section 3.4, the protocol is *trained for the operating environment*
(the SNR->rate thresholds come from the true PER model) and the sender
is granted up-to-date receiver SNR (the simulator feeds the previous
slot's SNR before every attempt).

Its strength and weakness are the same thing: it uses the single latest
SNR.  Static, that makes it jittery against noise (CHARM's averaging
wins); mobile, freshness beats averaging (RBAR edges CHARM) but the
5 ms-old sample is still stale relative to an ~8 ms coherence time,
which is why both SNR protocols trail RapidSample when moving.
"""

from __future__ import annotations

import math
import struct
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ..channel.ber import DEFAULT_PER_MODEL, LogisticPerModel
from ..channel.rates import N_RATES, RATE_TABLE
from .base import RateController

__all__ = ["RBAR", "RateThresholds", "rate_thresholds", "snr_to_rate"]

_SIGN_BIT = 1 << 63


def _float_key(x: float) -> int:
    """Integer key with the order of the floats (``-0.0`` keys as ``0.0``)."""
    (bits,) = struct.unpack("<Q", struct.pack("<d", x))
    return -(bits ^ _SIGN_BIT) if bits & _SIGN_BIT else bits


def _key_float(key: int) -> float:
    """Inverse of :func:`_float_key`."""
    bits = (-key) | _SIGN_BIT if key < 0 else key
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


class RateThresholds(NamedTuple):
    """Exact trained SNR->rate thresholds, per rate (see :func:`rate_thresholds`)."""

    #: Smallest float effective SNR whose PER is ``<= max_per`` (``-inf``
    #: when every SNR passes, NaN when none does, so ``>=`` is never true).
    snr_db: tuple[float, ...]
    #: Whether a NaN effective SNR passes (``per(nan) <= max_per``).
    nan_passes: tuple[bool, ...]


@lru_cache(maxsize=64)
def rate_thresholds(
    per_model: LogisticPerModel | None = None,
    max_per: float = 0.1,
    payload_bytes: int = 1000,
) -> RateThresholds:
    """Per rate, the smallest float ``t_r`` with ``per(t_r) <= max_per``.

    The search is a bisection over the ordered IEEE-754 bit patterns of
    the doubles, from ``-inf`` to ``+inf``, calling the model's own
    ``per`` -- about 64 calls per rate, once per (model, ``max_per``,
    payload).  The model's ``per`` must be defined on every float and
    non-increasing in its SNR argument.  The logistic model is: each
    step of :meth:`~repro.channel.ber.LogisticPerModel.per` is a
    monotone operation under round-to-nearest, and so is its clamp.
    The SNRs that pass then form an up-set of the floats, and for every
    non-NaN ``x``

        ``x >= t_r``  is exactly  ``per(x, r, payload) <= max_per``,

    bit for bit -- the comparison replaces the logistic call without
    moving a single decision.  NaN compares false against everything,
    so its verdict (the model's ``per(nan)``, which the logistic clamp
    sends to the ``+inf`` end) is returned separately.
    """
    model = per_model if per_model is not None else DEFAULT_PER_MODEL
    thresholds: list[float] = []
    nan_passes: list[bool] = []
    lo_key, hi_key = _float_key(-math.inf), _float_key(math.inf)
    for r in range(N_RATES):
        def passes(x: float, r: int = r) -> bool:
            return model.per(x, r, payload_bytes) <= max_per

        if not passes(math.inf):
            t = math.nan
        elif passes(-math.inf):
            t = -math.inf
        else:
            lo, hi = lo_key, hi_key          # lo fails, hi passes
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if passes(_key_float(mid)):
                    hi = mid
                else:
                    lo = mid
            t = _key_float(hi)
        thresholds.append(t)
        nan_passes.append(passes(math.nan))
    return RateThresholds(tuple(thresholds), tuple(nan_passes))


def snr_to_rate(
    snr_db: float,
    per_model: LogisticPerModel | None = None,
    max_per: float = 0.1,
    payload_bytes: int = 1000,
    margin_db: float = 0.0,
    threshold_bias_db=None,
) -> int:
    """Trained SNR->rate mapping: fastest rate with PER <= ``max_per``.

    ``margin_db`` backs the decision off (CHARM adapts such a margin).
    ``threshold_bias_db`` (length-``N_RATES`` array) models imperfect
    training: frequency-selective fading makes the effective per-rate
    threshold differ from the trained scalar-SNR one by a dB or two, and
    differently for each rate, so no single margin fixes every boundary.

    Rate ``r`` qualifies when its effective SNR ``(snr_db - margin_db) -
    bias[r]`` has ``per <= max_per``.  That test is evaluated exactly as
    a comparison against the float threshold of :func:`rate_thresholds`
    (a NaN effective SNR takes the model's ``per(nan)`` verdict), so no
    PER curve is evaluated per call.  The answer is the fastest
    qualifying rate, or 0 when none qualifies.

    >>> snr_to_rate(30.0)
    7
    >>> snr_to_rate(-10.0)
    0
    """
    thresholds, nan_passes = rate_thresholds(per_model, max_per, payload_bytes)
    shifted = snr_db - margin_db
    for r in range(N_RATES - 1, 0, -1):
        bias = 0.0 if threshold_bias_db is None else float(threshold_bias_db[r])
        effective = shifted - bias
        if effective >= thresholds[r] or (effective != effective
                                          and nan_passes[r]):
            return r
    return 0


class RBAR(RateController):
    """Receiver-based autorate: rate from the latest SNR sample."""

    name = "RBAR"

    def __init__(
        self,
        n_rates: int = N_RATES,
        per_model: LogisticPerModel | None = None,
        max_per: float = 0.1,
        payload_bytes: int = 1000,
        training_error_db: float = 1.5,
        training_seed: int = 0,
    ) -> None:
        super().__init__(n_rates)
        self._model = per_model if per_model is not None else DEFAULT_PER_MODEL
        self._max_per = max_per
        self._payload = payload_bytes
        # Imperfect per-rate training (see snr_to_rate); 0 disables.
        if training_error_db > 0:
            rng = np.random.default_rng(training_seed)
            self._bias = rng.normal(0.0, training_error_db, size=N_RATES)
        else:
            self._bias = np.zeros(N_RATES)
        # Precompute the rate for integer-quantised SNR (fast lookup).
        self._lut_lo = -20
        self._lut_hi = 60
        self._lut = [
            snr_to_rate(s, self._model, max_per, payload_bytes,
                        threshold_bias_db=self._bias)
            for s in range(self._lut_lo, self._lut_hi + 1)
        ]
        # A NaN SNR has no table slot; it takes the model's per(nan)
        # verdict, as CHARM's does.
        self._nan_rate = snr_to_rate(math.nan, self._model, max_per,
                                     payload_bytes,
                                     threshold_bias_db=self._bias)
        self.reset()

    def reset(self) -> None:
        self._last_snr: float | None = None

    def observe_snr(self, snr_db: float, now_ms: float) -> None:
        self._last_snr = snr_db

    def choose_rate(self, now_ms: float) -> int:
        snr = self._last_snr
        if snr is None:
            return 0  # no channel knowledge yet: be conservative
        try:
            idx = int(round(snr)) - self._lut_lo
        except (OverflowError, ValueError):
            # int() takes neither infinity nor NaN: ±inf clamps to an
            # end of the table like any out-of-range SNR.
            if snr != snr:
                return min(self._nan_rate, self.n_rates - 1)
            idx = len(self._lut) - 1 if snr > 0 else 0
        idx = min(max(idx, 0), len(self._lut) - 1)
        return min(self._lut[idx], self.n_rates - 1)

    def on_result(self, rate_index: int, success: bool, now_ms: float) -> None:
        self._check_rate(rate_index)  # SNR-driven: frame fate unused
