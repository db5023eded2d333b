"""SNR -> packet-error-rate models for the 802.11a modes.

Two interchangeable models:

* :class:`LogisticPerModel` (default) -- the standard packet-level
  simulation abstraction: per-rate logistic curves anchored at the
  ``snr_threshold_db`` of each :class:`~repro.channel.rates.BitRate`.
  Smooth, monotone, fully controllable; what the trace generator uses.
* :class:`BerPerModel` -- a physical model from textbook AWGN
  bit-error-rate formulas (Q-function per modulation, with an effective
  coding gain), composed into PER as ``1 - (1 - BER)^bits``.  Used in
  tests as an independent cross-check that the logistic thresholds are
  physically sensible.

Both expose ``per(snr_db, rate_index, n_bytes) -> probability``.
"""

from __future__ import annotations

import math
from typing import Protocol

import numpy as np

from .rates import N_RATES, RATE_TABLE

__all__ = ["PerModel", "LogisticPerModel", "BerPerModel", "DEFAULT_PER_MODEL"]


class PerModel(Protocol):
    """Anything that maps (SNR, rate, size) to a packet error rate."""

    def per(self, snr_db: float, rate_index: int, n_bytes: int = 1000) -> float:
        """Packet error probability in [0, 1]."""
        ...


class LogisticPerModel:
    """Logistic PER curves anchored at each rate's SNR threshold.

    ``per = 1 / (1 + exp(steepness * (snr - threshold)))`` with the
    threshold shifted so that PER at ``snr_threshold_db`` is exactly
    ``per_at_threshold`` (default 10%) for the reference 1000-byte frame.
    Size scaling converts through an equivalent per-bit error rate.
    """

    def __init__(self, steepness_per_db: float = 6.0,
                 per_at_threshold: float = 0.1,
                 reference_bytes: int = 1000) -> None:
        if steepness_per_db <= 0:
            raise ValueError("steepness must be positive")
        if not 0.0 < per_at_threshold < 1.0:
            raise ValueError("per_at_threshold must be in (0, 1)")
        self._k = steepness_per_db
        self._ref_bits = reference_bytes * 8
        # Shift so the logistic hits per_at_threshold at the threshold SNR.
        self._shift = math.log(1.0 / per_at_threshold - 1.0) / steepness_per_db

    def per(self, snr_db: float, rate_index: int, n_bytes: int = 1000) -> float:
        rate = RATE_TABLE[rate_index]
        x = self._k * (snr_db - rate.snr_threshold_db + self._shift)
        # Clamp the exponent: beyond +-40 the result is 0/1 to machine eps.
        x = max(-40.0, min(40.0, x))
        per_ref = 1.0 / (1.0 + math.exp(x))
        if n_bytes * 8 == self._ref_bits:
            return per_ref
        # Rescale through the implied independent per-bit success rate.
        per_ref = min(per_ref, 1.0 - 1e-15)
        bit_success = (1.0 - per_ref) ** (1.0 / self._ref_bits)
        return 1.0 - bit_success ** (n_bytes * 8)

    def per_array(self, snr_db: np.ndarray, rate_index: int,
                  n_bytes: int = 1000) -> np.ndarray:
        """Vectorised :meth:`per` over an SNR array (hot path)."""
        rate = RATE_TABLE[rate_index]
        x = self._k * (np.asarray(snr_db, dtype=np.float64)
                       - rate.snr_threshold_db + self._shift)
        np.clip(x, -40.0, 40.0, out=x)
        per_ref = 1.0 / (1.0 + np.exp(x))
        if n_bytes * 8 == self._ref_bits:
            return per_ref
        per_ref = np.minimum(per_ref, 1.0 - 1e-15)
        bit_success = (1.0 - per_ref) ** (1.0 / self._ref_bits)
        return 1.0 - bit_success ** (n_bytes * 8)

    def per_matrix(self, snr_db: np.ndarray, n_bytes: int = 1000) -> np.ndarray:
        """PER for *every* rate at once: ``(len(snr_db), N_RATES)``.

        One broadcast over the per-rate thresholds instead of
        :data:`~repro.channel.rates.N_RATES` separate :meth:`per_array`
        passes -- the batch trace-generation hot path.  Elementwise the
        arithmetic is identical to :meth:`per_array`, so the columns are
        bit-equal to per-rate calls.
        """
        thresholds = np.array([r.snr_threshold_db for r in RATE_TABLE])
        x = self._k * (np.asarray(snr_db, dtype=np.float64)[:, None]
                       - thresholds[None, :] + self._shift)
        np.clip(x, -40.0, 40.0, out=x)
        per_ref = 1.0 / (1.0 + np.exp(x))
        if n_bytes * 8 == self._ref_bits:
            return per_ref
        per_ref = np.minimum(per_ref, 1.0 - 1e-15)
        bit_success = (1.0 - per_ref) ** (1.0 / self._ref_bits)
        return 1.0 - bit_success ** (n_bytes * 8)


def _q_function(x: float) -> float:
    """Gaussian tail probability Q(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


#: Elementwise ``math.erfc`` (numpy ships none without scipy).
_ERFC_VEC = np.frompyfunc(math.erfc, 1, 1)


# Effective coding gain (dB) per convolutional coding rate, a standard
# soft-decision approximation.
_CODING_GAIN_DB = {"1/2": 5.0, "2/3": 4.0, "3/4": 3.5}


class BerPerModel:
    """Physical AWGN BER model per modulation, composed into PER.

    BERs (uncoded, per bit, at symbol SNR gamma_s spread over the bits):

    * BPSK:   Q(sqrt(2 gamma_b))
    * QPSK:   Q(sqrt(2 gamma_b))          (per-bit, Gray mapped)
    * 16-QAM: (3/4) Q(sqrt(gamma_s/5))    approx, Gray mapped
    * 64-QAM: (7/12) Q(sqrt(gamma_s/21))  approx, Gray mapped

    Coding is modelled as an SNR gain.  This is deliberately simple --
    its job is to sanity-check the logistic thresholds, not to be a PHY.
    """

    _BITS_PER_SYMBOL = {"BPSK": 1, "QPSK": 2, "16-QAM": 4, "64-QAM": 6}

    def ber(self, snr_db: float, rate_index: int) -> float:
        rate = RATE_TABLE[rate_index]
        gain = _CODING_GAIN_DB[rate.coding_rate]
        try:
            snr_linear = 10.0 ** ((snr_db + gain) / 10.0)
        except OverflowError:
            # Above ~3080 dB the power is past the largest float: it
            # saturates, so the BER is 0 there, as at +inf.
            snr_linear = math.inf
        mod = rate.modulation
        bits = self._BITS_PER_SYMBOL[mod]
        gamma_b = snr_linear / bits
        if mod in ("BPSK", "QPSK"):
            return _q_function(math.sqrt(max(0.0, 2.0 * gamma_b)))
        if mod == "16-QAM":
            return 0.75 * _q_function(math.sqrt(max(0.0, snr_linear / 5.0)))
        if mod == "64-QAM":
            return (7.0 / 12.0) * _q_function(math.sqrt(max(0.0, snr_linear / 21.0)))
        raise ValueError(f"unknown modulation {mod}")  # pragma: no cover

    def per(self, snr_db: float, rate_index: int, n_bytes: int = 1000) -> float:
        ber = min(self.ber(snr_db, rate_index), 0.5)
        n_bits = n_bytes * 8
        # log1p keeps precision when ber is tiny.
        return 1.0 - math.exp(n_bits * math.log1p(-ber))

    def ber_array(self, snr_db: np.ndarray, rate_index: int) -> np.ndarray:
        """Vectorised :meth:`ber` over an SNR array."""
        rate = RATE_TABLE[rate_index]
        gain = _CODING_GAIN_DB[rate.coding_rate]
        snr_linear = 10.0 ** ((np.asarray(snr_db, dtype=np.float64) + gain)
                              / 10.0)
        mod = rate.modulation

        def q_vec(x):
            # Q(x) = erfc(x / sqrt 2) / 2.  numpy has no erfc; math.erfc
            # through a frompyfunc stays dependency-free and bit-matches
            # the scalar path (same C erfc per element).
            return _ERFC_VEC(x / math.sqrt(2.0)).astype(np.float64) * 0.5

        if mod in ("BPSK", "QPSK"):
            bits = self._BITS_PER_SYMBOL[mod]
            gamma_b = snr_linear / bits
            return q_vec(np.sqrt(np.maximum(0.0, 2.0 * gamma_b)))
        if mod == "16-QAM":
            return 0.75 * q_vec(np.sqrt(np.maximum(0.0, snr_linear / 5.0)))
        if mod == "64-QAM":
            return (7.0 / 12.0) * q_vec(
                np.sqrt(np.maximum(0.0, snr_linear / 21.0)))
        raise ValueError(f"unknown modulation {mod}")  # pragma: no cover

    def per_array(self, snr_db: np.ndarray, rate_index: int,
                  n_bytes: int = 1000) -> np.ndarray:
        """Vectorised :meth:`per` over an SNR array."""
        ber = np.minimum(self.ber_array(snr_db, rate_index), 0.5)
        return 1.0 - np.exp(n_bytes * 8 * np.log1p(-ber))


#: Model shared by the trace generator and the SNR-based controllers
#: ("trained for the operating environment", Section 3.4).
DEFAULT_PER_MODEL = LogisticPerModel()
