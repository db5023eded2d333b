"""Trace generation: the stand-in for the paper's trace-collection testbed.

The paper drove a Linux laptop (Click + MadWiFi + Atheros) to send
back-to-back 1000-byte packets cycling through the eight 802.11a rates,
logged each packet's fate at the receiver, and compiled the log into
per-5 ms-slot fates.  :class:`TraceGenerator` produces the same artefact
from physics instead of hardware:

    SNR(t) = tx_power - pathloss(d(t)) + shadow(t) + fading(t) - noise

where d(t) follows the motion script, shadowing is a Gauss-Markov process
over *distance travelled* (frozen while still), and fading is the Jakes
process of :mod:`repro.channel.fading` whose Doppler tracks the script's
speed.  Fates are Bernoulli draws from the PER model at each slot's SNR.

The generator also produces per-packet loss series at arbitrary packet
rates (:meth:`packet_loss_series`) for the Figure 3-1 lag analysis, where
5 ms slots are too coarse (5000 packets/s at 54 Mb/s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..sensors.trajectory import MotionScript
from .ber import DEFAULT_PER_MODEL, LogisticPerModel
from .environments import Environment
from .fading import RiceanFadingProcess
from .rates import N_RATES
from .trace import SLOT_S, ChannelTrace

__all__ = ["TraceGenerator", "generate_trace", "generate_packet_loss_series"]

#: Internal SNR sampling period; 1 ms resolves vehicular Doppler well
#: enough for slot-average PER while staying fast.
_FINE_DT_S = 0.001


class TraceGenerator:
    """Generates :class:`ChannelTrace` objects for (environment, script).

    Parameters
    ----------
    environment:
        Radio profile (path loss, K, shadowing, residual Doppler).
    script:
        The receiver's motion.  The sender sits at ``sender_xy``; the
        script's coordinate frame is shifted so that its starting point
        is ``environment.base_distance_m`` away from the sender.
    seed:
        Drives fading, shadowing and fate draws; same seed = same trace.
    """

    def __init__(
        self,
        environment: Environment,
        script: MotionScript,
        seed: int = 0,
        per_model: LogisticPerModel | None = None,
        payload_bytes: int = 1000,
        zero_initial_shadow: bool = False,
        floor_loss_prob: float = 0.015,
    ) -> None:
        if not 0.0 <= floor_loss_prob < 1.0:
            raise ValueError("floor_loss_prob must be in [0, 1)")
        self._env = environment
        self._script = script
        self._seed = seed
        self._per_model = per_model if per_model is not None else DEFAULT_PER_MODEL
        self._payload = payload_bytes
        # Background interference floor: beacons, co-channel bursts and
        # microwave noise lose a small fraction of packets regardless of
        # SNR.  Every real trace contains this; it is what makes
        # "react to a single loss" policies pay on stable channels, and
        # why even a strong static link delivers ~97-99% of probes.
        self._floor_loss_prob = floor_loss_prob
        # Calibrated-placement mode: start the shadowing process at its
        # mean (0 dB) instead of a random draw, so the link's initial
        # operating point is set by distance alone.  Used by experiments
        # that need a link *placed* at a known point (the Chapter 4
        # probing study); the process still evolves once the node moves.
        self._zero_initial_shadow = zero_initial_shadow

    # ------------------------------------------------------------------
    # SNR synthesis
    # ------------------------------------------------------------------
    def snr_series(self, dt_s: float = _FINE_DT_S) -> np.ndarray:
        """Fine-grained SNR time series over the whole script."""
        n = int(round(self._script.duration_s / dt_s))
        if n <= 0:
            raise ValueError("script too short for the sampling period")
        rng = np.random.default_rng(self._seed)
        fading = RiceanFadingProcess(
            k_factor=self._env.k_factor,
            residual_doppler_hz=self._env.residual_doppler_hz,
            seed=int(rng.integers(2**31)),
            min_initial_gain_db=-3.0,
        )

        times = (np.arange(n) + 0.5) * dt_s
        script = self._script
        xs, ys = script.positions(times)
        idx = script.segment_indices(times)
        seg_speeds = [seg.speed_mps if seg.kind.is_moving else 0.0
                      for seg in script.segments]
        speeds = np.array(seg_speeds)[idx]

        # Sender placement: offset so the script's start sits at the
        # environment's nominal range, sender at the origin of that frame.
        dx = xs - xs[0]
        dy = ys - ys[0]
        distances = np.hypot(dx + self._env.base_distance_m, dy)

        mean_snr = self._env.mean_snr_db_array(distances)

        # Shadowing: Gauss-Markov over distance travelled.  A segment's
        # speed is constant, so so are its per-sample step and rho; only
        # samples with rho < 1 draw, and their normals come in one call
        # (the same stream as one draw per sample).  The recurrence runs
        # on Python floats in the scalar operation order.
        sigma = self._env.shadow_sigma_db
        corr = self._env.shadow_corr_m
        value = 0.0 if self._zero_initial_shadow else rng.normal(0.0, sigma)
        seg_rho = []
        for speed in seg_speeds:
            step_dist = speed * dt_s
            seg_rho.append(math.exp(-step_dist / corr) if step_dist > 0 else 1.0)
        n_draws = int(np.count_nonzero((np.array(seg_rho) < 1.0)[idx]))
        noise = rng.normal(0.0, sigma, size=n_draws).tolist()
        shadow = np.empty(n)
        cursor = 0
        runs = np.flatnonzero(np.diff(idx)) + 1
        for start, stop in zip([0] + runs.tolist(), runs.tolist() + [n]):
            rho = seg_rho[idx[start]]
            if rho < 1.0:
                innov = math.sqrt(1.0 - rho * rho)
                values = []
                for z in noise[cursor:cursor + stop - start]:
                    value = rho * value + innov * z
                    values.append(value)
                cursor += stop - start
                shadow[start:stop] = values
            else:
                shadow[start:stop] = value

        fading_db = fading.sample_series(speeds, dt_s)
        return mean_snr + shadow + fading_db

    # ------------------------------------------------------------------
    # Trace assembly
    # ------------------------------------------------------------------
    def generate(self) -> ChannelTrace:
        """Produce the per-5 ms-slot trace (the paper's replay format)."""
        fine_snr = self.snr_series(_FINE_DT_S)
        per_slot = int(round(SLOT_S / _FINE_DT_S))
        n_slots = len(fine_snr) // per_slot
        fine_snr = fine_snr[: n_slots * per_slot].reshape(n_slots, per_slot)

        # Slot PER = mean of fine-grained PERs (a packet samples the
        # channel over ~0.2-1.7 ms within the slot); slot SNR = dB mean.
        slot_snr = fine_snr.mean(axis=1)
        rng = np.random.default_rng(self._seed + 0x5EED)
        fates = np.empty((n_slots, N_RATES), dtype=bool)
        per_matrix = getattr(self._per_model, "per_matrix", None)
        if per_matrix is not None:
            # All rates in one broadcast (bit-equal to per-rate calls).
            per_all = per_matrix(fine_snr.ravel(), self._payload)
            per_all = per_all.reshape(n_slots, per_slot, N_RATES)
        else:
            per_all = None
        for r in range(N_RATES):
            if per_all is not None:
                per_fine = per_all[:, :, r]
            else:
                per_fine = self._per_model.per_array(
                    fine_snr.ravel(), r, self._payload
                ).reshape(n_slots, per_slot)
            slot_per = per_fine.mean(axis=1)
            if self._floor_loss_prob > 0:
                slot_per = 1.0 - (1.0 - slot_per) * (1.0 - self._floor_loss_prob)
            # The per-rate draw order is part of the trace format: rate
            # r's slot fates always consume the r-th block of draws.
            fates[:, r] = rng.random(n_slots) >= slot_per

        moving = self._script.moving_flags((np.arange(n_slots) + 0.5) * SLOT_S)
        return ChannelTrace(
            fates=fates,
            snr_db=slot_snr,
            moving=moving,
            environment=self._env.name,
            seed=self._seed,
        )

    def packet_loss_series(
        self, rate_index: int, packets_per_s: float
    ) -> np.ndarray:
        """Boolean loss series for back-to-back packets at one rate.

        Used by the Figure 3-1 lag-correlation analysis, which sends
        ~5000 packets/s at 54 Mb/s.  Each packet gets an independent
        Bernoulli draw at the instantaneous (fine-grained) SNR, so loss
        correlation comes from the channel, not from shared draws.
        """
        if packets_per_s <= 0:
            raise ValueError("packet rate must be positive")
        dt = 1.0 / packets_per_s
        fine_dt = min(dt, _FINE_DT_S)
        snr = self.snr_series(fine_dt)
        n_packets = int(self._script.duration_s * packets_per_s)
        idx = np.minimum((np.arange(n_packets) * dt / fine_dt).astype(int),
                         len(snr) - 1)
        per = self._per_model.per_array(snr[idx], rate_index, self._payload)
        if self._floor_loss_prob > 0:
            per = 1.0 - (1.0 - per) * (1.0 - self._floor_loss_prob)
        rng = np.random.default_rng(self._seed + 0xF16)
        return rng.random(n_packets) < per  # True = lost


def generate_trace(
    environment: Environment,
    script: MotionScript,
    seed: int = 0,
    payload_bytes: int = 1000,
) -> ChannelTrace:
    """One-call convenience wrapper around :class:`TraceGenerator`."""
    return TraceGenerator(environment, script, seed, payload_bytes=payload_bytes).generate()


def generate_packet_loss_series(
    environment: Environment,
    script: MotionScript,
    rate_index: int,
    packets_per_s: float,
    seed: int = 0,
) -> np.ndarray:
    """Convenience wrapper for :meth:`TraceGenerator.packet_loss_series`."""
    gen = TraceGenerator(environment, script, seed)
    return gen.packet_loss_series(rate_index, packets_per_s)
