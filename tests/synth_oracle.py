"""Scalar oracle for trace and hint synthesis.

These are the per-sample loops that :mod:`repro.channel.tracegen`,
:mod:`repro.sensors.accelerometer` and :mod:`repro.core.movement` ran
before synthesis became an array program: one
:meth:`MotionScript.state_at` per sample, one ``Environment.mean_snr_db``
per sample, one ``rng.normal`` per shadowing step and per sway step,
and one detector-hysteresis step per accelerometer report.  They are kept here, outside ``src/``, as the
executable spec the array path must match byte for byte
(``tests/test_synth_equivalence.py``) and as the baseline of the
synthesis benchmark (``benchmarks/test_bench_synth.py``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.channel.ber import DEFAULT_PER_MODEL
from repro.channel.fading import RiceanFadingProcess
from repro.channel.rates import N_RATES
from repro.channel.trace import SLOT_S, ChannelTrace
from repro.core.movement import jerk_series
from repro.sensors.accelerometer import (
    _DRIVE_SWAY,
    _GAIT_AMPL,
    _GAIT_HZ,
    _GRAVITY,
    _RAMP_S,
    _STILL_NOISE,
    _SWAY_TAU_S,
    _WALK_SWAY,
    ACCEL_RATE_HZ,
)
from repro.sensors.trajectory import Motion

FINE_DT_S = 0.001
FLOOR_LOSS_PROB = 0.015


def snr_series(env, script, seed, dt_s=FINE_DT_S, zero_initial_shadow=False):
    """``TraceGenerator.snr_series``, one sample at a time."""
    n = int(round(script.duration_s / dt_s))
    rng = np.random.default_rng(seed)
    fading = RiceanFadingProcess(
        k_factor=env.k_factor,
        residual_doppler_hz=env.residual_doppler_hz,
        seed=int(rng.integers(2**31)),
        min_initial_gain_db=-3.0,
    )
    times = (np.arange(n) + 0.5) * dt_s
    xs = np.empty(n)
    ys = np.empty(n)
    speeds = np.empty(n)
    for i, t in enumerate(times):
        state = script.state_at(t)
        xs[i], ys[i] = state.x_m, state.y_m
        speeds[i] = state.speed_mps if state.moving else 0.0

    dx = xs - xs[0]
    dy = ys - ys[0]
    distances = np.hypot(dx + env.base_distance_m, dy)
    mean_snr = np.array([env.mean_snr_db(d) for d in distances])

    shadow = np.empty(n)
    sigma = env.shadow_sigma_db
    corr = env.shadow_corr_m
    value = 0.0 if zero_initial_shadow else rng.normal(0.0, sigma)
    step_dist = speeds * dt_s
    for i in range(n):
        rho = math.exp(-step_dist[i] / corr) if step_dist[i] > 0 else 1.0
        if rho < 1.0:
            value = rho * value + math.sqrt(1.0 - rho * rho) * rng.normal(0.0, sigma)
        shadow[i] = value

    fading_db = fading.sample_series(speeds, dt_s)
    return mean_snr + shadow + fading_db


def generate(env, script, seed, payload_bytes=1000):
    """``TraceGenerator.generate`` on :func:`snr_series`."""
    fine_snr = snr_series(env, script, seed)
    per_slot = int(round(SLOT_S / FINE_DT_S))
    n_slots = len(fine_snr) // per_slot
    fine_snr = fine_snr[: n_slots * per_slot].reshape(n_slots, per_slot)
    slot_snr = fine_snr.mean(axis=1)
    rng = np.random.default_rng(seed + 0x5EED)
    fates = np.empty((n_slots, N_RATES), dtype=bool)
    per_all = DEFAULT_PER_MODEL.per_matrix(fine_snr.ravel(), payload_bytes)
    per_all = per_all.reshape(n_slots, per_slot, N_RATES)
    for r in range(N_RATES):
        slot_per = per_all[:, :, r].mean(axis=1)
        slot_per = 1.0 - (1.0 - slot_per) * (1.0 - FLOOR_LOSS_PROB)
        fates[:, r] = rng.random(n_slots) >= slot_per
    moving = np.array(
        [script.moving_at((i + 0.5) * SLOT_S) for i in range(n_slots)],
        dtype=bool,
    )
    return ChannelTrace(fates=fates, snr_db=slot_snr, moving=moving,
                        environment=env.name, seed=seed)


def packet_loss_series(env, script, seed, rate_index, packets_per_s):
    """``TraceGenerator.packet_loss_series`` on :func:`snr_series`."""
    dt = 1.0 / packets_per_s
    fine_dt = min(dt, FINE_DT_S)
    snr = snr_series(env, script, seed, fine_dt)
    n_packets = int(script.duration_s * packets_per_s)
    idx = np.minimum((np.arange(n_packets) * dt / fine_dt).astype(int),
                     len(snr) - 1)
    per = DEFAULT_PER_MODEL.per_array(snr[idx], rate_index, 1000)
    per = 1.0 - (1.0 - per) * (1.0 - FLOOR_LOSS_PROB)
    rng = np.random.default_rng(seed + 0xF16)
    return rng.random(n_packets) < per


def ramp_envelope(moving, ramp_samples):
    """``accelerometer._ramp_envelope``, one sample at a time."""
    n = len(moving)
    env = moving.astype(np.float64)
    if ramp_samples <= 1:
        return env
    out = env.copy()
    level = 0.0
    step = 1.0 / ramp_samples
    for i in range(n):
        if env[i] > 0:
            level = min(1.0, level + step)
            out[i] = level
        else:
            level = 0.0
            out[i] = 0.0
    return out


def forces(script, seed, rate_hz=ACCEL_RATE_HZ):
    """``Accelerometer.force_array``, one report at a time."""
    n = int(script.duration_s * rate_hz)
    dt = 1.0 / rate_hz
    rng = np.random.default_rng(seed)
    out = np.empty((n, 3), dtype=np.float64)
    out[:] = _GRAVITY
    out += rng.normal(0.0, _STILL_NOISE, size=(n, 3))

    times = np.arange(n) * dt
    moving = np.zeros(n, dtype=bool)
    sway_std = np.zeros(n)
    for i, t in enumerate(times):
        state = script.state_at(t)
        if state.moving:
            moving[i] = True
            sway_std[i] = _DRIVE_SWAY if state.kind is Motion.DRIVE else _WALK_SWAY
    if not moving.any():
        return out

    ramp = ramp_envelope(moving, int(round(_RAMP_S / dt)))
    rho = math.exp(-dt / _SWAY_TAU_S)
    innov = math.sqrt(1.0 - rho * rho)
    sway = np.zeros(3)
    gait_phase = rng.uniform(0.0, 2.0 * math.pi)
    for i in range(n):
        if ramp[i] <= 0.0:
            sway[:] = 0.0
            continue
        sway = rho * sway + innov * rng.normal(0.0, 1.0, size=3)
        amp = sway_std[i] * ramp[i]
        out[i] += amp * sway
        gait_phase += 2.0 * math.pi * _GAIT_HZ * dt
        bob = _GAIT_AMPL * ramp[i] * math.sin(gait_phase)
        out[i, 2] += bob
        out[i, 0] += 0.3 * bob
    return out


def movement_hint_series(forces, threshold, hold_window, avg_window):
    """``movement.movement_hint_series``, one report at a time."""
    high = jerk_series(forces, avg_window) > threshold
    n = len(high)
    out = np.zeros(n, dtype=bool)
    moving = False
    since_high = hold_window + 1
    warmup = 2 * avg_window - 1
    for t in range(n):
        if t < warmup:
            continue
        if high[t]:
            since_high = 0
        else:
            since_high += 1
        if moving:
            moving = since_high <= hold_window
        else:
            moving = bool(high[t])
        out[t] = moving
    return out
