"""Shared machinery for the per-figure experiment drivers.

Every driver is a pure function of (seed, parameters) returning a plain
dict of rows/series -- what the paper's corresponding figure or table
displays -- plus a ``main()`` that prints it.  Heavy intermediates
(traces, hint series) come from the process trace store
(:mod:`repro.channel.store`): its in-process memo serves the figures of
one run, and its content-addressed ``.npz`` files are shared by
repeated runs and :class:`repro.api.Session` worker processes instead
of regenerating traces per process.  The functions here only name each
recipe's key fields and its generator.
"""

from __future__ import annotations

import numpy as np

from ..channel import ChannelTrace, Environment, environment_by_name, generate_trace, get_store
from ..core.architecture import HintAwareNode, HintSeries
from ..rate import RATE_PROTOCOLS
from ..sensors import (
    MotionScript,
    drive_by_script,
    mixed_mobility_script,
    pacing_script,
    script_from_segments,
    stationary_script,
)

__all__ = [
    "RATE_PROTOCOLS",
    "script_for_mode",
    "cached_trace",
    "cached_hints",
    "cached_script_trace",
    "cached_script_hints",
    "print_table",
]

#: The evaluation's three indoor/outdoor environments (Figure 3-5).
INDOOR_OUTDOOR_ENVS = ("office", "hallway", "outdoor")

# RATE_PROTOCOLS is re-exported from repro.rate, where the registry
# lives; drivers keep importing it from here.

#: SampleRate windows tried per trace for the paper's post-facto best (s).
SAMPLERATE_WINDOWS_S = (2.0, 5.0, 10.0)


def script_for_mode(mode: str, seed: int = 0, duration_s: float = 20.0) -> MotionScript:
    """The motion script for an experiment mode.

    ``mixed`` alternates which half moves, like the paper ("static for
    the first 10 seconds and mobile for the next 10 seconds or the
    vice versa").
    """
    if mode == "static":
        return stationary_script(duration_s)
    if mode == "mobile":
        return pacing_script(duration_s)
    if mode == "mixed":
        return mixed_mobility_script(duration_s, mobile_first=bool(seed % 2))
    if mode == "vehicular":
        rng = np.random.default_rng(seed)
        # 8-72 km/h drive-bys past the roadside sender (Figure 3-4).
        speed = float(rng.uniform(2.2, 20.0))
        return drive_by_script(passes=2, pass_duration_s=duration_s / 2.0,
                               speed_mps=speed)
    raise ValueError(f"unknown mode {mode!r}")


def cached_trace(env_name: str, mode: str, seed: int,
                 duration_s: float = 20.0) -> ChannelTrace:
    """Memoised trace generation (figures share trace sets).

    Backed by the process trace store: a trace generated once -- by any
    process on this machine -- is loaded from ``.npz`` thereafter.  The
    round-trip is exact, so cached and fresh traces replay identically.
    """
    return get_store().trace(
        "trace",
        lambda: generate_trace(environment_by_name(env_name),
                               script_for_mode(mode, seed, duration_s),
                               seed=seed),
        env=env_name, mode=mode, seed=seed, duration_s=duration_s)


def cached_hints(mode: str, seed: int, duration_s: float = 20.0) -> HintSeries:
    """Memoised receiver-side movement-hint series for a mode/seed.

    Store-backed like :func:`cached_trace`: the accelerometer synthesis
    and jerk detection run at most once per (mode, seed, duration).
    """
    return get_store().hint_series(
        "hints",
        lambda: HintAwareNode(script_for_mode(mode, seed, duration_s),
                              seed=seed).movement_hint_series(),
        mode=mode, seed=seed, duration_s=duration_s)


def cached_script_trace(env_name: str, segments: tuple, seed: int) -> ChannelTrace:
    """Memoised trace for an explicit plain-value motion script.

    The twin of :func:`cached_trace` for workloads outside the four
    evaluation modes (``repro.api`` specs carrying ``segments``): the
    store key covers the segments themselves -- the recipe *is* the key.
    """
    return get_store().trace(
        "trace",
        lambda: generate_trace(environment_by_name(env_name),
                               script_from_segments(segments), seed=seed),
        env=env_name, segments=segments, seed=seed)


def cached_script_hints(segments: tuple, seed: int) -> HintSeries:
    """Movement-hint series for an explicit plain-value motion script
    (the :func:`cached_hints` twin of :func:`cached_script_trace`)."""
    return get_store().hint_series(
        "hints",
        lambda: HintAwareNode(script_from_segments(segments),
                              seed=seed).movement_hint_series(),
        segments=segments, seed=seed)


def print_table(title: str, rows: dict, value_format: str = "{:.3f}") -> None:
    """Uniform experiment output: one labelled row per entry."""
    print(f"== {title} ==")
    for key, value in rows.items():
        if isinstance(value, dict):
            cells = "  ".join(
                f"{k}={value_format.format(v) if isinstance(v, float) else v}"
                for k, v in value.items()
            )
            print(f"  {key:24s} {cells}")
        elif isinstance(value, float):
            print(f"  {key:24s} {value_format.format(value)}")
        else:
            print(f"  {key:24s} {value}")
