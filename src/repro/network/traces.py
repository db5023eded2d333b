"""Per-station artefacts: motion scripts, channel traces, hint series.

Every station of a :class:`~repro.network.scenario.NetworkScenario` is
driven by three artefacts, each a pure function of the scenario:

* a :class:`~repro.sensors.trajectory.MotionScript` expanded from the
  station's mobility recipe (``vehicle`` stations follow Manhattan-model
  traces from :func:`repro.vehicular.mobility.simulate_vehicles`);
* a :class:`~repro.channel.trace.ChannelTrace` generated from that
  script in the scenario's radio environment -- the same trace-replay
  methodology as the single-link simulator, one trace per station; and
* the receiver-side movement :class:`~repro.core.architecture.HintSeries`
  from the synthetic accelerometer + jerk detector over the same script.

Traces and hint series come from the process trace store
(:mod:`repro.channel.store`), keyed by the *station recipe* rather than
the scenario name, so scenarios that share a station spec -- policy and
engine variants of one world, too -- share artefacts, parallel workers
regenerate nothing the store already holds, and repeated runs are warm.
The store's in-process memo serves repeated lookups within one process.

Modelling note: a station keeps one trace for its whole run.  Handoffs
change which contention domain (AP cell) shares airtime with the
station, not the fate physics of its own channel -- the simplification
that keeps 1-station scenarios bit-identical to the link simulator.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ..channel import ChannelTrace, environment_by_name, generate_trace, get_store
from ..core.architecture import HintAwareNode, HintSeries
from ..core.seeds import derive_seed
from ..sensors.trajectory import (
    Motion,
    MotionScript,
    MotionSegment,
    pacing_script,
)
from ..vehicular import mobility as vehicular_mobility
from .scenario import NetworkScenario

__all__ = [
    "station_seed",
    "station_script",
    "station_trace",
    "station_hints",
]


def station_seed(scenario: NetworkScenario, index: int) -> int:
    """The per-station RNG seed (collision-free across stations)."""
    return derive_seed(scenario.seed, "net-station", scenario.stations[index].name)


@lru_cache(maxsize=64)
def _vehicle_ensemble(vehicles_seed: int, duration_s: int,
                      n_vehicle: int) -> tuple[MotionScript, ...]:
    """One :func:`simulate_vehicles` ensemble, as motion scripts.

    Cached on exactly the inputs the simulation consumes, so scenarios
    differing only in fields irrelevant to the ensemble (association
    policy, hint mode, ...) share it.
    """
    network = vehicular_mobility.simulate_vehicles(
        n_vehicles=max(2, n_vehicle),
        duration_s=duration_s,
        seed=vehicles_seed,
    )
    return tuple(tr.to_motion_script() for tr in network.traces[:n_vehicle])


def _vehicle_scripts(scenario: NetworkScenario) -> tuple[MotionScript, ...]:
    """Scripts for the scenario's ``vehicle`` stations, in station order.

    One ensemble per scenario seed: vehicle k is assigned to the k-th
    vehicle station, so all vehicle stations share one road network and
    seed (they genuinely co-move).
    """
    n_vehicle = sum(1 for s in scenario.stations if s.mobility == "vehicle")
    if n_vehicle == 0:
        return ()
    return _vehicle_ensemble(
        derive_seed(scenario.seed, "net-vehicles"),
        int(math.ceil(scenario.duration_s)) + 1,
        n_vehicle,
    )


def station_script(scenario: NetworkScenario, index: int) -> MotionScript:
    """Expand one station's mobility recipe into a motion script."""
    spec = scenario.stations[index]
    duration = scenario.duration_s
    if spec.mobility == "vehicle":
        vehicle_rank = sum(
            1 for s in scenario.stations[:index] if s.mobility == "vehicle"
        )
        return _vehicle_scripts(scenario)[vehicle_rank]
    if spec.mobility == "static":
        segments = [MotionSegment(Motion.STATIONARY, duration)]
    elif spec.mobility == "walk":
        segments = [MotionSegment(Motion.WALK, duration, spec.speed_mps,
                                  spec.heading_deg)]
    elif spec.mobility == "pace":
        return pacing_script(duration, speed_mps=spec.speed_mps,
                             heading_deg=spec.heading_deg,
                             start_xy=spec.start_xy)
    elif spec.mobility == "drive_by":
        # Two passes: approach then recede, like the Figure 3-4 traces.
        half = duration / 2.0
        segments = [
            MotionSegment(Motion.DRIVE, half, spec.speed_mps,
                          spec.heading_deg, outdoor=True),
            MotionSegment(Motion.DRIVE, duration - half, spec.speed_mps,
                          (spec.heading_deg + 180.0) % 360.0, outdoor=True),
        ]
    else:  # pragma: no cover - guarded by StationSpec validation
        raise ValueError(f"unknown mobility {spec.mobility!r}")
    return MotionScript(segments, start_xy=spec.start_xy)


def _station_key_fields(scenario: NetworkScenario, index: int) -> dict:
    """Store-key fields that fully determine a station's artefacts."""
    spec = scenario.stations[index]
    fields = dict(
        mobility=spec.mobility,
        speed=spec.speed_mps,
        heading=spec.heading_deg,
        start=spec.start_xy,
        duration_s=scenario.duration_s,
        seed=station_seed(scenario, index),
    )
    if spec.mobility == "vehicle":
        # Vehicle scripts depend on the shared ensemble, not the spec.
        fields.update(
            vehicles_seed=derive_seed(scenario.seed, "net-vehicles"),
            n_vehicles=sum(1 for s in scenario.stations if s.mobility == "vehicle"),
            vehicle_rank=sum(
                1 for s in scenario.stations[:index] if s.mobility == "vehicle"
            ),
        )
    return fields


def station_trace(scenario: NetworkScenario, index: int) -> ChannelTrace:
    """The station's channel trace (store-backed, exact round-trip)."""

    def generate() -> ChannelTrace:
        trace = generate_trace(environment_by_name(scenario.environment),
                               station_script(scenario, index),
                               seed=station_seed(scenario, index))
        if trace.duration_s > scenario.duration_s:
            # Vehicle scripts run to whole seconds; trim to the scenario.
            trace = trace.window(0.0, scenario.duration_s)
        return trace

    return get_store().trace("net-trace", generate, env=scenario.environment,
                             **_station_key_fields(scenario, index))


def station_hints(scenario: NetworkScenario, index: int) -> HintSeries:
    """The station's receiver-side movement-hint series (store-backed)."""
    return get_store().hint_series(
        "net-hints",
        lambda: HintAwareNode(station_script(scenario, index),
                              seed=station_seed(scenario, index)
                              ).movement_hint_series(),
        **_station_key_fields(scenario, index))
