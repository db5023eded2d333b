"""Network scenario configuration (Sections 2.3, 5.2 at network scale).

A :class:`NetworkScenario` describes one multi-station, multi-AP world
declaratively: which stations exist, how each one moves, what traffic it
offers, which rate protocol it runs, where the APs sit, and how hints
and association are handled.  Scenarios are frozen dataclasses of plain
values, so they pickle across :class:`~repro.api.Session` worker
processes and their fields can key the on-disk trace store (every
per-station artefact is a pure function of the scenario).

Mobility is a *recipe string*, not a script object, for exactly that
reason: :mod:`repro.network.traces` expands each recipe into a
:class:`~repro.sensors.trajectory.MotionScript` deterministically from
the scenario seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..ap.association import ASSOC_RANGE_M
from ..channel.environments import ENVIRONMENTS
from ..rate import RATE_PROTOCOLS
from ..sensors.trajectory import WALKING_SPEED

__all__ = [
    "ApSpec",
    "StationSpec",
    "NetworkScenario",
    "MOBILITY_KINDS",
    "HINT_MODES",
    "ASSOCIATION_POLICIES",
    "TRAFFIC_KINDS",
    "NETWORK_ENGINES",
]

#: Station mobility recipes understood by :mod:`repro.network.traces`.
MOBILITY_KINDS = ("static", "pace", "walk", "drive_by", "vehicle")

#: How hints reach the sender-side rate controllers:
#: ``series`` -- the receiver's hint series delayed by ``hint_delay_s``
#: (the :class:`~repro.mac.LinkSimulator` model, so 1-station scenarios
#: are bit-identical to it); ``protocol`` -- hints ride real frame
#: exchanges through :class:`~repro.core.hint_protocol.HintChannel`
#: (delivered only when an exchange succeeds or a beacon fires);
#: ``off`` -- no hints at all.
HINT_MODES = ("series", "protocol", "off")

#: Association/handoff policies: strongest signal vs. learned lifetime.
ASSOCIATION_POLICIES = ("strongest", "lifetime")

TRAFFIC_KINDS = ("udp", "tcp")

#: Scenario replay engines: ``reference`` -- per-station
#: :class:`~repro.mac.LinkProcess` steppers under the exact scheduler
#: (the oracle); ``batch`` -- the SoA engine
#: (:class:`~repro.network.batch.NetworkBatchEngine`) that advances
#: stations in vectorized passes between contention barriers.  Results
#: are bit-identical; ``batch`` is the fast path for dense cells.
NETWORK_ENGINES = ("reference", "batch")


@dataclass(frozen=True)
class ApSpec:
    """One access point: identity and position (metres)."""

    bssid: str
    x_m: float
    y_m: float


@dataclass(frozen=True)
class StationSpec:
    """One mobile client of the scenario.

    ``mobility`` selects the recipe; ``speed_mps``/``heading_deg`` feed
    the recipes that use them (``walk``, ``pace``, ``drive_by``).
    ``vehicle`` stations follow Manhattan-model vehicle traces from
    :func:`repro.vehicular.mobility.simulate_vehicles` instead (one
    vehicle per such station, drawn from the scenario seed).
    """

    name: str
    mobility: str = "static"
    speed_mps: float = WALKING_SPEED
    heading_deg: float = 90.0
    start_xy: tuple[float, float] = (0.0, 0.0)
    traffic: str = "udp"
    protocol: str = "RapidSample"

    def __post_init__(self) -> None:
        if self.mobility not in MOBILITY_KINDS:
            raise ValueError(
                f"unknown mobility {self.mobility!r}; expected one of {MOBILITY_KINDS}"
            )
        if self.traffic not in TRAFFIC_KINDS:
            raise ValueError(
                f"unknown traffic {self.traffic!r}; expected one of {TRAFFIC_KINDS}"
            )
        if self.speed_mps < 0:
            raise ValueError("speed must be non-negative")
        if self.protocol not in RATE_PROTOCOLS:
            raise ValueError(
                f"unknown rate protocol {self.protocol!r}; "
                f"expected one of {sorted(RATE_PROTOCOLS)}"
            )


@dataclass(frozen=True)
class NetworkScenario:
    """A complete multi-station, multi-AP simulation recipe."""

    name: str
    stations: tuple[StationSpec, ...]
    aps: tuple[ApSpec, ...]
    environment: str = "office"
    duration_s: float = 20.0
    seed: int = 0
    #: How stations pick their AP on each scan.
    association_policy: str = "strongest"
    #: How sender-side controllers learn receiver hints (see HINT_MODES).
    hint_mode: str = "series"
    #: Hint Protocol delivery delay in ``series`` mode (matches
    #: :attr:`repro.mac.SimConfig.hint_delay_s`).
    hint_delay_s: float = 0.02
    #: Standalone hint-frame beacon interval in ``protocol`` mode
    #: (:class:`~repro.core.hint_protocol.HintChannel`; 0 disables).
    hint_beacon_s: float = 0.1
    #: Probe-scan cadence: stations re-evaluate their AP this often.
    scan_interval_s: float = 1.0
    #: A station can associate with APs within this range (metres).
    assoc_range_m: float = ASSOC_RANGE_M
    #: Warm the lifetime scorer with this many training walks before the
    #: run ("APs ... learn, over time": the scenario starts after that
    #: time has passed).  0 starts cold, where the lifetime policy
    #: behaves like the baseline until it has observed lifetimes.
    pretrain_walks: int = 0
    #: Scenario replay engine (see :data:`NETWORK_ENGINES`): results are
    #: bit-identical, only the speed differs.
    engine: str = "reference"

    def __post_init__(self) -> None:
        if self.engine not in NETWORK_ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; "
                f"expected one of {NETWORK_ENGINES}"
            )
        if not self.stations:
            raise ValueError("a scenario needs at least one station")
        if not self.aps:
            raise ValueError("a scenario needs at least one AP")
        if self.environment not in ENVIRONMENTS:
            raise ValueError(
                f"unknown environment {self.environment!r}; "
                f"choose from {sorted(ENVIRONMENTS)}"
            )
        if self.hint_mode not in HINT_MODES:
            raise ValueError(
                f"unknown hint mode {self.hint_mode!r}; expected one of {HINT_MODES}"
            )
        if self.association_policy not in ASSOCIATION_POLICIES:
            raise ValueError(
                f"unknown association policy {self.association_policy!r}; "
                f"expected one of {ASSOCIATION_POLICIES}"
            )
        if self.association_policy == "lifetime" and self.hint_mode == "off":
            raise ValueError(
                "the lifetime policy scores augmented probe requests; "
                "with hint_mode='off' probes carry no hints and the "
                "policy would silently degrade to strongest-signal -- "
                "use hint_mode='series' or 'protocol'"
            )
        # ``math.isfinite`` first: NaN compares False against every
        # bound, so the sign checks alone would let it through.
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ValueError("duration must be finite and positive")
        if self.pretrain_walks < 0:
            raise ValueError("pretrain_walks must be non-negative")
        if not (math.isfinite(self.hint_delay_s) and self.hint_delay_s >= 0):
            raise ValueError(
                "hint_delay_s must be finite and non-negative: a negative "
                "delay would deliver hints before they occur"
            )
        if not (math.isfinite(self.hint_beacon_s) and self.hint_beacon_s >= 0):
            raise ValueError(
                "hint_beacon_s must be finite and non-negative (0 disables)")
        if not (math.isfinite(self.assoc_range_m) and self.assoc_range_m > 0):
            raise ValueError("assoc_range_m must be finite and positive")
        if not (math.isfinite(self.scan_interval_s)
                and self.scan_interval_s > 0):
            raise ValueError("scan interval must be finite and positive")
        names = [s.name for s in self.stations]
        if len(set(names)) != len(names):
            raise ValueError("station names must be unique")
        bssids = [ap.bssid for ap in self.aps]
        if len(set(bssids)) != len(bssids):
            raise ValueError("AP bssids must be unique")

    @property
    def n_stations(self) -> int:
        return len(self.stations)

    @property
    def n_aps(self) -> int:
        return len(self.aps)

    def with_overrides(self, **changes) -> "NetworkScenario":
        """A copy with fields replaced (``dataclasses.replace`` sugar)."""
        return replace(self, **changes)
