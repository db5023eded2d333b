"""Declarative run specifications: what to simulate, not how.

A spec is a frozen dataclass of plain values describing one workload:

* :class:`LinkReplaySpec` -- one single-link replay (one protocol, one
  channel, one seed), the unit the Chapter 3 figures are built from;
* :class:`GridSpec` -- a seed-expanded sweep of link replays
  (environments x seeds x protocols), the shape of every figure grid;
* :class:`NetworkRunSpec` -- one multi-station scenario replay from the
  :mod:`repro.network` catalog.

Every spec JSON-round-trips through ``to_dict()`` /
``from_dict()`` (and the kind-dispatching :func:`spec_from_dict`), so
workloads can be stored next to their results, diffed, and shipped to
remote workers; :class:`~repro.api.session.Session` plans and executes
them.  The round-trip is lossless -- ``from_dict(to_dict(spec)) ==
spec`` and the replay it produces is bit-identical, which the API test
suite pins.

Channel content is addressed two ways: by *recipe* (``env`` + ``mode``
+ ``seed``, the figure drivers' scheme, shared with the on-disk trace
store) or -- for workloads outside the four evaluation modes -- by an
explicit ``segments`` motion script (a tuple of plain-value motion
segments; see :func:`segments_of`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any

# Canonical implementations live with the trajectory types; re-exported
# here because specs are where API users meet the plain-value form.
from ..sensors.trajectory import Motion, script_from_segments, segments_of
from .config import ConfigError

__all__ = [
    "LINK_MODES",
    "LinkReplaySpec",
    "GridSpec",
    "NetworkRunSpec",
    "segments_of",
    "script_from_segments",
    "spec_from_dict",
]

#: Motion-script recipes understood by ``mode`` (the evaluation's four
#: mobility classes; :func:`repro.experiments.common.script_for_mode`).
LINK_MODES = ("static", "mobile", "mixed", "vehicular")

#: JSON form of one motion segment:
#: ``(kind, duration_s, speed_mps, heading_deg, turn_rate_dps, outdoor)``.
_SEGMENT_FIELDS = 6

#: Segment kinds: the :class:`~repro.sensors.trajectory.Motion` values.
_SEGMENT_KINDS = tuple(motion.value for motion in Motion)


def _segment_number(seg: tuple, name: str, value) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"segment {seg!r}: {name} must be a finite "
                          f"number, not {value!r}")
    return number


def _normalise_segments(segments) -> tuple[tuple, ...] | None:
    """Canonical tuple form (JSON decodes to lists; specs hold tuples).

    Validates each segment here, at spec construction, so a malformed
    script fails as a :class:`ConfigError` instead of inside a worker
    mid-replay.
    """
    if segments is None:
        return None
    out = []
    for seg in segments:
        seg = tuple(seg)
        if len(seg) != _SEGMENT_FIELDS:
            raise ConfigError(
                f"segment {seg!r} must have {_SEGMENT_FIELDS} fields "
                f"(kind, duration_s, speed_mps, heading_deg, "
                f"turn_rate_dps, outdoor)"
            )
        kind, duration_s, speed_mps, heading_deg, turn_rate_dps, outdoor = seg
        if kind not in _SEGMENT_KINDS:
            raise ConfigError(f"segment {seg!r}: unknown kind {kind!r}; "
                              f"expected one of {_SEGMENT_KINDS}")
        duration_s = _segment_number(seg, "duration_s", duration_s)
        speed_mps = _segment_number(seg, "speed_mps", speed_mps)
        if duration_s <= 0:
            raise ConfigError(f"segment {seg!r}: duration_s must be > 0")
        if speed_mps < 0:
            raise ConfigError(f"segment {seg!r}: speed_mps must be >= 0")
        out.append((kind, duration_s, speed_mps,
                    _segment_number(seg, "heading_deg", heading_deg),
                    _segment_number(seg, "turn_rate_dps", turn_rate_dps),
                    bool(outdoor)))
    if not out:
        raise ConfigError("segments must be None or non-empty")
    return tuple(out)


def _check_protocol(protocol: str) -> None:
    from ..rate import RATE_PROTOCOLS

    if protocol not in RATE_PROTOCOLS:
        raise ConfigError(
            f"unknown protocol {protocol!r}; "
            f"expected one of {sorted(RATE_PROTOCOLS)}"
        )


def _check_duration(duration_s) -> None:
    if not math.isfinite(duration_s) or duration_s <= 0:
        raise ConfigError(f"duration_s must be positive and finite, "
                          f"not {duration_s!r}")


def _check_best_samplerate(protocol: str) -> None:
    # The post-facto bias replays SampleRate windows; on any other
    # protocol it would replay SampleRate under that protocol's label.
    if protocol != "SampleRate":
        raise ConfigError(
            f"best_samplerate applies to SampleRate only, not {protocol!r}"
        )


def _check_env(env: str) -> None:
    from ..channel.environments import ENVIRONMENTS

    if env not in ENVIRONMENTS:
        raise ConfigError(
            f"unknown environment {env!r}; "
            f"expected one of {sorted(ENVIRONMENTS)}"
        )


@dataclass(frozen=True)
class LinkReplaySpec:
    """One trace-driven link replay.

    ``seed=None`` asks the session to mint one from its own seed via
    the :func:`~repro.core.seeds.derive_seed` lineage; an explicit seed
    reproduces the paper's additive numbering.  When ``segments`` is
    given it overrides ``mode``'s recipe as the motion script (and the
    replay duration follows the script); ``mode`` then only labels the
    workload.
    """

    protocol: str
    env: str = "office"
    mode: str = "mixed"
    seed: int | None = None
    duration_s: float = 20.0
    tcp: bool = True
    #: Apply the paper's post-facto SampleRate bias: replay every
    #: candidate window and keep the best (Section 3.5's "best
    #: SampleRate parameter in each case").
    best_samplerate: bool = False
    #: Explicit motion script as plain values (see :func:`segments_of`).
    segments: tuple[tuple, ...] | None = None

    def __post_init__(self) -> None:
        _check_protocol(self.protocol)
        _check_env(self.env)
        if self.mode not in LINK_MODES:
            raise ConfigError(
                f"unknown mode {self.mode!r}; expected one of {LINK_MODES}"
            )
        _check_duration(self.duration_s)
        if self.best_samplerate:
            _check_best_samplerate(self.protocol)
        object.__setattr__(self, "segments",
                           _normalise_segments(self.segments))

    @classmethod
    def from_script(cls, protocol: str, script, env: str = "office",
                    seed: int | None = None, tcp: bool = True,
                    best_samplerate: bool = False) -> "LinkReplaySpec":
        """Spec for a hand-built :class:`MotionScript` workload."""
        return cls(protocol=protocol, env=env, seed=seed,
                   duration_s=float(script.duration_s), tcp=tcp,
                   best_samplerate=best_samplerate,
                   segments=segments_of(script))

    def to_dict(self) -> dict:
        return {
            "kind": "link_replay",
            "protocol": self.protocol,
            "env": self.env,
            "mode": self.mode,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "tcp": self.tcp,
            "best_samplerate": self.best_samplerate,
            "segments": (None if self.segments is None
                         else [list(seg) for seg in self.segments]),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LinkReplaySpec":
        return cls(**_spec_kwargs(cls, data, "link_replay"))


@dataclass(frozen=True)
class GridSpec:
    """A seed-expanded sweep of link replays.

    Expands (in a fixed, documented order: environment-major, then
    seed, then protocol -- the figure drivers' aggregation order) into
    ``len(envs) * n_seeds * len(protocols)`` link replays sharing
    traces per (env, seed).  ``seed0=None`` derives a base seed from
    the session; otherwise seeds are ``seed0 + i`` like the paper.
    """

    protocols: tuple[str, ...]
    envs: tuple[str, ...] = ("office",)
    mode: str = "mixed"
    n_seeds: int = 10
    seed0: int | None = None
    duration_s: float = 20.0
    tcp: bool = True
    #: Protocols that get the post-facto best-window bias when they
    #: appear in ``protocols`` (the paper applies it to SampleRate).
    best_samplerate_protocols: tuple[str, ...] = ("SampleRate",)

    def __post_init__(self) -> None:
        object.__setattr__(self, "protocols", tuple(self.protocols))
        object.__setattr__(self, "envs", tuple(self.envs))
        object.__setattr__(self, "best_samplerate_protocols",
                           tuple(self.best_samplerate_protocols))
        if not self.protocols:
            raise ConfigError("a grid needs at least one protocol")
        if not self.envs:
            raise ConfigError("a grid needs at least one environment")
        for protocol in self.protocols + self.best_samplerate_protocols:
            _check_protocol(protocol)
        for protocol in self.best_samplerate_protocols:
            _check_best_samplerate(protocol)
        for env in self.envs:
            _check_env(env)
        if self.mode not in LINK_MODES:
            raise ConfigError(
                f"unknown mode {self.mode!r}; expected one of {LINK_MODES}"
            )
        if self.n_seeds < 1:
            raise ConfigError("n_seeds must be >= 1")
        _check_duration(self.duration_s)

    @property
    def n_tasks(self) -> int:
        return len(self.envs) * self.n_seeds * len(self.protocols)

    def expand(self, seed0: int) -> list[LinkReplaySpec]:
        """The grid's link replays, in aggregation order."""
        return [
            LinkReplaySpec(
                protocol=protocol,
                env=env,
                mode=self.mode,
                seed=seed0 + i,
                duration_s=self.duration_s,
                tcp=self.tcp,
                best_samplerate=protocol in self.best_samplerate_protocols,
            )
            for env in self.envs
            for i in range(self.n_seeds)
            for protocol in self.protocols
        ]

    def to_dict(self) -> dict:
        return {
            "kind": "grid",
            "protocols": list(self.protocols),
            "envs": list(self.envs),
            "mode": self.mode,
            "n_seeds": self.n_seeds,
            "seed0": self.seed0,
            "duration_s": self.duration_s,
            "tcp": self.tcp,
            "best_samplerate_protocols": list(self.best_samplerate_protocols),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GridSpec":
        return cls(**_spec_kwargs(cls, data, "grid"))


@dataclass(frozen=True)
class NetworkRunSpec:
    """One multi-station scenario replay from the network catalog.

    ``overrides`` pass through to the catalog builder (scenario fields
    like ``pretrain_walks`` or builder knobs like ``n_stations``) as a
    tuple of ``(name, value)`` pairs so the spec stays hashable; a
    plain dict is accepted and canonicalised.
    """

    scenario: str
    seed: int | None = None
    policy: str = "strongest"
    duration_s: float | None = None
    overrides: tuple[tuple[str, Any], ...] = field(default=())

    def __post_init__(self) -> None:
        from ..network.scenario import ASSOCIATION_POLICIES
        from ..network.scenarios import SCENARIOS

        if self.scenario not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario {self.scenario!r}; "
                f"expected one of {sorted(SCENARIOS)}"
            )
        if self.policy not in ASSOCIATION_POLICIES:
            raise ConfigError(
                f"unknown association policy {self.policy!r}; "
                f"expected one of {ASSOCIATION_POLICIES}"
            )
        if self.duration_s is not None:
            _check_duration(self.duration_s)
        overrides = self.overrides
        if isinstance(overrides, dict):
            overrides = overrides.items()
        object.__setattr__(
            self, "overrides",
            tuple(sorted((str(k), v) for k, v in overrides)),
        )

    def build_scenario(self, seed: int, engine: str):
        """The concrete :class:`NetworkScenario` this spec describes."""
        from ..network import make_scenario

        return make_scenario(
            self.scenario, seed=seed, duration_s=self.duration_s,
            association_policy=self.policy, engine=engine,
            **dict(self.overrides),
        )

    def to_dict(self) -> dict:
        return {
            "kind": "network_run",
            "scenario": self.scenario,
            "seed": self.seed,
            "policy": self.policy,
            "duration_s": self.duration_s,
            "overrides": dict(self.overrides),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkRunSpec":
        return cls(**_spec_kwargs(cls, data, "network_run"))


_SPEC_KINDS = {
    "link_replay": LinkReplaySpec,
    "grid": GridSpec,
    "network_run": NetworkRunSpec,
}


def _spec_kwargs(cls, data: dict, kind: str) -> dict:
    """``data`` minus the kind tag, checked against the dataclass."""
    payload = dict(data)
    found = payload.pop("kind", kind)
    if found != kind:
        raise ConfigError(
            f"{cls.__name__}.from_dict got kind {found!r}, expected {kind!r}"
        )
    names = {f.name for f in fields(cls)}
    unknown = set(payload) - names
    if unknown:
        raise ConfigError(
            f"{cls.__name__}.from_dict got unknown fields {sorted(unknown)}"
        )
    for name in ("protocols", "envs", "best_samplerate_protocols"):
        if name in payload and payload[name] is not None:
            payload[name] = tuple(payload[name])
    return payload


def spec_from_dict(data: dict):
    """Rebuild any spec from its ``to_dict()`` form (kind-dispatched)."""
    try:
        kind = data["kind"]
    except (TypeError, KeyError):
        raise ConfigError(
            "spec_from_dict needs a mapping with a 'kind' field"
        ) from None
    try:
        cls = _SPEC_KINDS[kind]
    except KeyError:
        raise ConfigError(
            f"unknown spec kind {kind!r}; "
            f"expected one of {sorted(_SPEC_KINDS)}"
        ) from None
    return cls.from_dict(data)
