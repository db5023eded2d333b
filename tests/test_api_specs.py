"""Spec JSON round-trips: ``from_dict(to_dict(spec))`` is lossless and
replays bit-identically.

A spec that survives JSON is a workload that can be stored, diffed and
shipped to a remote worker; these tests pin that the round-trip
preserves not just dataclass equality but the *simulation* -- the
replay of a round-tripped spec is field-for-field identical, reusing
the golden network catalog's shrunk scenario configuration.
"""

import json

import numpy as np
import pytest

from repro.api import (
    ConfigError,
    GridSpec,
    LinkReplaySpec,
    NetworkRunSpec,
    Session,
    segments_of,
    spec_from_dict,
)


def _roundtrip(spec):
    """Through real JSON text, like a stored workload would travel."""
    data = json.loads(json.dumps(spec.to_dict()))
    return spec_from_dict(data)


@pytest.fixture(scope="module")
def session():
    return Session(jobs=1)


class TestRoundTripEquality:
    def test_link_replay(self):
        spec = LinkReplaySpec(protocol="HintAware", env="hallway",
                              mode="mobile", seed=11, duration_s=6.0,
                              tcp=False, best_samplerate=False)
        assert _roundtrip(spec) == spec

    def test_link_replay_with_segments(self):
        from repro.sensors import stop_and_go_script

        spec = LinkReplaySpec.from_script(
            "RapidSample", stop_and_go_script(n_cycles=2, still_s=2.0,
                                              move_s=2.0), seed=3)
        back = _roundtrip(spec)
        assert back == spec
        assert isinstance(back.segments, tuple)
        assert all(isinstance(seg, tuple) for seg in back.segments)

    def test_grid(self):
        spec = GridSpec(protocols=("RapidSample", "SampleRate"),
                        envs=("office", "hallway"), mode="static",
                        n_seeds=3, seed0=5, duration_s=8.0, tcp=True)
        assert _roundtrip(spec) == spec

    def test_network_run(self):
        spec = NetworkRunSpec(scenario="dense_cell", seed=7, duration_s=4.0,
                              policy="strongest",
                              overrides={"n_stations": 8})
        back = _roundtrip(spec)
        assert back == spec
        assert back.overrides == (("n_stations", 8),)

    def test_unseeded_specs_roundtrip_none(self):
        spec = LinkReplaySpec(protocol="RapidSample")
        assert _roundtrip(spec).seed is None

    def test_kind_dispatch_rejects_garbage(self):
        with pytest.raises(ConfigError, match="kind"):
            spec_from_dict({"protocol": "RapidSample"})
        with pytest.raises(ConfigError, match="unknown spec kind"):
            spec_from_dict({"kind": "teleport"})
        with pytest.raises(ConfigError, match="unknown fields"):
            spec_from_dict({"kind": "link_replay", "protocol": "RapidSample",
                            "warp_factor": 9})


class TestSpecValidation:
    def test_best_samplerate_on_other_protocol_rejected(self):
        # The bias replays SampleRate windows; on another protocol it
        # would return SampleRate numbers under that protocol's label.
        with pytest.raises(ConfigError, match="best_samplerate"):
            LinkReplaySpec(protocol="RapidSample", best_samplerate=True)
        with pytest.raises(ConfigError, match="best_samplerate"):
            GridSpec(protocols=("RapidSample",),
                     best_samplerate_protocols=("RapidSample",))

    def test_best_samplerate_on_samplerate_accepted(self):
        assert LinkReplaySpec(protocol="SampleRate",
                              best_samplerate=True).best_samplerate
        grid = GridSpec(protocols=("RapidSample", "SampleRate"))
        assert [link.best_samplerate for link in grid.expand(0)[:2]] \
            == [False, True]

    @pytest.mark.parametrize("duration_s",
                             [0.0, -1.0, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_duration_rejected(self, duration_s):
        with pytest.raises(ConfigError, match="duration_s"):
            LinkReplaySpec(protocol="RapidSample", duration_s=duration_s)
        with pytest.raises(ConfigError, match="duration_s"):
            GridSpec(protocols=("RapidSample",), duration_s=duration_s)
        with pytest.raises(ConfigError, match="duration_s"):
            NetworkRunSpec(scenario="dense_cell", duration_s=duration_s)


#: A valid segment, field order as in :func:`segments_of`.
_WALK = ("walk", 2.0, 1.2, 0.0, 0.0, False)


class TestMalformedSegmentsRejected:
    """Bad motion segments fail at spec construction, not mid-replay."""

    CASES = {
        "unknown_kind": ("teleport", 2.0, 1.2, 0.0, 0.0, False),
        "negative_duration": ("walk", -1.0, 1.2, 0.0, 0.0, False),
        "zero_duration": ("walk", 0.0, 1.2, 0.0, 0.0, False),
        "nan_duration": ("walk", float("nan"), 1.2, 0.0, 0.0, False),
        "inf_duration": ("walk", float("inf"), 1.2, 0.0, 0.0, False),
        "negative_speed": ("walk", 2.0, -0.5, 0.0, 0.0, False),
        "nan_speed": ("drive", 2.0, float("nan"), 0.0, 0.0, False),
        "nan_heading": ("walk", 2.0, 1.2, float("nan"), 0.0, False),
        "inf_turn_rate": ("walk", 2.0, 1.2, 0.0, float("inf"), False),
        "non_numeric_duration": ("walk", "long", 1.2, 0.0, 0.0, False),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_direct_construction(self, name):
        with pytest.raises(ConfigError, match="segment"):
            LinkReplaySpec(protocol="RapidSample",
                           segments=(_WALK, self.CASES[name]))

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_from_dict(self, name):
        data = LinkReplaySpec(protocol="RapidSample",
                              segments=(_WALK,)).to_dict()
        data["segments"].append(list(self.CASES[name]))
        with pytest.raises(ConfigError, match="segment"):
            spec_from_dict(data)

    def test_valid_kinds_accepted(self):
        spec = LinkReplaySpec(protocol="RapidSample", segments=(
            ("stationary", 1.0, 0.0, 0.0, 0.0, False),
            _WALK,
            ("drive", 1.0, 12.0, 90.0, 1.5, True),
        ))
        assert [seg[0] for seg in spec.segments] \
            == ["stationary", "walk", "drive"]


class TestRoundTripReplaysBitIdentically:
    def test_golden_link_replay(self, session):
        spec = LinkReplaySpec(protocol="RapidSample", env="office",
                              mode="mixed", seed=0, duration_s=4.0,
                              tcp=False)
        a = session.run(spec).result
        b = session.run(_roundtrip(spec)).result
        assert a.delivered == b.delivered
        assert a.dropped == b.dropped
        assert a.attempts == b.attempts
        assert np.array_equal(a.delivery_times_s, b.delivery_times_s)
        assert np.array_equal(a.rate_attempts, b.rate_attempts)

    def test_golden_grid(self, session):
        spec = GridSpec(protocols=("RapidSample", "HintAware"),
                        envs=("office",), mode="mixed", n_seeds=2,
                        seed0=0, duration_s=4.0, tcp=False)
        a = session.run(spec)
        b = session.run(_roundtrip(spec))
        assert a.throughputs == b.throughputs
        assert a.seeds == b.seeds
        assert a.task_engines == b.task_engines

    def test_golden_network_scenario(self, session):
        # The golden catalog's shrunk dense_cell configuration
        # (tests/test_network_golden.py): 8 stations, 4 s, seed 7.
        spec = NetworkRunSpec(scenario="dense_cell", seed=7, duration_s=4.0,
                              overrides={"n_stations": 8})
        a = session.run(spec).result
        b = session.run(_roundtrip(spec)).result
        assert a == b
        # ... and both match the direct legacy construction.
        from repro.network import make_scenario, run_scenario

        direct = run_scenario(make_scenario("dense_cell", seed=7,
                                            duration_s=4.0, n_stations=8))
        assert a.aggregate_mbps == direct.aggregate_throughput_mbps
        assert a.stations_mbps == {
            name: res.throughput_mbps
            for name, res in direct.stations.items()
        }


class TestSegmentsHelpers:
    def test_segments_of_inverts_script_from_segments(self):
        from repro.sensors import (
            pacing_script,
            script_from_segments,
        )

        script = pacing_script(6.0)
        segs = segments_of(script)
        rebuilt = script_from_segments(json.loads(json.dumps(list(segs))))
        assert segments_of(rebuilt) == segs
        assert rebuilt.duration_s == script.duration_s

    def test_segment_spec_replays_like_direct_run(self, session):
        from repro.channel import OFFICE, generate_trace
        from repro.core import HintAwareNode
        from repro.mac import SimConfig, UdpSource, run_link
        from repro.rate import RapidSample
        from repro.sensors import pacing_script

        script = pacing_script(4.0)
        spec = LinkReplaySpec.from_script("RapidSample", script, seed=5,
                                          tcp=False)
        via_api = session.run(spec).result
        direct = run_link(
            generate_trace(OFFICE, script, seed=5), RapidSample(),
            UdpSource(),
            hint_series=HintAwareNode(script, seed=5).movement_hint_series(),
            config=SimConfig(seed=5),
        )
        assert via_api.delivered == direct.delivered
        assert np.array_equal(via_api.delivery_times_s,
                              direct.delivery_times_s)
