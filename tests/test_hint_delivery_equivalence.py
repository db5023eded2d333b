"""Protocol-mode hint delivery: the network's bit path against its oracle.

In ``protocol`` mode the network simulator delivers each station's
movement *bit* through :meth:`HintChannel.carries` and builds a
:class:`~repro.core.hints.MovementHint` only when the learned value
changes.  :mod:`hint_delivery_oracle` keeps the per-exchange body it
replaced -- publish a hint object, run the channel's delivery and wire
codec, compare -- and this suite requires the two to agree:

* hypothesis drives both over movement edge series, success/failure
  patterns, beacon intervals (off, the default 0.1 s and drawn) and
  mid-run re-associations, comparing ``hints_delivered``, the beacon
  clock and every ``on_hint`` call as ``(time_s, moving,
  type(moving))``;
* whole ``protocol`` scenarios replay on both scenario engines against
  the oracle's engines, every observable and every ``on_hint`` call
  included.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hint_delivery_oracle as oracle
from test_network_batch import (
    SCENARIO_CONFIGS,
    assert_network_results_identical,
)

from repro.core.architecture import HintSeries
from repro.core.hint_protocol import HintChannel
from repro.mac.simulator import _hint_edges
from repro.network import NetworkSimulator, make_scenario
from repro.network.batch import NetworkBatchEngine
from repro.network.simulator import _StationRuntime
from repro.rate import HintAwareRateController, RateController


class _HintLog:
    """Controller stand-in: records ``on_hint`` calls and resets."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []
        self.resets = 0

    def on_hint(self, hint) -> None:
        self.calls.append((hint.time_s, hint.moving, type(hint.moving)))

    def reset(self) -> None:
        self.resets += 1


class _Proc:
    def resync_hints(self) -> None:
        pass


def _station(times, vals, beacon_s: float) -> _StationRuntime:
    """A protocol-mode station holding only the delivery-side state."""
    st_ = object.__new__(_StationRuntime)
    st_.hint_times, st_.hint_vals = _hint_edges(
        HintSeries(np.asarray(times, dtype=np.float64), np.asarray(vals)))
    st_.hint_i = 0
    st_.hint_cur = False
    st_.channel = HintChannel(beacon_interval_s=beacon_s)
    st_.controller = _HintLog()
    st_.proc = _Proc()
    st_.last_learned = None
    st_.hints_delivered = 0
    return st_


def _deliver(st_, end_s: float, success: bool) -> None:
    NetworkSimulator._deliver_hint(None, st_, end_s, success)


#: Movement samples ``(time_s, moving)``; sorted into a series.
_SERIES = st.lists(
    st.tuples(st.floats(0.0, 4.0, allow_nan=False), st.booleans()),
    max_size=30,
).map(sorted)

#: ``("x", gap_s, success)`` ends an exchange ``gap_s`` after the last
#: one; ``("r",)`` re-associates the station.
_EVENTS = st.lists(
    st.one_of(
        st.tuples(st.just("x"),
                  st.one_of(st.sampled_from([0.0, 0.05, 0.1]),
                            st.floats(0.0, 0.3, allow_nan=False)),
                  st.booleans()),
        st.just(("r",)),
    ),
    max_size=150,
)

_BEACONS = st.one_of(st.just(0.0), st.just(0.1),
                     st.floats(1e-4, 1.0, allow_nan=False))


def _drive(series, events, beacon_s):
    times = [t for t, _ in series]
    vals = [v for _, v in series]
    new = _station(times, vals, beacon_s)
    old = _station(times, vals, beacon_s)
    t = 0.0
    for event in events:
        if event[0] == "r":
            new.on_reassociate()
            old.on_reassociate()
            continue
        _, gap, success = event
        t += gap
        _deliver(new, t, success)
        oracle.deliver_hint(old, t, success)
        assert new.hints_delivered == old.hints_delivered
        assert new.controller.calls == old.controller.calls
        assert (new.last_learned, type(new.last_learned)) == \
            (old.last_learned, type(old.last_learned))
        assert new.channel._last_beacon_s == old.channel._last_beacon_s
    assert new.controller.resets == old.controller.resets
    return new


class TestDeliveryOracle:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(series=_SERIES, events=_EVENTS, beacon_s=_BEACONS)
    def test_bit_path_matches_oracle(self, series, events, beacon_s):
        _drive(series, events, beacon_s)

    def test_directed_walk_reaches_every_branch(self):
        """Failures between beacons, a beacon, a flip, a re-association
        that re-delivers an unchanged bit: each path the fuzz covers."""
        series = [(0.0, False), (0.25, True), (0.6, False)]
        events = [("x", 0.0, False), ("x", 0.05, False), ("x", 0.1, False),
                  ("x", 0.1, True), ("r",), ("x", 0.01, False),
                  ("x", 0.01, True), ("x", 0.4, True)]
        new = _drive(series, events, 0.1)
        assert new.hints_delivered == 5
        assert new.controller.calls == [
            (0.0, False, bool), (pytest.approx(0.25), True, bool),
            (pytest.approx(0.27), True, bool),
            (pytest.approx(0.67), False, bool)]

    def test_wire_table_is_the_codec(self):
        """The learned bit is the codec's output type, a Python bool,
        whatever bool type the edge list holds."""
        st_ = _station([0.0], [np.True_], 0.0)
        _deliver(st_, 0.0, True)
        assert st_.controller.calls == [(0.0, True, bool)]


def _all_hint_aware(scenario):
    return replace(scenario, stations=tuple(
        replace(s, protocol="HintAware") for s in scenario.stations))


def _run_logged(engine_cls, scenario, monkeypatch):
    """Replay ``scenario``; also return every station's on_hint calls."""
    log: dict[int, list] = {}

    def wrap(original):
        def on_hint(self, hint):
            log.setdefault(id(self), []).append(
                (hint.time_s, hint.moving, type(hint.moving)))
            return original(self, hint)
        return on_hint

    with monkeypatch.context() as patch:
        for cls in (RateController, HintAwareRateController):
            patch.setattr(cls, "on_hint", wrap(cls.__dict__["on_hint"]))
        result = engine_cls(scenario, record_exchanges=True).run()
    calls = {name: log.get(id(c), [])
             for name, c in result.controllers.items()}
    return result, calls


class TestProtocolScenarios:
    @pytest.mark.parametrize("beacon_s", [0.0, 0.1, 0.37])
    @pytest.mark.parametrize("name", sorted(SCENARIO_CONFIGS))
    def test_engines_match_oracle(self, name, beacon_s, monkeypatch):
        scenario = _all_hint_aware(replace(
            make_scenario(name, **SCENARIO_CONFIGS[name]),
            hint_mode="protocol", hint_beacon_s=beacon_s))
        for engine_cls, oracle_cls in (
                (NetworkSimulator, oracle.OracleNetworkSimulator),
                (NetworkBatchEngine, oracle.OracleNetworkBatchEngine)):
            new, new_calls = _run_logged(engine_cls, scenario, monkeypatch)
            old, old_calls = _run_logged(oracle_cls, scenario, monkeypatch)
            assert_network_results_identical(old, new)
            assert new_calls == old_calls
            assert any(new_calls.values())
            for station, c in new.controllers.items():
                o = old.controllers[station]
                assert (c.switch_count, c.moving) == \
                    (o.switch_count, o.moving), station
