"""Hypothesis invariant suite for the network layer.

Property-based checks that hold for *every* scenario, not just the
golden catalog:

* **airtime conservation** -- each station's reported ``airtime_us``
  equals the sum of its recorded exchange spans, and one cell's medium
  cannot carry more airtime than the scenario has wall-clock;
* **per-cell serialization** -- no two exchanges attributed to the same
  cell overlap in time (the CSMA carrier-sense contract); and
* **lifetime censoring** -- ``mean_association_lifetime_s`` never mixes
  censored (still-open-at-end) lifetimes into the trained mean, and is
  0.0 (not NaN) on empty and all-censored event sets.

The replay-driven properties run both engines on each drawn scenario,
so every hypothesis example is also a differential test of the batch
scenario engine.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ap.association import AssociationEvent
from repro.network import (
    ApSpec,
    NetworkResult,
    NetworkScenario,
    NetworkSimulator,
    StationSpec,
)
from test_network_batch import assert_network_results_identical, both_engines

_SETTINGS = dict(
    max_examples=10,
    deadline=None,
    print_blob=True,
    derandomize=False,
    suppress_health_check=[HealthCheck.too_slow],
)

_MOBILITIES = ("static", "pace", "walk")
_PROTOCOLS = ("RapidSample", "SampleRate", "HintAware")


@st.composite
def scenarios(draw) -> NetworkScenario:
    n_stations = draw(st.integers(min_value=1, max_value=4))
    two_cells = draw(st.booleans())
    aps = (ApSpec(bssid="cell-a", x_m=0.0, y_m=10.0),)
    if two_cells:
        aps += (ApSpec(bssid="cell-b", x_m=70.0, y_m=10.0),)
    stations = tuple(
        StationSpec(
            name=f"s{i}",
            mobility=draw(st.sampled_from(_MOBILITIES)),
            speed_mps=draw(st.sampled_from([1.0, 2.0])),
            heading_deg=draw(st.sampled_from([0.0, 90.0])),
            start_xy=(draw(st.sampled_from([0.0, 10.0, 65.0])), 0.0),
            traffic=draw(st.sampled_from(["udp", "udp", "tcp"])),
            protocol=draw(st.sampled_from(_PROTOCOLS)),
        )
        for i in range(n_stations)
    )
    return NetworkScenario(
        name="fuzz",
        stations=stations,
        aps=aps,
        environment="office",
        duration_s=draw(st.sampled_from([1.5, 2.0])),
        seed=draw(st.integers(min_value=0, max_value=400)),
        hint_mode=draw(st.sampled_from(["series", "off"])),
        scan_interval_s=draw(st.sampled_from([0.5, 1.0])),
    )


def _cell_of(exchange, handoffs_by_station):
    """The cell an exchange occupied: the station's association at its
    start instant (handoffs apply from their scan time onward)."""
    station, start_us, _end_us, _success = exchange
    bssid = None
    for time_s, to_bssid in handoffs_by_station.get(station, ()):
        if time_s * 1e6 <= start_us:
            bssid = to_bssid
        else:
            break
    return bssid


class TestReplayInvariants:
    @settings(**_SETTINGS)
    @given(scenario=scenarios())
    def test_airtime_and_serialization(self, scenario):
        result = NetworkSimulator(scenario, record_exchanges=True).run()
        exchanges = result.exchanges
        assert exchanges is not None

        # --- airtime conservation, per station ------------------------
        spans: dict[str, float] = {name: 0.0 for name in result.stations}
        for station, start_us, end_us, _success in exchanges:
            assert end_us > start_us
            spans[station] += end_us - start_us
        for name, airtime in result.airtime_us.items():
            assert spans[name] == pytest.approx(airtime, abs=1e-6), name

        # --- per-cell serialization (CSMA carrier sense) --------------
        handoffs_by_station: dict[str, list] = {}
        for h in result.handoffs:
            handoffs_by_station.setdefault(h.station, []).append(
                (h.time_s, h.to_bssid))
        by_cell: dict[str, list] = {}
        cell_airtime: dict[str, float] = {}
        for exchange in exchanges:
            cell = _cell_of(exchange, handoffs_by_station)
            if cell is None:
                continue  # unassociated stations do not contend
            by_cell.setdefault(cell, []).append(exchange)
            cell_airtime[cell] = cell_airtime.get(cell, 0.0) \
                + exchange[2] - exchange[1]
        for cell, cell_exchanges in by_cell.items():
            cell_exchanges.sort(key=lambda e: e[1])
            for prev, cur in zip(cell_exchanges, cell_exchanges[1:]):
                assert cur[1] >= prev[2], (
                    f"cell {cell}: exchange {cur} overlaps {prev}"
                )
            # One shared medium cannot carry more airtime than the
            # scenario has wall-clock (small slack: the last exchange
            # may run over the nominal end).
            assert cell_airtime[cell] <= scenario.duration_s * 1e6 * 1.01

    @settings(**_SETTINGS)
    @given(scenario=scenarios())
    def test_batch_engine_differential(self, scenario):
        """Every drawn scenario doubles as a batch-engine oracle test."""
        assert_network_results_identical(*both_engines(scenario))


def _event(lifetime_s: float) -> AssociationEvent:
    return AssociationEvent(bssid="ap", lifetime_s=lifetime_s,
                            relative_bearing_deg=0.0, distance_m=1.0,
                            moving=False)


def _result(trained: list[float], censored: list[float]) -> NetworkResult:
    scenario = NetworkScenario(
        name="synthetic",
        stations=(StationSpec(name="s0"),),
        aps=(ApSpec(bssid="ap", x_m=0.0, y_m=0.0),),
        duration_s=10.0,
    )
    from repro.ap.association import LifetimeScorer

    return NetworkResult(
        scenario=scenario, stations={}, handoffs=[],
        association_events=[("s0", _event(v)) for v in trained],
        censored_events=[("s0", _event(v)) for v in censored],
        airtime_us={}, hints_delivered={}, controllers={},
        scorer=LifetimeScorer(),
    )


class TestLifetimeCensoring:
    lifetimes = st.lists(
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False,
                  allow_infinity=False),
        max_size=8,
    )

    @settings(max_examples=50, deadline=None)
    @given(trained=lifetimes, censored=lifetimes)
    def test_censored_lifetimes_never_leak_into_the_mean(
            self, trained, censored):
        result = _result(trained, censored)
        mean = result.mean_association_lifetime_s()
        if not trained:
            # Empty or all-censored: 0.0, never NaN and never a value
            # smuggled in from the censored set.
            assert mean == 0.0
        else:
            assert mean == pytest.approx(sum(trained) / len(trained))
        both = trained + censored
        mean_all = result.mean_association_lifetime_s(include_censored=True)
        if not both:
            assert mean_all == 0.0
        else:
            assert mean_all == pytest.approx(sum(both) / len(both))

    def test_all_censored_is_zero_not_nan(self):
        result = _result([], [3.0, 4.0])
        assert result.mean_association_lifetime_s() == 0.0
        assert result.mean_association_lifetime_s(include_censored=True) \
            == pytest.approx(3.5)
