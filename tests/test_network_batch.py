"""Batch scenario engine: bit-identity against the reference engine.

The defining contract of ``NetworkScenario(engine="batch")``
(:class:`repro.network.batch.NetworkBatchEngine`): every observable of
a scenario replay -- per-station :class:`~repro.mac.SimResult` arrays,
handoffs, association events (trained and censored), per-station
airtime, over-the-air hint deliveries, the trained scorer -- equals the
reference :class:`~repro.network.NetworkSimulator`'s bit for bit.  The
golden catalog configurations exercise every moving part: saturated
round-robin cells (the vectorized round fast path), multi-cell
handoffs, TCP sources, protocol-mode hint delivery, lifetime-policy
scoring.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.network import (
    ApSpec,
    NetworkScenario,
    StationSpec,
    make_scenario,
    run_scenario,
)

#: The golden catalog shapes (mirrors tests/test_network_golden.py).
SCENARIO_CONFIGS = {
    "corridor_walk": dict(seed=7, duration_s=6.0, n_walkers=2,
                          pretrain_walks=12),
    "vehicular_drive_by": dict(seed=7, duration_s=5.0),
    "dense_cell": dict(seed=7, duration_s=4.0, n_stations=8),
    "mixed_mobility": dict(seed=7, duration_s=5.0),
}

GOLDEN_SEED = 7


def assert_network_results_identical(ref, bat):
    assert set(ref.stations) == set(bat.stations)
    for name, a in ref.stations.items():
        b = bat.stations[name]
        assert a.duration_s == b.duration_s, name
        assert a.delivered == b.delivered, name
        assert a.dropped == b.dropped, name
        assert a.attempts == b.attempts, name
        assert np.array_equal(a.rate_attempts, b.rate_attempts), name
        assert np.array_equal(a.rate_successes, b.rate_successes), name
        assert np.array_equal(a.delivery_times_s, b.delivery_times_s), name
    assert ref.handoffs == bat.handoffs
    assert ref.association_events == bat.association_events
    assert ref.censored_events == bat.censored_events
    assert ref.airtime_us == bat.airtime_us
    assert ref.hints_delivered == bat.hints_delivered
    assert ref.scorer.n_trained == bat.scorer.n_trained


def both_engines(scenario: NetworkScenario):
    assert scenario.engine == "reference"
    return (run_scenario(scenario),
            run_scenario(replace(scenario, engine="batch")))


class TestGoldenCatalogEquality:
    """engine="batch" == NetworkSimulator on every golden scenario."""

    @pytest.mark.parametrize("name", sorted(SCENARIO_CONFIGS))
    def test_catalog_scenario(self, name):
        ref, bat = both_engines(make_scenario(name, **SCENARIO_CONFIGS[name]))
        assert_network_results_identical(ref, bat)

    def test_lifetime_policy_handoffs(self):
        """Pretrained lifetime association: the policy-driven early
        handoffs (and the scorer training they produce) must agree."""
        ref, bat = both_engines(make_scenario(
            "corridor_walk", seed=1, duration_s=12.0,
            association_policy="lifetime"))
        assert ref.handoff_count >= 1
        assert_network_results_identical(ref, bat)


class TestEngineEdgeCases:
    def _solo(self, **overrides):
        base = dict(
            name="solo",
            stations=(StationSpec(name="s0", mobility="pace",
                                  traffic="udp", protocol="RapidSample"),),
            aps=(ApSpec(bssid="ap0", x_m=0.0, y_m=10.0),),
            environment="office", duration_s=4.0, seed=GOLDEN_SEED,
            hint_mode="series",
        )
        stations = overrides.pop("stations", None)
        if stations is not None:
            base["stations"] = stations
        base.update(overrides)
        return NetworkScenario(**base)

    @pytest.mark.parametrize("protocol",
                             ["RapidSample", "SampleRate", "HintAware",
                              "CHARM"])
    def test_single_station_every_protocol_family(self, protocol):
        """One station exercises the round fast path (frame-based
        protocols) and the SNR-consuming exact path (CHARM)."""
        scenario = self._solo(stations=(StationSpec(
            name="s0", mobility="pace", traffic="udp", protocol=protocol),))
        assert_network_results_identical(*both_engines(scenario))

    def test_tcp_station(self):
        scenario = self._solo(stations=(StationSpec(
            name="s0", mobility="pace", traffic="tcp",
            protocol="SampleRate"),))
        assert_network_results_identical(*both_engines(scenario))

    def test_hints_off(self):
        assert_network_results_identical(
            *both_engines(self._solo(hint_mode="off")))

    def test_protocol_hint_mode(self):
        ref, bat = both_engines(self._solo(hint_mode="protocol",
                                           duration_s=5.0))
        assert ref.hints_delivered["s0"] > 0
        assert_network_results_identical(ref, bat)

    def test_unassociated_station_does_not_contend(self):
        """A station out of every cell transmits freely and never joins
        the round-robin; both engines must agree."""
        scenario = NetworkScenario(
            name="far",
            stations=(
                StationSpec(name="near", mobility="static",
                            start_xy=(0.0, 0.0)),
                StationSpec(name="far", mobility="static",
                            start_xy=(500.0, 0.0)),
            ),
            aps=(ApSpec(bssid="ap0", x_m=0.0, y_m=10.0),),
            environment="office", duration_s=3.0, seed=GOLDEN_SEED,
        )
        ref, bat = both_engines(scenario)
        assert_network_results_identical(ref, bat)

    def test_mixed_protocols_share_a_cell(self):
        """Heterogeneous controllers in one contention domain ride the
        composite adapter + scalar round loop."""
        stations = tuple(
            StationSpec(name=f"s{i}", mobility="static",
                        start_xy=(float(2 * i), 0.0), protocol=proto)
            for i, proto in enumerate(
                ["RapidSample", "SampleRate", "HintAware", "RapidSample"])
        )
        scenario = NetworkScenario(
            name="mixed-protocols", stations=stations,
            aps=(ApSpec(bssid="ap0", x_m=0.0, y_m=10.0),),
            environment="office", duration_s=3.0, seed=GOLDEN_SEED,
        )
        assert_network_results_identical(*both_engines(scenario))

    def test_dense_cell_with_tight_scans(self):
        """Frequent scan barriers slice the round fast path thin."""
        scenario = make_scenario("dense_cell", seed=3, duration_s=2.0,
                                 n_stations=5, scan_interval_s=0.25)
        assert_network_results_identical(*both_engines(scenario))

    def test_engine_field_validation(self):
        with pytest.raises(ValueError):
            self._solo(engine="warp")

    def test_rerun_is_identical(self):
        scenario = replace(self._solo(), engine="batch")
        a = run_scenario(scenario)
        b = run_scenario(scenario)
        assert_network_results_identical(a, b)


class TestGridWiring:
    def test_batch_pool_matches_reference_grid(self):
        from repro.api import Session
        from repro.experiments.fig5_net import run_grid

        kwargs = dict(scenarios=("dense_cell",), seeds=(0,),
                      policies=("strongest",), duration_s=2.0)
        ref = run_grid(session=Session(engine="reference", jobs=1), **kwargs)
        bat = run_grid(session=Session(engine="batch", jobs=1), **kwargs)
        assert ref == bat

    def test_batch_pool_parallel_matches_serial(self):
        from repro.api import Session
        from repro.experiments.fig5_net import run_grid

        kwargs = dict(scenarios=("dense_cell",), seeds=(0, 1),
                      policies=("strongest",), duration_s=2.0)
        assert run_grid(session=Session(engine="batch", jobs=1), **kwargs) \
            == run_grid(session=Session(engine="batch", jobs=2), **kwargs)

    def test_unknown_engine_rejected(self):
        from repro.api import Session
        from repro.experiments.fig5_net import run_grid

        with pytest.raises(ValueError):
            run_grid(scenarios=("dense_cell",), seeds=(0,),
                     duration_s=1.0, session=Session(engine="warp"))
