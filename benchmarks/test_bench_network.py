"""Network scenario engine benchmarks: batch vs reference scheduler.

The acceptance workload is the CSMA stress case: ``dense_cell`` -- 20
saturated stations contending for one cell over a 30 s replay.  The
batch scenario engine must

* be **bit-identical** to the reference :class:`NetworkSimulator`
  (per-station results compared field by field), and
* run the replay **>= 3x faster** (CPU time, best of three), guarded
  against regressing more than 20% below the committed
  ``BENCH_network_baseline.json`` pin -- the same gate shape as the
  link-engine benchmarks.

A second leg guards the scalar stepping path the reference scheduler
drives, on a 1-station/1-AP ``series``-mode scenario whose network
replay is bit-identical to the fast single-link engine's.  It measures
what the network adds per exchange: ``(network CPU - fast CPU) /
exchanges``, normalised by a fixed pure-Python calibration loop timed
in the same alternating rounds.  ``solo_scheduler_kx_per_cal`` is the
reciprocal -- thousands of exchanges whose scheduler overhead fits in
one run of the calibration loop -- so a MAC speed-up, which takes the
same time off both sides, leaves it alone, while a slower
:meth:`LinkProcess.step` or scheduler lowers it.  A slower step makes
the dense-cell batch ratio *rise*, so only this leg catches it; it is
pinned with the same 20% gate.

Every measured number lands in ``BENCH_network.json`` for the
per-commit performance trajectory.
"""

import time
from dataclasses import replace

import numpy as np

from conftest import (
    check_regression,
    load_bench_baseline,
    run_once,
    write_bench_artifact,
)

from repro.api.executor import warm_network_task
from repro.network import (
    ApSpec,
    NetworkScenario,
    StationSpec,
    link_equivalent_result,
    make_scenario,
    run_scenario,
    station_hints,
    station_trace,
)

_SEED = 5
_DENSE_KWARGS = dict(seed=_SEED)  # catalog defaults: 20 stations, 30 s

#: Numbers from both legs, written together to BENCH_network.json.
_ARTIFACT: dict = {}

#: Iterations of the solo leg's calibration loop (~50 ms of
#: interpreter-bound work on a 2-core x86-64 host).
_CAL_LOOP = 1_000_000

#: The solo-station stepping workload: a cheap controller on saturated
#: UDP, so per-exchange stepping overhead dominates the replay.
_SOLO = NetworkScenario(
    name="solo_step",
    stations=(StationSpec(name="s0", mobility="pace", traffic="udp",
                          protocol="RapidSample"),),
    aps=(ApSpec(bssid="ap0", x_m=0.0, y_m=10.0),),
    environment="office",
    duration_s=60.0,
    seed=_SEED,
    hint_mode="series",
)


def _dense(engine: str):
    return replace(make_scenario("dense_cell", **_DENSE_KWARGS),
                   engine=engine)


def _warm_store() -> None:
    scenario = _dense("reference")
    for i in range(scenario.n_stations):
        warm_network_task(("dense_cell", _SEED, None, (), i))


def _best_of_cpu(fn, rounds=3):
    """Best CPU time of ``rounds`` runs (robust to co-tenant noise)."""
    best, result = float("inf"), None
    for _ in range(rounds):
        start = time.process_time()
        result = fn()
        best = min(best, time.process_time() - start)
    return best, result


def _calibration_loop() -> None:
    """Fixed pure-Python work whose CPU time tracks the host's speed."""
    acc = 0
    for i in range(_CAL_LOOP):
        acc += i * i


def _assert_identical(ref, bat) -> None:
    assert set(ref.stations) == set(bat.stations)
    for name, a in ref.stations.items():
        b = bat.stations[name]
        assert (a.delivered, a.dropped, a.attempts) == \
            (b.delivered, b.dropped, b.attempts), name
        assert np.array_equal(a.delivery_times_s, b.delivery_times_s), name
    assert ref.handoffs == bat.handoffs
    assert ref.airtime_us == bat.airtime_us


def test_bench_network_reference(benchmark):
    _warm_store()
    result = run_once(benchmark, run_scenario, _dense("reference"))
    print(f"\n[network/reference] dense_cell 20x30s: "
          f"{result.aggregate_throughput_mbps:.2f} Mb/s aggregate")
    assert result.aggregate_throughput_mbps > 0


def test_bench_network_batch(benchmark):
    _warm_store()
    result = run_once(benchmark, run_scenario, _dense("batch"))
    print(f"\n[network/batch] dense_cell 20x30s: "
          f"{result.aggregate_throughput_mbps:.2f} Mb/s aggregate")
    assert result.aggregate_throughput_mbps > 0


def test_network_batch_speedup_and_equivalence():
    """The batch scenario engine's acceptance pin: bit-identical to the
    reference scheduler on the dense cell and >= 3x faster, with the
    committed-baseline regression guard on top."""
    import pytest

    pytest.importorskip("pytest_benchmark")
    _warm_store()

    t_ref, ref = _best_of_cpu(lambda: run_scenario(_dense("reference")))
    t_batch, bat = _best_of_cpu(lambda: run_scenario(_dense("batch")))
    _assert_identical(ref, bat)
    speedup = t_ref / t_batch
    print(f"\n[network speedup] dense_cell 20x30s: reference "
          f"{t_ref * 1e3:.0f} ms, batch {t_batch * 1e3:.0f} ms "
          f"-> {speedup:.2f}x")
    _ARTIFACT.update({
        "scenario": "dense_cell",
        "n_stations": ref.scenario.n_stations,
        "duration_s": ref.scenario.duration_s,
        "reference_s": t_ref,
        "batch_s": t_batch,
        "batch_vs_reference": speedup,
    })
    write_bench_artifact("network", _ARTIFACT)
    assert speedup >= 3.0, (
        f"batch scenario engine lost its dense-cell speedup "
        f"({speedup:.2f}x < 3.0x)"
    )
    check_regression(speedup, load_bench_baseline("network"),
                     "batch_vs_reference")


def test_network_solo_step_efficiency():
    """The stepping path's pin: a 1-station/1-AP scenario stepped by the
    reference scheduler is bit-identical to the fast single-link engine,
    and the scheduler's overhead per exchange, in calibration-loop
    units, stays within the committed baseline's 20% gate."""
    import pytest

    pytest.importorskip("pytest_benchmark")
    station_trace(_SOLO, 0)
    station_hints(_SOLO, 0)

    # Rounds alternate between the three sides so host-speed drift hits
    # all alike; each side keeps its best round.
    t_fast = t_net = t_cal = float("inf")
    for _ in range(5):
        t, link = _best_of_cpu(lambda: link_equivalent_result(_SOLO), 1)
        t_fast = min(t_fast, t)
        t, net = _best_of_cpu(lambda: run_scenario(_SOLO), 1)
        t_net = min(t_net, t)
        t, _ = _best_of_cpu(_calibration_loop, 1)
        t_cal = min(t_cal, t)
    got = net.station("s0")
    assert (link.delivered, link.dropped, link.attempts) == \
        (got.delivered, got.dropped, got.attempts)
    assert np.array_equal(link.rate_attempts, got.rate_attempts)
    assert np.array_equal(link.rate_successes, got.rate_successes)
    assert np.array_equal(link.delivery_times_s, got.delivery_times_s)
    overhead_s = (t_net - t_fast) / link.attempts
    kx_per_cal = t_cal / overhead_s / 1e3
    print(f"\n[network solo scheduler] 1x{_SOLO.duration_s:.0f}s, "
          f"{link.attempts} exchanges: fast link {t_fast * 1e3:.0f} ms, "
          f"network {t_net * 1e3:.0f} ms, calibration {t_cal * 1e3:.0f} ms "
          f"-> {overhead_s * 1e9:.0f} ns/exchange, {kx_per_cal:.1f}k "
          f"exchanges per calibration loop")
    _ARTIFACT.update({
        "solo_fast_s": t_fast,
        "solo_network_s": t_net,
        "solo_calibration_s": t_cal,
        "solo_exchanges": link.attempts,
        "solo_overhead_per_exchange_s": overhead_s,
        "solo_scheduler_kx_per_cal": kx_per_cal,
    })
    write_bench_artifact("network", _ARTIFACT)
    check_regression(kx_per_cal, load_bench_baseline("network"),
                     "solo_scheduler_kx_per_cal")
