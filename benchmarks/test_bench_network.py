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
from repro.network import make_scenario, run_scenario

_SEED = 5
_DENSE_KWARGS = dict(seed=_SEED)  # catalog defaults: 20 stations, 30 s


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
    write_bench_artifact("network", {
        "scenario": "dense_cell",
        "n_stations": ref.scenario.n_stations,
        "duration_s": ref.scenario.duration_s,
        "reference_s": t_ref,
        "batch_s": t_batch,
        "batch_vs_reference": speedup,
    })
    assert speedup >= 3.0, (
        f"batch scenario engine lost its dense-cell speedup "
        f"({speedup:.2f}x < 3.0x)"
    )
    check_regression(speedup, load_bench_baseline("network"),
                     "batch_vs_reference")
