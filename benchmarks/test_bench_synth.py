"""Trace and hint synthesis benchmark: array program vs scalar oracle.

The workload is what ``perfbench``'s ``net_catalog`` set-up synthesises
for seed 0: every station of the four catalog scenarios, at half their
catalog duration, gets a channel trace (``TraceGenerator.generate``)
and an accelerometer force series (``Accelerometer.force_array``, the
input of the movement hint).  The scalar side is the per-sample oracle
in ``tests/synth_oracle.py`` -- the loops the array program replaced.

The pinned number is ``array_vs_scalar``: the oracle's CPU time over the
array path's, each the best of three interleaved rounds.  Both sides
must produce byte-identical outputs; the ratio is guarded against
regressing more than 20% below ``BENCH_synth_baseline.json`` with the
same gate as the engine and network pins, and lands in
``BENCH_synth.json``.
"""

import sys
import time
from pathlib import Path

import pytest

from conftest import check_regression, load_bench_baseline, write_bench_artifact

from repro.channel import environment_by_name
from repro.channel.tracegen import TraceGenerator
from repro.network import make_scenario, scenario_names
from repro.network.traces import station_script, station_seed
from repro.sensors.accelerometer import Accelerometer

sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))
import synth_oracle  # noqa: E402

_SEED = 0
#: Share of each catalog duration the ``net_catalog`` workload replays.
_DURATION_SCALE = 0.5


def _stations() -> list:
    """``(environment, script, seed)`` for every seed-0 catalog station."""
    out = []
    for name in scenario_names():
        catalog_s = make_scenario(name, seed=_SEED).duration_s
        scenario = make_scenario(name, seed=_SEED,
                                 duration_s=catalog_s * _DURATION_SCALE)
        env = environment_by_name(scenario.environment)
        out += [(env, station_script(scenario, i), station_seed(scenario, i))
                for i in range(scenario.n_stations)]
    return out


def _array(stations) -> list:
    return [(TraceGenerator(env, script, seed).generate(),
             Accelerometer(script, seed).force_array())
            for env, script, seed in stations]


def _scalar(stations) -> list:
    return [(synth_oracle.generate(env, script, seed),
             synth_oracle.forces(script, seed))
            for env, script, seed in stations]


def _digest(outputs) -> list:
    return [(trace.fates.tobytes(), trace.snr_db.tobytes(),
             trace.moving.tobytes(), forces.tobytes())
            for trace, forces in outputs]


def test_synth_array_speedup_and_equivalence():
    pytest.importorskip("pytest_benchmark")
    stations = _stations()

    # Rounds alternate between the two sides so host-speed drift hits
    # both alike; each side keeps its best round.
    t_scalar = t_array = float("inf")
    for _ in range(3):
        start = time.process_time()
        scalar = _scalar(stations)
        t_scalar = min(t_scalar, time.process_time() - start)
        start = time.process_time()
        array = _array(stations)
        t_array = min(t_array, time.process_time() - start)
    assert _digest(array) == _digest(scalar)

    speedup = t_scalar / t_array
    print(f"\n[synth speedup] {len(stations)} net_catalog stations: scalar "
          f"{t_scalar * 1e3:.0f} ms, array {t_array * 1e3:.0f} ms "
          f"-> {speedup:.2f}x")
    write_bench_artifact("synth", {
        "workload": "net_catalog seed 0 stations",
        "n_stations": len(stations),
        "scalar_s": t_scalar,
        "array_s": t_array,
        "array_vs_scalar": speedup,
    })
    check_regression(speedup, load_bench_baseline("synth"), "array_vs_scalar")
