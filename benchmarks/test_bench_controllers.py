"""Scalar rate-controller benchmark: rewritten controllers vs their oracle.

The workload is the single-link replay the paper's TCP grids are made
of: a 60 s office trace under the mixed mobility script (static and
walking halves, so the hint-aware switch flips), TCP traffic, the fast
engine.  Each of SampleRate, CHARM and the hint-aware switch replays it
twice -- once with the controller from ``repro.rate`` and once with its
pre-rewrite body from ``tests/controller_oracle.py`` (NumPy state
arrays, one logistic ``per`` call per rate per decision, the active
side resolved per call).

The pinned numbers are ``<protocol>_speedup``: the oracle's CPU time
over the rewritten controller's, each the best of three interleaved
rounds.  Both sides must produce identical ``SimResult``s; the ratios
are guarded against regressing more than 20% below
``BENCH_controllers_baseline.json`` with the same gate as the other
pins, and land in ``BENCH_controllers.json``.
"""

import sys
import time
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from conftest import check_regression, load_bench_baseline, write_bench_artifact

from repro.experiments.common import cached_hints, cached_trace
from repro.mac import SimConfig, TcpSource, run_link
from repro.rate import CHARM, HintAwareRateController, SampleRate

sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))
import controller_oracle  # noqa: E402

_ENV, _MODE, _SEED, _DURATION_S = "office", "mixed", 0, 60.0

#: protocol -> (rewritten controller, oracle controller) factories.
_PROTOCOLS = {
    "SampleRate": (SampleRate, controller_oracle.SampleRate),
    "CHARM": (lambda: CHARM(training_seed=_SEED),
              lambda: controller_oracle.CHARM(training_seed=_SEED)),
    "HintAware": (HintAwareRateController, controller_oracle.HintAware),
}


def _digest(result) -> tuple:
    return tuple(v.tobytes() if isinstance(v, np.ndarray) else v
                 for v in astuple(result))


def test_controller_speedup_and_equivalence():
    pytest.importorskip("pytest_benchmark")
    trace = cached_trace(_ENV, _MODE, _SEED, _DURATION_S)
    hints = cached_hints(_MODE, _SEED, _DURATION_S)

    def replay(make):
        start = time.process_time()
        result = run_link(trace, make(), TcpSource(), hint_series=hints,
                          config=SimConfig(seed=_SEED))
        return time.process_time() - start, result

    payload = {"workload": f"{_ENV}/{_MODE} TCP {_DURATION_S:.0f} s "
                           f"single-link fast replay, seed {_SEED}"}
    baseline = load_bench_baseline("controllers")
    lines = []
    for name, (new, oracle) in _PROTOCOLS.items():
        # Rounds alternate between the two sides so host-speed drift
        # hits both alike; each side keeps its best round.
        t_new = t_oracle = float("inf")
        for _ in range(3):
            t, expected = replay(oracle)
            t_oracle = min(t_oracle, t)
            t, got = replay(new)
            t_new = min(t_new, t)
            assert _digest(got) == _digest(expected), name
        speedup = t_oracle / t_new
        lines.append(f"{name}: oracle {t_oracle:.2f} s, new {t_new:.2f} s "
                     f"-> {speedup:.2f}x")
        payload[f"{name}_oracle_s"] = t_oracle
        payload[f"{name}_s"] = t_new
        payload[f"{name}_speedup"] = speedup
    print("\n[controller speedup] " + "; ".join(lines))
    write_bench_artifact("controllers", payload)
    for name in _PROTOCOLS:
        check_regression(payload[f"{name}_speedup"], baseline,
                         f"{name}_speedup")
