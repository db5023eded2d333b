"""Drivers for the Chapter 5 applications without dedicated figures:
adaptive association (5.2.1), adaptive scheduling (5.2.2), PHY
parameter adaptation (5.3), power saving (5.4), the ETX worked example
(4.2) and the microphone activity hint (5.6).

The six sub-experiments are independent pure functions of the seed, so
``main`` fans them out over :meth:`repro.api.Session.scatter` (ordered
collection keeps the report layout identical for any job count).
"""

from __future__ import annotations

import numpy as np

from ..ap import SchedulingScenario, compare_association_policies, run_scheduler
from ..core.architecture import HintAwareNode
from ..phy import (
    DELAY_SPREAD_INDOOR_NS,
    DELAY_SPREAD_OUTDOOR_NS,
    GUARD_EXTENDED_US,
    GUARD_STANDARD_US,
    effective_throughput_mbps,
)
from ..power import simulate_power
from ..sensors import Microphone, noise_variation, stop_and_go_script
from ..topology import analyse_misselection
from .common import print_table

__all__ = [
    "run_association",
    "run_scheduling",
    "run_phy",
    "run_power",
    "run_etx_example",
    "run_microphone",
    "run_extra_task",
    "main",
]


def run_association(seed: int = 0) -> dict:
    """Adaptive association: learned lifetime scores vs strongest signal."""
    comparison = compare_association_policies(seed=seed)
    return {
        "baseline_mean_lifetime_s": comparison.baseline_mean_s,
        "hint_aware_mean_lifetime_s": comparison.hint_aware_mean_s,
        "improvement": comparison.improvement,
    }


def run_scheduling(seed: int = 0) -> dict:
    """Mobile-favouring scheduling raises aggregate delivered data."""
    scenario = SchedulingScenario()
    out = {}
    for policy in ("frame_fair", "time_fair", "hint_aware"):
        result = run_scheduler(policy, scenario)
        out[policy] = {
            "static": result.static_delivered,
            "mobile": result.mobile_delivered,
            "aggregate": result.aggregate_delivered,
            "static_done_at_s": result.static_done_at_s,
        }
    return out


def run_phy(snr_db: float = 20.0, rate: int = 3) -> dict:
    """Cyclic-prefix choice indoors vs outdoors (Section 5.3)."""
    rows = {}
    for place, spread in (("indoor", DELAY_SPREAD_INDOOR_NS),
                          ("outdoor", DELAY_SPREAD_OUTDOOR_NS)):
        std = effective_throughput_mbps(rate, GUARD_STANDARD_US, spread, snr_db)
        ext = effective_throughput_mbps(rate, GUARD_EXTENDED_US, spread, snr_db)
        rows[place] = {
            "standard_gi_mbps": std,
            "extended_gi_mbps": ext,
            "hinted_choice": "extended" if place == "outdoor" else "standard",
            "hinted_gain": (ext / std if place == "outdoor" else std / ext),
        }
    return rows


def run_power(seed: int = 0) -> dict:
    """Movement-based radio sleep vs periodic scanning (Section 5.4)."""
    script = stop_and_go_script(n_cycles=4, still_s=120.0, move_s=30.0)
    hints = HintAwareNode(script, seed=seed).movement_hint_series()
    baseline = simulate_power(script, "baseline")
    aware = simulate_power(script, "hint_aware", movement_hints=hints)
    return {
        "baseline_energy_j": baseline.energy_j,
        "hint_aware_energy_j": aware.energy_j,
        "savings_fraction": 1.0 - aware.energy_j / baseline.energy_j,
        "baseline_scans": baseline.scans,
        "hint_aware_scans": aware.scans,
    }


def run_etx_example() -> dict:
    """Section 4.2's worked mis-selection example (p1=0.8, p2=0.6, d=0.25)."""
    analysis = analyse_misselection(0.8, 0.6, 0.25)
    return {
        "can_pick_wrong": analysis.can_pick_wrong,
        "penalty_tx": analysis.penalty_tx,      # 5/12
        "overhead": analysis.overhead,          # 1/3
    }


def run_microphone(seed: int = 0) -> dict:
    """Section 5.6: mic noise variation separates busy from quiet."""
    script = stop_and_go_script(n_cycles=2, still_s=30.0, move_s=30.0)
    mic = Microphone(script, seed=seed)
    levels = np.array([r.values[0] for r in mic.readings()])
    variation = noise_variation(levels)
    truth = script.moving_flags(np.arange(len(levels)) / mic.rate_hz)
    return {
        "quiet_variation_db": float(np.median(variation[~truth])),
        "busy_variation_db": float(np.median(variation[truth])),
        "separation": float(
            np.median(variation[truth]) / max(np.median(variation[~truth]), 1e-9)
        ),
    }


#: Sub-experiment registry: name -> (runner, takes_seed).  ``main``'s
#: fan-out and any external caller share it.
_EXTRAS = {
    "association": (run_association, True),
    "scheduling": (run_scheduling, True),
    "phy": (run_phy, False),
    "power": (run_power, True),
    "etx": (run_etx_example, False),
    "microphone": (run_microphone, True),
}

#: (title, value_format) per sub-experiment, in report order.
_REPORT = {
    "association": ("Adaptive association (5.2.1)", "{:.3f}"),
    "scheduling": ("Adaptive scheduling (5.2.2)", "{:.0f}"),
    "phy": ("Cyclic prefix adaptation (5.3)", "{:.3f}"),
    "power": ("Movement-based power saving (5.4)", "{:.3f}"),
    "etx": ("ETX mis-selection example (4.2)", "{:.3f}"),
    "microphone": ("Microphone activity hint (5.6)", "{:.3f}"),
}


def run_extra_task(args: tuple) -> dict:
    """Top-level (picklable) worker: one sub-experiment by name."""
    name, seed = args
    runner, takes_seed = _EXTRAS[name]
    return runner(seed) if takes_seed else runner()


def main(seed: int = 0, session=None) -> dict:
    if session is None:
        from ..api import Session

        session = Session()
    names = list(_REPORT)
    results = session.scatter(run_extra_task, [(name, seed) for name in names])
    out = dict(zip(names, results))
    for name in names:
        title, value_format = _REPORT[name]
        print_table(title, out[name], value_format=value_format)
    return out


if __name__ == "__main__":
    main()
