"""Ablations of hint-aware design choices: RapidSample's fail window,
its history reset on movement, and the post-movement fast-probe hold."""

import numpy as np
from conftest import run_once

from repro.channel import OFFICE, generate_trace
from repro.core.architecture import HintAwareNode
from repro.mac import SimConfig, TcpSource, run_link
from repro.rate import HintAwareRateController, RapidSample
from repro.sensors import mixed_mobility_script, pacing_script
from repro.topology import AdaptiveProber, run_probing
from repro.experiments.fig4_x import _calibrated_weak_trace, _combined_script


def _mobile_tput(fail_ms, succ_ms=5.0, seeds=(0, 1, 2)):
    vals = []
    for seed in seeds:
        script = pacing_script(20.0)
        trace = generate_trace(OFFICE, script, seed=seed)
        hints = HintAwareNode(script, seed=seed).movement_hint_series()
        ctrl = RapidSample(succ_ms=succ_ms, fail_ms=fail_ms)
        vals.append(run_link(trace, ctrl, TcpSource(), hints,
                             SimConfig(seed=seed)).throughput_mbps)
    return float(np.mean(vals))


def test_bench_ablation_rapidsample_fail_window(benchmark):
    """The fail_ms quarantine matched to the ~10 ms coherence time is
    the paper's central parameter choice; far longer windows over-
    quarantine and far shorter ones resample dead rates."""
    def sweep():
        return {w: _mobile_tput(w) for w in (2.0, 10.0, 80.0)}
    result = run_once(benchmark, sweep)
    print("\n[Ablation] RapidSample fail_ms (mobile TCP throughput, Mb/s):")
    print("  " + "  ".join(f"{w}ms={v:.2f}" for w, v in result.items()))
    assert result[10.0] >= 0.9 * max(result.values())


def test_bench_ablation_switch_reset(benchmark):
    """Resetting RapidSample's history when a mobile episode starts."""
    def compare():
        out = {}
        for reset in (True, False):
            vals = []
            for seed in range(3):
                script = mixed_mobility_script(20.0, mobile_first=bool(seed % 2))
                trace = generate_trace(OFFICE, script, seed=seed)
                hints = HintAwareNode(script, seed=seed).movement_hint_series()
                ctrl = HintAwareRateController(reset_on_switch=reset)
                vals.append(run_link(trace, ctrl, TcpSource(), hints,
                                     SimConfig(seed=seed)).throughput_mbps)
            out[reset] = float(np.mean(vals))
        return out
    result = run_once(benchmark, compare)
    print("\n[Ablation] hint-switch reset: "
          f"reset={result[True]:.2f} Mb/s, keep={result[False]:.2f} Mb/s")


def test_bench_ablation_probe_hold(benchmark):
    """The 1 s fast-probe hold after movement stops (Section 4.2)."""
    def compare():
        out = {}
        script = _combined_script(100.0)
        trace = _calibrated_weak_trace(script, 5)
        hints = HintAwareNode(script, seed=5).movement_hint_series()
        for hold in (0.0, 1.0, 5.0):
            run = run_probing(trace, AdaptiveProber(1.0, 10.0, hold), hints)
            out[hold] = (run.mean_abs_error, run.probes_per_s)
        return out
    result = run_once(benchmark, compare)
    print("\n[Ablation] fast-probe hold after stopping "
          "(error, probes/s):")
    for hold, (err, pps) in result.items():
        print(f"  hold={hold}s: err={err:.3f}, {pps:.1f} probes/s")
