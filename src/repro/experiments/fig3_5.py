"""Figures 3-5/3-6/3-7/3-8: the rate-adaptation throughput comparisons.

One driver covers all four figures; they differ only in mode, workload
and normalisation:

* Figure 3-5 -- mixed 50/50 static+mobile traces, TCP, three indoor/
  outdoor environments, normalised to the hint-aware protocol.
* Figure 3-6 -- mobile-only traces, normalised to RapidSample.
* Figure 3-7 -- static-only traces, normalised to RapidSample.
* Figure 3-8 -- vehicular drive-by traces, UDP ("TCP times out when
  faced with the high loss rate"), normalised to RapidSample.

SampleRate gets the paper's post-facto bias: for each trace the best of
several window parameters is kept ("we post-process the trace to
determine the best SampleRate parameter to use in each case").

The full grid (environments x traces x protocols) is declared as one
:class:`repro.api.GridSpec` and planned by :class:`repro.api.Session`
(``engine="auto"`` batches the groups wide enough to gain, cold
stores are pre-warmed one artefact per worker, and the session's
``jobs`` fans replays over worker processes).  Results are identical
for any job count and any engine.
"""

from __future__ import annotations

import numpy as np

from ..api import GridSpec, Session
from ..mac import mean_confidence_interval, normalise_to
from .common import INDOOR_OUTDOOR_ENVS, RATE_PROTOCOLS, print_table

__all__ = ["run_comparison", "run", "main"]


def run_comparison(
    mode: str,
    environments: tuple[str, ...] = INDOOR_OUTDOOR_ENVS,
    n_traces: int = 10,
    duration_s: float = 20.0,
    tcp: bool = True,
    normalise: str = "HintAware",
    seed0: int = 0,
    session: Session | None = None,
) -> dict:
    """Mean normalised throughput per protocol per environment.

    Returns ``{env: {protocol: normalised mean}}`` plus confidence
    half-widths and the absolute reference throughput.  Without a
    ``session`` the grid runs on a default ``Session()``.
    """
    if session is None:
        session = Session()
    protocols = list(RATE_PROTOCOLS)
    grid = GridSpec(
        protocols=tuple(protocols),
        envs=tuple(environments),
        mode=mode,
        n_seeds=n_traces,
        seed0=seed0,
        duration_s=duration_s,
        tcp=tcp,
        best_samplerate_protocols=("SampleRate",),
    )
    throughputs = session.run(grid).throughputs

    out: dict = {"mode": mode, "normalise": normalise, "envs": {}}
    cursor = 0
    for env in environments:
        per_protocol: dict[str, list[float]] = {p: [] for p in protocols}
        for _ in range(n_traces):
            for protocol in protocols:
                per_protocol[protocol].append(throughputs[cursor])
                cursor += 1
        means = {p: float(np.mean(v)) for p, v in per_protocol.items()}
        normalised = normalise_to(means, normalise)
        cis = {
            p: mean_confidence_interval(
                np.asarray(v) / means[normalise]
            ).half_width
            for p, v in per_protocol.items()
        }
        out["envs"][env] = {
            "normalised": normalised,
            "ci_half_width": cis,
            "reference_mbps": means[normalise],
        }
    return out


def run(seed: int = 0, n_traces: int = 10,
        session: Session | None = None) -> dict:
    """Figure 3-5 proper: mixed-mobility TCP, normalised to hint-aware."""
    return run_comparison("mixed", n_traces=n_traces, seed0=seed,
                          session=session)


def main(seed: int = 0, n_traces: int = 10,
         session: Session | None = None) -> dict:
    result = run(seed, n_traces, session=session)
    for env, data in result["envs"].items():
        print_table(
            f"Figure 3-5 ({env}): throughput / hint-aware, mixed mobility",
            data["normalised"],
        )
    return result


if __name__ == "__main__":
    main()
