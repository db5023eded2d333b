"""The benchmark's workloads: which specs each one runs, and how its
results are digested and checked.

A workload is a pure function of the benchmark seed, split into a fixed
number of *shards*: one timed replay is one ``Session.map`` of one
shard.  Sharding lets a run average over many inputs (every shard has
its own traces or worlds) while each map stays short enough to repeat.
Trace seeds and scenario seeds are ``seed * shards + shard``-indexed, so
no two (seed, shard) pairs share an input.  ``smoke=True`` shrinks
every duration so the self-test finishes in seconds; smoke results are
never compared with the recorded goldens.
"""

from __future__ import annotations

import hashlib
import json

#: The seed whose per-task digests are recorded in ``golden.json``.
DEFAULT_SEED = 0

WORKLOADS = ("fig3_tcp_grid", "net_catalog")

#: Shards per workload.  The network catalog is one shard: its set-up
#: (20 station traces for ``dense_cell`` alone) is too dear to multiply.
SHARDS = {"fig3_tcp_grid": 8, "net_catalog": 1}

#: Link-grid shard shape: traces per environment and replay length,
#: shorter than the paper's 20 s so a shard replays in a few seconds.
TCP_SEEDS, TCP_DURATION_S = 1, 2.0
#: Network replays run this share of each scenario's catalog duration.
NET_DURATION_SCALE = 0.5


def specs(name: str, seed: int, shard: int = 0, smoke: bool = False) -> list:
    """The specs one ``Session.map`` (one shard) of ``name`` runs."""
    from repro.api import GridSpec, NetworkRunSpec
    from repro.experiments.common import INDOOR_OUTDOOR_ENVS
    from repro.network import make_scenario, scenario_names
    from repro.rate import RATE_PROTOCOLS

    if name not in SHARDS:
        raise ValueError(f"unknown workload {name!r}; expected one of "
                         f"{WORKLOADS}")
    if not 0 <= shard < SHARDS[name]:
        raise ValueError(f"{name} has {SHARDS[name]} shards, not {shard + 1}")
    index = seed * SHARDS[name] + shard
    protocols = tuple(RATE_PROTOCOLS)
    if name == "fig3_tcp_grid":
        return [GridSpec(
            protocols=protocols, envs=INDOOR_OUTDOOR_ENVS, mode="mixed",
            n_seeds=TCP_SEEDS, seed0=index * TCP_SEEDS,
            duration_s=1.0 if smoke else TCP_DURATION_S, tcp=True,
            best_samplerate_protocols=("SampleRate",),
        )]
    out = []
    for scenario in scenario_names():
        catalog_s = make_scenario(scenario, seed=index).duration_s
        duration_s = 3.0 if smoke else catalog_s * NET_DURATION_SCALE
        out += [NetworkRunSpec(scenario=scenario, seed=index, policy=policy,
                               duration_s=duration_s)
                for policy in ("strongest", "lifetime")]
    return out


def all_specs(name: str, seed: int, smoke: bool = False) -> list:
    """Every shard's specs: what the workload's set-up synthesizes for."""
    return [spec for shard in range(SHARDS[name])
            for spec in specs(name, seed, shard, smoke)]


def task_results(runs) -> list:
    """Every task payload of a ``Session.map`` call, in spec order."""
    return [result for run in runs for result in run.results]


def task_engines(runs) -> list[str]:
    """The engine each task ran on, parallel to :func:`task_results`."""
    return [engine for run in runs for engine in run.task_engines]


def synthesize(spec_list: list) -> None:
    """Generate every trace and hint artefact ``spec_list`` reads.

    Goes through the same store-backed entry points the session's
    pre-warm pass uses, so the store ends up holding exactly what a
    replay of the specs looks up.
    """
    from repro.api import GridSpec, NetworkRunSpec
    from repro.api.executor import warm_network_task
    from repro.experiments.parallel import warm_cache_task
    from repro.network import make_scenario

    seen: set = set()
    for spec in spec_list:
        if isinstance(spec, GridSpec):
            for link in spec.expand(spec.seed0):
                for key in (("trace", link.env, link.mode, link.seed,
                             link.duration_s),
                            ("hints", link.mode, link.seed,
                             link.duration_s)):
                    if key not in seen:
                        seen.add(key)
                        warm_cache_task(key)
        elif isinstance(spec, NetworkRunSpec):
            world = (spec.scenario, spec.seed, spec.duration_s,
                     spec.overrides)
            if world in seen:
                continue
            seen.add(world)
            scenario = make_scenario(spec.scenario, seed=spec.seed,
                                     duration_s=spec.duration_s,
                                     **dict(spec.overrides))
            for index in range(scenario.n_stations):
                warm_network_task(world + (index,))
        else:
            raise TypeError(f"cannot synthesize for {type(spec).__name__}")


def task_payload(result) -> dict:
    """The checked fields of one task result, as plain values.

    Link tasks: :class:`SimResult` throughput, delivered, dropped,
    attempts and per-rate attempts.  Network tasks: the
    :class:`NetworkSummary` dict.
    """
    if hasattr(result, "to_dict"):
        return result.to_dict()
    return {
        "throughput_mbps": result.throughput_mbps,
        "delivered": result.delivered,
        "dropped": result.dropped,
        "attempts": result.attempts,
        "rate_attempts": [int(x) for x in result.rate_attempts],
    }


def task_digest(result) -> str:
    """Exact digest of :func:`task_payload` (floats by ``repr``)."""
    blob = json.dumps(task_payload(result), sort_keys=True)
    return hashlib.blake2b(blob.encode(), digest_size=8).hexdigest()


def task_problems(result) -> list[str]:
    """Invariants every task result must satisfy, whatever the seed."""
    payload = task_payload(result)
    problems = []
    if "rate_attempts" in payload:
        if sum(payload["rate_attempts"]) != payload["attempts"]:
            problems.append("per-rate attempts do not sum to attempts")
        if payload["delivered"] > payload["attempts"]:
            problems.append("more deliveries than attempts")
        if min(payload["delivered"], payload["dropped"]) < 0:
            problems.append("negative packet count")
    else:
        if payload["attempts"] <= 0:
            problems.append("a network replay made no attempts")
        if payload["handoffs"] < 0:
            problems.append("negative handoff count")
    if not all(_finite_non_negative(v) for v in _floats(payload)):
        problems.append("a throughput is negative or not finite")
    return problems


def _floats(payload: dict):
    for value in payload.values():
        if isinstance(value, float):
            yield value
        elif isinstance(value, dict):
            yield from _floats(value)


def _finite_non_negative(value: float) -> bool:
    return value == value and 0.0 <= value < float("inf")


def spot_check(spec_list: list, index: int, planned_engine: str):
    """The spec and session engine that independently replay one task.

    Task ``index`` of the flattened workload is replayed alone: link
    tasks on the readable reference engine, network tasks on whichever
    scenario engine the plan did *not* pick.  Every engine is pinned
    bit-identical, so the replay's digest must equal the planned one.
    """
    from repro.api import GridSpec

    flat = []
    for spec in spec_list:
        flat += spec.expand(spec.seed0) if isinstance(spec, GridSpec) else [spec]
    spec = flat[index]
    if hasattr(spec, "protocol"):
        return spec, "reference"
    return spec, "reference" if planned_engine == "batch" else "batch"
