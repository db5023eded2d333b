"""Picklable execution units behind :class:`repro.api.Session`.

A planned workload is a list of :class:`LinkTask` / :class:`NetworkTask`
values -- specs with their seed resolved and their replay engine chosen
-- mapped over worker processes
(:func:`repro.experiments.parallel.ordered_map`) by the top-level
functions here.  Imports inside the workers are lazy so spawning the
module in a worker process stays cheap.

Equivalence contract: for the same (protocol, env/mode or segments,
seed, traffic), :func:`run_link_task` on any engine and
:func:`run_link_group` produce **bit-identical**
:class:`~repro.mac.SimResult`\\ s -- they build the same controllers,
traces, hint series and ``SimConfig`` seeds, and the engines themselves
are pinned bit-identical.  The best-SampleRate reduction (per task on
:func:`run_link_task`) keeps the first window maximising throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "LinkTask",
    "NetworkTask",
    "run_link_task",
    "run_link_group",
    "run_network_task",
    "warm_network_task",
]


@dataclass(frozen=True)
class LinkTask:
    """One planned link replay (a :class:`LinkReplaySpec` + decisions)."""

    protocol: str
    env: str
    mode: str
    seed: int
    duration_s: float
    tcp: bool
    best_samplerate: bool
    segments: tuple | None
    #: Concrete :class:`~repro.mac.SimConfig` engine for this task
    #: (``fast``/``reference``/``batch``; the planner resolved "auto").
    engine: str


@dataclass(frozen=True)
class NetworkTask:
    """One planned scenario replay (a :class:`NetworkRunSpec` + decisions)."""

    scenario: str
    seed: int
    policy: str
    duration_s: float | None
    overrides: tuple
    #: Scenario engine (``reference``/``batch``).
    engine: str


def _link_artefacts(task: LinkTask):
    """(trace, hint series) for one task, via the shared caches."""
    from ..experiments.common import (
        cached_hints,
        cached_script_hints,
        cached_script_trace,
        cached_trace,
    )

    if task.segments is not None:
        return (cached_script_trace(task.env, task.segments, task.seed),
                cached_script_hints(task.segments, task.seed))
    return (cached_trace(task.env, task.mode, task.seed, task.duration_s),
            cached_hints(task.mode, task.seed, task.duration_s))


def _controllers(task: LinkTask) -> list:
    """The controller(s) a task replays: one per candidate SampleRate
    window under the post-facto bias (specs allow it on SampleRate
    only), else the protocol's own."""
    from ..experiments.common import SAMPLERATE_WINDOWS_S
    from ..rate import RATE_PROTOCOLS, SampleRate

    if task.best_samplerate:
        return [SampleRate(window_s=w) for w in SAMPLERATE_WINDOWS_S]
    return [RATE_PROTOCOLS[task.protocol](task.seed)]


def _best(results: list):
    """First result maximising throughput."""
    best = results[0]
    for result in results[1:]:
        if result.throughput_mbps > best.throughput_mbps:
            best = result
    return best


def run_link_task(task: LinkTask):
    """Top-level (picklable) worker: one replay -> :class:`SimResult`."""
    from ..mac import SimConfig, TcpSource, UdpSource, run_link

    trace, hints = _link_artefacts(task)
    results = [
        run_link(trace, controller,
                 traffic=TcpSource() if task.tcp else UdpSource(),
                 hint_series=hints,
                 config=SimConfig(seed=task.seed, engine=task.engine))
        for controller in _controllers(task)
    ]
    return _best(results)


def run_link_group(tasks: tuple):
    """Top-level (picklable) worker: one batchable task group.

    All tasks share (protocol, traffic model) -- the planner sends a
    chunk here only for a protocol with an array adapter -- and the
    batch engine replays the whole ragged group in lockstep, one link
    per task: the exact link :func:`run_link_task` would replay.  A
    best-SampleRate task never arrives (SampleRate has no array
    adapter); its several candidate windows would fail the unpack.
    """
    from ..mac import SimConfig, TcpSource, UdpSource
    from ..mac.batch import BatchLinkSpec, run_batch

    specs: list[BatchLinkSpec] = []
    for task in tasks:
        trace, hints = _link_artefacts(task)
        [controller] = _controllers(task)
        specs.append(BatchLinkSpec(
            trace=trace,
            controller=controller,
            traffic=TcpSource() if task.tcp else UdpSource(),
            hint_series=hints,
            config=SimConfig(seed=task.seed),
        ))
    return run_batch(specs)


def warm_network_task(args: tuple) -> None:
    """Top-level worker: generate one station's trace + hint artefacts.

    ``(scenario, seed, duration_s, overrides, station_index)`` -- one
    store artefact pair per worker call, covering catalog overrides, so
    sessions warm exactly the worlds their specs describe.
    """
    from ..network import make_scenario, station_hints, station_trace

    name, seed, duration_s, overrides, index = args
    scenario = make_scenario(name, seed=seed, duration_s=duration_s,
                             **dict(overrides))
    station_trace(scenario, index)
    station_hints(scenario, index)


def run_network_task(task: NetworkTask):
    """Top-level (picklable) worker: one scenario -> :class:`NetworkSummary`."""
    from ..network import make_scenario, run_scenario
    from .results import NetworkSummary

    scenario = make_scenario(
        task.scenario, seed=task.seed, duration_s=task.duration_s,
        association_policy=task.policy, engine=task.engine,
        **dict(task.overrides),
    )
    return NetworkSummary.from_result(run_scenario(scenario))
