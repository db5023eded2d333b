"""Parallel experiment executor: fan experiment tasks over processes.

The figure drivers are embarrassingly parallel -- every (environment,
mode, seed, protocol) replay and every vehicular network simulation is a
pure function of its arguments -- so :class:`ExperimentPool` maps task
lists over a ``ProcessPoolExecutor`` while guaranteeing the properties
the reproduction needs:

* **Ordered collection.**  Results come back in task-submission order
  regardless of completion order, so aggregation code is byte-for-byte
  identical to the old serial loops.
* **Determinism.**  Tasks carry explicit seeds: the converted figure
  drivers keep the paper's additive ``seed0 + i`` scheme so their
  numbers are reviewable against it, while :func:`derive_seed` mints
  collision-free seeds for new task families.  ``jobs=1`` runs the same
  task functions serially in-process, and the acceptance test asserts
  serial == parallel results.
* **Shared traces.**  Workers regenerate nothing that the on-disk
  :mod:`repro.channel.store` already holds; each worker's in-process
  ``lru_cache`` warms from disk instead of from physics.

The default job count is 1 (serial, zero-overhead); set it process-wide
with :func:`set_default_jobs` (the runner's ``--jobs`` flag does this)
or the ``REPRO_JOBS`` environment variable, or per-pool via
``ExperimentPool(jobs=N)``.

.. deprecated::
    The pools are now the *execution substrate* under
    :class:`repro.api.Session`, which plans whole declarative workloads
    (specs) over them with its own measured batch break-even table
    (:mod:`repro.api.planner`).  They keep working unchanged as thin
    compatibility entry points, but new code should construct specs and
    call the session; see ``repro.api``.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

from ..core.seeds import derive_seed

__all__ = [
    "ExperimentPool",
    "BatchExperimentPool",
    "ThroughputTask",
    "derive_seed",
    "default_jobs",
    "configured_default_jobs",
    "set_default_jobs",
    "run_throughput_task",
    "run_batch_tasks",
    "warm_cache_task",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

_DEFAULT_JOBS: int | None = None


def default_jobs() -> int:
    """The process-wide default worker count (>= 1)."""
    if _DEFAULT_JOBS is not None:
        return _DEFAULT_JOBS
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        return 1


def configured_default_jobs() -> int | None:
    """The :func:`set_default_jobs` value, or ``None`` if never set.

    Exposed so :class:`repro.api.Session` can honour the documented
    process-wide default without inheriting this module's forgiving
    ``REPRO_JOBS`` parsing (the session parses the environment strictly
    and raises ``ConfigError`` on nonsense).
    """
    return _DEFAULT_JOBS


def set_default_jobs(jobs: int) -> None:
    """Set the process-wide default worker count (clamped to >= 1)."""
    global _DEFAULT_JOBS
    _DEFAULT_JOBS = max(1, int(jobs))


@dataclass(frozen=True)
class ThroughputTask:
    """One link replay of the Chapter 3 comparison grid."""

    protocol: str
    env: str
    mode: str
    seed: int
    duration_s: float = 20.0
    tcp: bool = True
    #: Apply the paper's post-facto SampleRate bias (best window per
    #: trace) instead of a single-configuration run.
    best_samplerate: bool = False


def run_throughput_task(task: ThroughputTask) -> float:
    """Top-level (picklable) worker: throughput of one replay in Mb/s."""
    # Imported lazily so spawning this module stays cheap and the
    # circular experiments.common <-> experiments.parallel edge is
    # resolved at call time.
    from .common import best_samplerate_throughput, protocol_throughput

    if task.best_samplerate:
        return best_samplerate_throughput(
            task.env, task.mode, task.seed, task.duration_s, task.tcp
        )
    return protocol_throughput(
        task.protocol, task.env, task.mode, task.seed, task.duration_s, task.tcp
    )


def warm_cache_task(args: tuple) -> None:
    """Top-level worker: generate one store artefact (trace or hints).

    Tagged tasks -- ``("trace", env, mode, seed, duration_s)`` or
    ``("hints", mode, seed, duration_s)`` -- so drivers can warm the
    *unique* artefacts of a task grid in one pool pass before
    submitting the grid itself: on a cold store each trace and each
    hint series is synthesised by exactly one worker instead of by
    every worker whose replay tasks happen to share it.
    """
    from .common import cached_hints, cached_trace

    kind, *rest = args
    if kind == "trace":
        cached_trace(*rest)
    elif kind == "hints":
        cached_hints(*rest)
    else:
        raise ValueError(f"unknown warm task kind {kind!r}")


def run_batch_tasks(tasks: tuple) -> list[float]:
    """Top-level (picklable) worker: one task group through the batch engine.

    All tasks in the group share (protocol, traffic model); modes,
    durations, environments and seeds may differ (the engine replays
    ragged batches).  ``best_samplerate`` tasks expand into one link per
    candidate window, batched alongside, and reduce back to the
    per-task best -- exactly
    :func:`repro.experiments.common.best_samplerate_throughput`.
    """
    from ..mac import SimConfig, TcpSource, UdpSource
    from ..mac.batch import BatchLinkSpec, run_batch
    from ..rate import RATE_PROTOCOLS, SampleRate
    from .common import SAMPLERATE_WINDOWS_S, cached_hints, cached_trace

    specs: list[BatchLinkSpec] = []
    spans: list[tuple[int, int]] = []
    for task in tasks:
        trace = cached_trace(task.env, task.mode, task.seed, task.duration_s)
        hints = cached_hints(task.mode, task.seed, task.duration_s)
        if task.best_samplerate:
            controllers = [SampleRate(window_s=w) for w in SAMPLERATE_WINDOWS_S]
        else:
            controllers = [RATE_PROTOCOLS[task.protocol](task.seed)]
        start = len(specs)
        for controller in controllers:
            specs.append(BatchLinkSpec(
                trace=trace,
                controller=controller,
                traffic=TcpSource() if task.tcp else UdpSource(),
                hint_series=hints,
                config=SimConfig(seed=task.seed),
            ))
        spans.append((start, len(specs)))
    results = run_batch(specs)
    return [
        max(results[i].throughput_mbps for i in range(lo, hi))
        for lo, hi in spans
    ]


class ExperimentPool:
    """Deterministic ordered map over experiment tasks.

    ``jobs=None`` uses the process-wide default; ``jobs=1`` (the
    default default) short-circuits to a serial in-process loop, so
    library callers can always route work through the pool without
    paying process spin-up when parallelism is off.
    """

    def __init__(self, jobs: int | None = None, chunksize: int | None = None) -> None:
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))
        self._chunksize = chunksize

    def map(self, fn: Callable[[_T], _R], tasks: Iterable[_T]) -> list[_R]:
        """Apply ``fn`` to every task; results in submission order."""
        task_list: Sequence[_T] = list(tasks)
        if self.jobs <= 1 or len(task_list) <= 1:
            return [fn(task) for task in task_list]
        workers = min(self.jobs, len(task_list))
        chunksize = self._chunksize
        if chunksize is None:
            # A few chunks per worker balances stragglers against IPC.
            chunksize = max(1, len(task_list) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as executor:
            return list(executor.map(fn, task_list, chunksize=chunksize))

    def throughputs(self, tasks: Iterable[ThroughputTask]) -> list[float]:
        """Map the standard link-replay worker over ``tasks``."""
        return self.map(run_throughput_task, tasks)

    def scenario_summaries(self, tasks: Iterable) -> list[dict]:
        """Map the network-scenario worker over ``ScenarioTask``s.

        Each task is one whole multi-station replay
        (:func:`repro.experiments.fig5_net.run_scenario_task`); the
        tasks' own ``engine`` fields pick the replay engine.
        """
        from .fig5_net import run_scenario_task

        return self.map(run_scenario_task, tasks)


class BatchExperimentPool(ExperimentPool):
    """Grid executor that dispatches whole task groups to the batch engine.

    Tasks are grouped by ``(protocol, tcp, best_samplerate)`` -- the
    engine replays ragged batches natively, so mode, environment,
    duration and seed vary freely within a group and batches stay as
    wide as the grid allows -- and each group replays as one
    :func:`repro.mac.batch.run_batch` lockstep call (split into chunks
    of at most ``batch_size`` tasks -- a best-SampleRate task replays
    one link per candidate window, so a chunk may hold more links;
    groups smaller than ``min_batch`` tasks fall back to the per-task
    fast engine, where batching has nothing to amortise).  Results are
    *bit-identical* to :class:`ExperimentPool` for any grouping, batch
    size or job count -- the batch engine's per-link RNG streams are
    keyed by task seed, never by batch position -- so drivers can swap
    pools freely; the equivalence is pinned by the engine test suite.

    With ``jobs > 1`` the chunks (not individual tasks) fan out over a
    process pool, composing both parallelism axes.
    """

    def __init__(self, jobs: int | None = None, chunksize: int | None = None,
                 batch_size: int = 64, min_batch: int = 2) -> None:
        super().__init__(jobs, chunksize)
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.batch_size = batch_size
        self.min_batch = max(1, int(min_batch))

    def throughputs(self, tasks: Iterable[ThroughputTask]) -> list[float]:
        task_list = list(tasks)
        groups: dict[tuple, list[int]] = {}
        for i, task in enumerate(task_list):
            key = (task.protocol, task.tcp, task.best_samplerate)
            groups.setdefault(key, []).append(i)
        singles: list[int] = []
        chunks: list[list[int]] = []
        for members in groups.values():
            if len(members) < self.min_batch:
                singles.extend(members)
                continue
            for lo in range(0, len(members), self.batch_size):
                chunks.append(members[lo:lo + self.batch_size])
        results: list[float] = [0.0] * len(task_list)
        chunk_results = self.map(
            run_batch_tasks,
            [tuple(task_list[i] for i in chunk) for chunk in chunks],
        )
        for chunk, values in zip(chunks, chunk_results):
            for i, value in zip(chunk, values):
                results[i] = value
        for i, value in zip(singles,
                            self.map(run_throughput_task,
                                     [task_list[i] for i in singles])):
            results[i] = value
        return results

    # Network-scenario grids need no regrouping here: each scenario
    # replay is internally batched (all of its stations advance through
    # one SoA engine), so the inherited ``scenario_summaries`` applies
    # -- build the tasks with ``engine="batch"`` (as
    # ``fig5_net.run_grid(engine="batch")`` does) and fan them out.
