"""The session: one entry point for running every workload.

A :class:`Session` owns the execution policy -- seed lineage
(:func:`~repro.core.seeds.derive_seed` from the session seed), its own
on-disk trace store, the worker-process count, and the engine
preference -- and validates all of it eagerly (one
:class:`~repro.api.config.ConfigError` instead of scattered failures).
:meth:`Session.run` / :meth:`Session.map` then *plan* each declarative
spec: grid tasks are grouped by batchability and dispatched to the
batch engine only where its measured break-even width says it is
faster, else to the per-task fast engine (see :mod:`repro.api.planner`);
network scenarios pick the batch scenario engine when their structure
(one AP, all stations UDP) lets its round commit fire; and cold trace
stores are pre-warmed one artefact per worker before any grid fans out.

Results do not depend on the plan: every engine runs the same
controllers, traces and seeds, and the engines are pinned
bit-identical, so the engine choice and the worker count only change
how fast a workload completes.

>>> from repro.api import GridSpec, Session
>>> session = Session(jobs=1)
>>> run = session.run(GridSpec(protocols=("RapidSample",), mode="static",
...                            n_seeds=2, seed0=0, duration_s=4.0))
>>> len(run.results)
2
"""

from __future__ import annotations

import time

from ..channel.store import TraceStore, install_store
from ..core.seeds import derive_seed
from .config import ConfigError, resolve_engine, resolve_jobs, resolve_store_root
from .executor import (
    LinkTask,
    NetworkTask,
    run_link_group,
    run_link_task,
    run_network_task,
    warm_network_task,
)
from .planner import plan_link_tasks, resolve_network_engine
from .results import RunResult
from .specs import GridSpec, LinkReplaySpec, NetworkRunSpec

__all__ = ["Session"]


class Session:
    """Planning executor for declarative run specs.

    Parameters
    ----------
    engine:
        ``"auto"`` (default: plan per workload), or force ``"fast"`` /
        ``"reference"`` / ``"batch"`` everywhere.  Forced ``"batch"``
        batches only RapidSample (the one protocol of the comparison
        with an array adapter) and replays the rest on ``"fast"``, and
        ``RunResult.task_engines`` says so.  All
        engines are bit-identical; the choice is purely about speed.
    jobs:
        Worker processes for fan-outs.  ``None`` reads ``REPRO_JOBS``
        (malformed values raise :class:`ConfigError`); 1 runs serial
        in-process.
    store:
        Trace-store root.  ``None`` reads ``REPRO_TRACE_STORE`` (unset:
        ``.cache/trace-store``); ``"off"`` disables the on-disk store.
        The session holds its own :class:`TraceStore` on that root and
        installs it as the process store at construction and on every
        :meth:`map` / :meth:`scatter`, whose pool workers receive the
        root through their initializer -- so two sessions with
        different stores in one process never share artefacts.
    seed:
        Base seed of this session's :func:`derive_seed` lineage; specs
        with ``seed=None`` get collision-free seeds minted from it.
    """

    def __init__(
        self,
        engine: str = "auto",
        jobs: int | None = None,
        store: str | None = None,
        seed: int = 0,
    ) -> None:
        self.engine = resolve_engine(engine)
        self.jobs = resolve_jobs(jobs)
        self.seed = int(seed)
        self._store = TraceStore(resolve_store_root(store))
        install_store(self._store)

    # ------------------------------------------------------------------
    # Ownership surfaces
    # ------------------------------------------------------------------
    @property
    def store(self) -> TraceStore:
        """This session's :class:`~repro.channel.store.TraceStore`."""
        return self._store

    def derive(self, *key) -> int:
        """A collision-free seed from this session's lineage."""
        return derive_seed(self.seed, *key)

    def __repr__(self) -> str:  # pragma: no cover - debugging sugar
        return (f"Session(engine={self.engine!r}, jobs={self.jobs}, "
                f"seed={self.seed})")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, spec) -> RunResult:
        """Plan and execute one spec; the single-spec :meth:`map`."""
        return self.map([spec])[0]

    def map(self, specs) -> list[RunResult]:
        """Plan and execute specs together, one :class:`RunResult` each.

        Tasks are pooled *across* specs before planning, so e.g. four
        single-mode grids batch as one workload; results come back in
        spec order regardless of how the plan interleaved them.
        """
        start = time.perf_counter()
        install_store(self._store)
        specs = list(specs)
        pending_links: list[tuple[int, LinkReplaySpec]] = []
        pending_nets: list[tuple[int, NetworkTask]] = []
        layout: list[tuple[str, int, int]] = []  # (kind, offset, count)/spec
        for spec_i, spec in enumerate(specs):
            if isinstance(spec, GridSpec):
                expanded = spec.expand(self._grid_seed0(spec))
                layout.append(("link", len(pending_links), len(expanded)))
                pending_links += [(spec_i, link) for link in expanded]
            elif isinstance(spec, LinkReplaySpec):
                resolved = self._resolve_link(spec)
                layout.append(("link", len(pending_links), 1))
                pending_links.append((spec_i, resolved))
            elif isinstance(spec, NetworkRunSpec):
                layout.append(("network", len(pending_nets), 1))
                pending_nets.append((spec_i, self._plan_network(spec)))
            else:
                raise ConfigError(
                    f"cannot run {type(spec).__name__}; expected a "
                    f"LinkReplaySpec, GridSpec or NetworkRunSpec"
                )

        self._warm_links([link for _, link in pending_links])
        self._warm_networks([task for _, task in pending_nets])

        # --- link tasks: plan, then chunks first --------------------
        keys = [(link.protocol, link.tcp) for _, link in pending_links]
        plan = plan_link_tasks(keys, self.engine)
        tasks = [
            LinkTask(protocol=link.protocol, env=link.env, mode=link.mode,
                     seed=link.seed, duration_s=link.duration_s,
                     tcp=link.tcp, best_samplerate=link.best_samplerate,
                     segments=link.segments, engine=plan.engines[i])
            for i, (_, link) in enumerate(pending_links)
        ]
        link_results: list = [None] * len(tasks)
        chunk_results = self.scatter(
            run_link_group, [tuple(tasks[i] for i in chunk)
                             for chunk in plan.chunks])
        for chunk, values in zip(plan.chunks, chunk_results):
            for i, value in zip(chunk, values):
                link_results[i] = value
        for i, value in zip(plan.singles,
                            self.scatter(run_link_task,
                                         [tasks[i] for i in plan.singles])):
            link_results[i] = value

        # --- network tasks --------------------------------------------
        net_results = self.scatter(run_network_task,
                                   [task for _, task in pending_nets])

        elapsed = time.perf_counter() - start
        out: list[RunResult] = []
        for spec, (kind, offset, count) in zip(specs, layout):
            if kind == "link":
                window = range(offset, offset + count)
                out.append(RunResult(
                    spec=spec,
                    results=tuple(link_results[i] for i in window),
                    task_engines=tuple(plan.engines[i] for i in window),
                    seeds=tuple(pending_links[i][1].seed for i in window),
                    jobs=self.jobs,
                    elapsed_s=elapsed,
                ))
            else:
                task = pending_nets[offset][1]
                out.append(RunResult(
                    spec=spec,
                    results=(net_results[offset],),
                    task_engines=(task.engine,),
                    seeds=(task.seed,),
                    jobs=self.jobs,
                    elapsed_s=elapsed,
                ))
        return out

    def scatter(self, fn, items) -> list:
        """Ordered pool map of an arbitrary picklable worker.

        The escape hatch for fan-outs that are not replay specs (trace
        synthesis sweeps, vehicular network ensembles): same ordered
        collection and determinism guarantees as :meth:`map`, same
        worker count, no planning.  :meth:`map` fans its planned tasks
        out through here too.
        """
        # Deferred: importing repro.experiments imports the drivers,
        # which import this package.
        from ..experiments.parallel import ordered_map

        install_store(self._store)
        return ordered_map(fn, items, self.jobs)

    # ------------------------------------------------------------------
    # Seed lineage
    # ------------------------------------------------------------------
    def _grid_seed0(self, spec: GridSpec) -> int:
        if spec.seed0 is not None:
            return spec.seed0
        return self.derive("grid", spec.mode, spec.envs, spec.protocols,
                           spec.duration_s, spec.tcp, spec.n_seeds)

    def _resolve_link(self, spec: LinkReplaySpec) -> LinkReplaySpec:
        if spec.seed is not None:
            return spec
        from dataclasses import replace

        seed = self.derive("link_replay", spec.protocol, spec.env, spec.mode,
                           spec.segments, spec.duration_s, spec.tcp)
        return replace(spec, seed=seed)

    # ------------------------------------------------------------------
    # Network planning
    # ------------------------------------------------------------------
    def _plan_network(self, spec: NetworkRunSpec) -> NetworkTask:
        """Resolve the seed and pick the scenario engine: under ``auto``
        the batch engine when the scenario has one AP and only UDP
        stations, where its round commit fires."""
        seed = spec.seed
        if seed is None:
            seed = self.derive("network_run", spec.scenario, spec.policy,
                               spec.duration_s, spec.overrides)
        # Build once (cheap: scenarios are frozen configs, no traces)
        # to learn the AP count and traffic the auto rule needs.
        scenario = spec.build_scenario(seed, engine="reference")
        engine = resolve_network_engine(self.engine, scenario)
        return NetworkTask(scenario=spec.scenario, seed=seed,
                           policy=spec.policy, duration_s=spec.duration_s,
                           overrides=spec.overrides, engine=engine)

    # ------------------------------------------------------------------
    # Store pre-warm (one worker per unique artefact)
    # ------------------------------------------------------------------
    def _warm_links(self, links) -> None:
        """Cold-store pre-warm for link grids (parallel runs only).

        Protocol replays sharing a (env, mode, seed) trace -- or a
        shared explicit segments script -- must not regenerate it in
        one worker each; on a warm store this is a cheap no-op pass.
        Serial runs warm lazily through the caches.
        """
        if self.jobs <= 1 or not self._store.enabled:
            return
        from ..experiments.parallel import warm_cache_task

        warm: list[tuple] = []
        seen: set[tuple] = set()
        for link in links:
            if link.segments is not None:
                keys = (("script_trace", link.env, link.segments, link.seed),
                        ("script_hints", link.segments, link.seed))
            else:
                keys = (("trace", link.env, link.mode, link.seed,
                         link.duration_s),
                        ("hints", link.mode, link.seed, link.duration_s))
            for key in keys:
                if key not in seen:
                    seen.add(key)
                    warm.append(key)
        if warm:
            self.scatter(warm_cache_task, warm)

    def _warm_networks(self, tasks) -> None:
        """Per-station artefact pre-warm for scenario replays.

        One (trace, hints) pair per worker call; policy and engine
        variants of the same (scenario, seed) world share artefacts
        *through the store* (content-addressed), so each world is
        warmed once.  Without an on-disk store the warm pass is
        skipped: pool workers would keep what they generate in their
        own memos, so the replays generate lazily instead.
        """
        if not tasks or not self._store.enabled:
            return
        from ..network import make_scenario

        warm: list[tuple] = []
        seen: set[tuple] = set()
        for task in tasks:
            world = (task.scenario, task.seed, task.duration_s,
                     task.overrides)
            if world in seen:
                continue
            seen.add(world)
            scenario = make_scenario(task.scenario, seed=task.seed,
                                     duration_s=task.duration_s,
                                     **dict(task.overrides))
            warm += [world + (i,) for i in range(scenario.n_stations)]
        if warm:
            self.scatter(warm_network_task, warm)
