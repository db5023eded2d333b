"""In-memory span tracer, installed around the program's layer boundaries
from outside the program.

:func:`install` wraps the public functions and methods of each layer of
``repro`` -- the session API, the trace store, trace and hint synthesis,
the MAC engines, the traffic sources, every rate controller and batch
rate adapter, and the network scheduler -- in timing wrappers.  Module
functions are replaced at every name a caller looks them up under (a
``from x import f`` copy is a separate name); methods are replaced on
the class that defines them, so inherited methods stay shared and the
program's own ``getattr(type(c), ...) is base`` checks keep their
meaning.  The wrappers only time and count: they never touch arguments
or results, so a traced replay is bit-identical to an untraced one
(the benchmark checks this).

Every span records its name, start, end and parent.  Spans at the
per-attempt boundaries (rate controller hooks, traffic sources, link
steppers) occur millions of times per run, so they are kept as
per-(name, parent) aggregates instead of one record each; every other
span is kept whole.  Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

#: Layer a span belongs to.  ``api``/``store``/``synth``/``mac``/
#: ``traffic``/``rate``/``network`` name the benchmark's layers.
LAYERS = ("api", "store", "synth", "mac", "traffic", "rate", "network")

#: Rate-controller protocol per defining module (``rate.<P>.s``).
PROTOCOL_OF_MODULE = {
    "repro.rate.rapidsample": "RapidSample",
    "repro.rate.samplerate": "SampleRate",
    "repro.rate.rraa": "RRAA",
    "repro.rate.rbar": "RBAR",
    "repro.rate.charm": "CHARM",
    "repro.rate.hintaware": "HintAware",
    "repro.rate.fixed": "Fixed",
    "repro.rate.oracle": "Oracle",
}

#: Names whose total time is the replay engines' (``mac.engine_s`` in an
#: engine-only trace, and the planner counterfactual).
ENGINE_SPANS = ("mac.run_link", "mac.run_batch", "network.run_scenario")

_CONTROLLER_METHODS = ("choose_rate", "on_result", "observe_snr", "on_hint",
                       "reset")
_ADAPTER_METHODS = ("on_hint_batch", "observe_snr_batch", "choose_rate_batch",
                    "on_result_batch", "retire", "reset_rows", "reload_rows",
                    "compact")
_CRUISE_METHODS = ("eligible", "current", "success_noop", "commit_result")
_TRAFFIC_METHODS = ("next_send_time_us", "on_delivered", "on_dropped")

_MODULES = (
    "repro.api.session", "repro.api.executor", "repro.api.planner",
    "repro.channel.store", "repro.channel.tracegen", "repro.core.architecture",
    "repro.experiments.common", "repro.experiments.parallel",
    "repro.mac", "repro.mac.simulator", "repro.mac.batch", "repro.mac.traffic",
    "repro.rate", "repro.network", "repro.network.simulator",
    "repro.network.batch", "repro.network.traces", "repro.ap.association",
)


class Tracer:
    """Spans held in memory; totals per name, layer and protocol."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        #: Open frames, innermost last.
        self.stack: list[list] = []
        #: Whole spans: ``(id, name, start_s, end_s, parent_id)``.
        self.spans: list[tuple] = []
        #: ``(name, parent name) -> [calls, total_s, self_s]`` for the
        #: per-attempt boundaries.
        self.aggregates: dict[tuple, list] = {}
        #: ``name -> [calls, total_s, self_s]`` for every span.
        self.by_name: dict[str, list] = {}
        #: Layer -> summed self time.
        self.layer_self: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        #: Layer -> [calls, total_s] of spans with no same-layer ancestor.
        self.layer_outer: dict[str, list] = {lay: [0, 0.0] for lay in LAYERS}
        #: Protocol -> total_s of rate spans with no labelled ancestor.
        self.protocol_outer: dict[str, float] = {}
        #: Work counters the wrappers read off results.
        self.counts: dict[str, float] = {}
        self._depth: dict[str, int] = dict.fromkeys(LAYERS, 0)
        self._label_depth = 0
        self._next_id = 1

    # ------------------------------------------------------------------
    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, fn, name: str, layer: str, keep: bool = True,
             label=None, after=None):
        """``fn`` timed as span ``name``.

        ``keep=False`` aggregates the span instead of recording it.
        ``label`` (a protocol name, or a function of the call's
        arguments returning one) attributes rate time per protocol;
        ``after(result, args)`` updates :attr:`counts`.
        """
        clock = time.perf_counter
        stack = self.stack
        depth = self._depth
        finish = self._finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            lab = label(args) if callable(label) else label
            outer = depth[layer] == 0
            depth[layer] += 1
            outer_label = lab is not None and self._label_depth == 0
            if lab is not None:
                self._label_depth += 1
            sid = 0
            if keep:
                sid = self._next_id
                self._next_id += 1
            frame = [name, layer, lab, outer, outer_label, sid,
                     stack[-1] if stack else None, 0.0, 0.0]
            stack.append(frame)
            frame[8] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(frame, clock())
            if after is not None:
                after(result, args)
            return result

        return traced

    def _finish(self, frame: list, end: float) -> None:
        name, layer, lab, outer, outer_label, sid, parent, child, start = frame
        self.stack.pop()
        total = end - start
        own = total - child
        self._depth[layer] -= 1
        if lab is not None:
            self._label_depth -= 1
        self.layer_self[layer] += own
        if outer:
            slot = self.layer_outer[layer]
            slot[0] += 1
            slot[1] += total
        if outer_label:
            self.protocol_outer[lab] = self.protocol_outer.get(lab, 0.0) + total
        stats = self.by_name.get(name)
        if stats is None:
            stats = self.by_name[name] = [0, 0.0, 0.0]
        stats[0] += 1
        stats[1] += total
        stats[2] += own
        if parent is not None:
            parent[7] += total
        if sid:
            self.spans.append((sid, name, start - self.origin,
                               end - self.origin, parent[5] if parent else 0))
        else:
            key = (name, parent[0] if parent else None)
            agg = self.aggregates.get(key)
            if agg is None:
                agg = self.aggregates[key] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += total
            agg[2] += own

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Plain-value totals the benchmark turns into metrics."""
        return {
            "by_name": self.by_name,
            "layer_self": self.layer_self,
            "layer_outer": self.layer_outer,
            "protocol_outer": self.protocol_outer,
            "counts": self.counts,
        }

    def dump(self, path: str) -> None:
        """Write every span and aggregate as JSON (at process exit)."""
        with open(path, "w") as handle:
            json.dump({
                "columns": ["id", "name", "start_s", "end_s", "parent_id"],
                "spans": self.spans,
                "aggregate_columns": ["name", "parent", "calls", "total_s",
                                      "self_s"],
                "aggregates": [[name, parent, *stats] for (name, parent), stats
                               in self.aggregates.items()],
                "summary": self.summary(),
            }, handle)


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def _replace_everywhere(original, replacement) -> int:
    """Rebind every ``repro`` module attribute that is ``original``."""
    hits = 0
    for module in list(sys.modules.values()):
        mod_name = getattr(module, "__name__", None) or ""
        if mod_name != "repro" and not mod_name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    return hits


def _wrap_function(tracer: Tracer, module: str, attr: str, name: str,
                   layer: str, **kwargs) -> None:
    original = getattr(importlib.import_module(module), attr)
    wrapped = tracer.wrap(original, name, layer, **kwargs)
    if not _replace_everywhere(original, wrapped):  # pragma: no cover
        raise RuntimeError(f"{module}.{attr} is looked up nowhere")


def _wrap_method(tracer: Tracer, cls, attr: str, name: str, layer: str,
                 **kwargs) -> bool:
    fn = cls.__dict__.get(attr)
    if not inspect.isfunction(fn):
        return False
    setattr(cls, attr, tracer.wrap(fn, name, layer, **kwargs))
    return True


def _subclasses(cls) -> list:
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        out.append(current)
        todo += current.__subclasses__()
    return [c for c in out if c.__module__.startswith("repro.")]


def _controller_protocol(args) -> str | None:
    return PROTOCOL_OF_MODULE.get(type(args[0]).__module__)


def _adapter_protocol(args) -> str | None:
    """A loop adapter drives one controller class: label it by that."""
    controllers = args[0].controllers
    return PROTOCOL_OF_MODULE.get(type(controllers[0]).__module__) \
        if controllers else None


def install(tracer: Tracer, level: str) -> None:
    """Wrap the program's layer boundaries.

    ``level="engine"`` wraps only the replay engines' entry points (a
    few dozen spans per run: the untraced baseline and the planner
    counterfactual); ``level="full"`` wraps every layer.
    """
    if level not in ("engine", "full"):
        raise ValueError(f"unknown trace level {level!r}")
    for module in _MODULES:
        importlib.import_module(module)

    def link_attempts(result, _args):
        tracer.count("mac.attempts", result.attempts)

    def batch_attempts(results, _args):
        tracer.count("mac.batch_calls")
        tracer.count("mac.attempts", sum(r.attempts for r in results))

    def network_result(result, _args):
        tracer.count("mac.attempts",
                     sum(r.attempts for r in result.stations.values()))
        tracer.count("network.handoffs", result.handoff_count)
        tracer.count("network.stations", len(result.stations))

    _wrap_function(tracer, "repro.mac", "run_link", "mac.run_link", "mac",
                   after=link_attempts)
    _wrap_function(tracer, "repro.mac.batch", "run_batch", "mac.run_batch",
                   "mac", after=batch_attempts)
    _wrap_function(tracer, "repro.network", "run_scenario",
                   "network.run_scenario", "network", after=network_result)
    if level == "engine":
        return

    from repro.api.session import Session
    from repro.channel.store import TraceStore
    from repro.core.architecture import HintAwareNode
    from repro.mac import LinkProcess, TcpSource, UdpSource
    from repro.network.batch import NetworkBatchEngine
    from repro.network.simulator import _AssociationCore
    from repro.rate.base import (
        BatchRateAdapter,
        CompositeBatchAdapter,
        CruiseView,
        RateController,
    )

    # --- api ------------------------------------------------------------
    _wrap_method(tracer, Session, "map", "api.map", "api")
    _wrap_method(tracer, Session, "_plan_network", "api.plan_network", "api")
    _wrap_function(tracer, "repro.api.planner", "plan_link_tasks",
                   "api.plan_link_tasks", "api")

    def group_width(_result, args):
        tracer.count("api.batch_groups")
        tracer.count("api.batch_group_tasks", len(args[0]))

    for attr, after in (("run_link_task", None), ("run_link_group", group_width),
                        ("run_network_task", None)):
        _wrap_function(tracer, "repro.api.executor", attr,
                       f"api.{attr}", "api", after=after)

    # --- store ------------------------------------------------------------
    def store_read(arrays, args):
        tracer.count("store.reads")
        if arrays is None:
            tracer.count("store.misses")
        else:
            store, key = args
            tracer.count("store.read_bytes",
                         os.path.getsize(store.path_for(key)))

    def store_write(_result, _args):
        tracer.count("store.writes")

    _wrap_method(tracer, TraceStore, "load_arrays", "store.load_arrays",
                 "store", after=store_read)
    _wrap_method(tracer, TraceStore, "save_arrays", "store.save_arrays",
                 "store", after=store_write)

    # --- synth ------------------------------------------------------------
    def traces(_result, _args):
        tracer.count("synth.traces")

    def hint_series(_result, _args):
        tracer.count("synth.hint_series")

    _wrap_function(tracer, "repro.channel.tracegen", "generate_trace",
                   "synth.generate_trace", "synth", after=traces)
    _wrap_method(tracer, HintAwareNode, "movement_hint_series",
                 "synth.movement_hint_series", "synth", after=hint_series)
    for module, attr in (("repro.experiments.common", "cached_trace"),
                         ("repro.experiments.common", "cached_hints"),
                         ("repro.network.traces", "station_trace"),
                         ("repro.network.traces", "station_hints")):
        _wrap_function(tracer, module, attr, f"synth.{attr}", "synth")

    # --- mac (per-exchange steppers are aggregated) --------------------------
    _wrap_method(tracer, LinkProcess, "step", "mac.LinkProcess.step", "mac",
                 keep=False)
    for attr in ("_step_row", "_commit_rounds"):
        _wrap_method(tracer, NetworkBatchEngine, attr,
                     f"mac.NetworkBatchEngine.{attr}", "mac", keep=False)

    # --- traffic ------------------------------------------------------------
    def tcp_timeout(_result, _args):
        tracer.count("traffic.tcp_timeouts")

    for cls in (TcpSource, UdpSource):
        for attr in _TRAFFIC_METHODS:
            after = tcp_timeout if (cls, attr) == (TcpSource, "on_dropped") \
                else None
            _wrap_method(tracer, cls, attr, f"traffic.{cls.__name__}.{attr}",
                         "traffic", keep=False, after=after)

    # --- rate ------------------------------------------------------------------
    for base, methods, label in (
        (RateController, _CONTROLLER_METHODS, _controller_protocol),
        (BatchRateAdapter, _ADAPTER_METHODS, _adapter_protocol),
        (CruiseView, _CRUISE_METHODS, _controller_protocol),
    ):
        for cls in _subclasses(base):
            # A composite adapter spans classes and carries no label;
            # the per-class sub-adapters it dispatches to do.
            cls_label = (None if cls is CompositeBatchAdapter
                         else PROTOCOL_OF_MODULE.get(cls.__module__, label))
            for attr in methods:
                _wrap_method(tracer, cls, attr, f"rate.{cls.__name__}.{attr}",
                             "rate", keep=False, label=cls_label)

    # --- network ---------------------------------------------------------------
    _wrap_method(tracer, _AssociationCore, "_scan", "network.assoc.scan",
                 "network")
    _wrap_function(tracer, "repro.ap.association", "simulate_walks",
                   "network.assoc.pretrain", "network")
