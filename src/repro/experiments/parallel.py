"""Ordered process-pool map: the worker fan-out under :class:`repro.api.Session`.

The figure workloads are embarrassingly parallel -- every replay and
every vehicular network simulation is a pure function of its
arguments -- so :func:`ordered_map` maps a task list over a
``ProcessPoolExecutor`` while guaranteeing the properties the
reproduction needs:

* **Ordered collection.**  Results come back in task-submission order
  regardless of completion order, so aggregation code is byte-for-byte
  identical to a serial loop.
* **Determinism.**  Tasks carry explicit seeds, and ``jobs=1`` runs the
  same task functions serially in-process; the test suite asserts
  serial == parallel results.
* **Shared traces.**  The pool initializer hands every worker the
  caller's store root explicitly, so workers regenerate nothing that
  the on-disk :mod:`repro.channel.store` already holds; each worker's
  store memo warms from disk instead of from physics.

:meth:`Session.map <repro.api.Session.map>` and
:meth:`Session.scatter <repro.api.Session.scatter>` are the callers;
the session owns the worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, Iterable, TypeVar

from ..channel.store import TraceStore, get_store, install_store

__all__ = ["ordered_map", "warm_cache_task"]

_T = TypeVar("_T")
_R = TypeVar("_R")


def ordered_map(fn: Callable[[_T], _R], items: Iterable[_T],
                jobs: int) -> list[_R]:
    """Apply ``fn`` to every item over ``jobs`` worker processes.

    Results come back in submission order.  ``jobs=1`` (or a single
    item) short-circuits to a serial in-process loop, so callers pay no
    process spin-up when parallelism is off.  Workers use the root of
    the caller's :func:`~repro.channel.store.get_store`.
    """
    item_list = list(items)
    if jobs <= 1 or len(item_list) <= 1:
        return [fn(item) for item in item_list]
    workers = min(jobs, len(item_list))
    # A few chunks per worker balances stragglers against IPC.
    chunksize = max(1, len(item_list) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers,
                             initializer=_use_store_root,
                             initargs=(get_store().root,)) as executor:
        return list(executor.map(fn, item_list, chunksize=chunksize))


def _use_store_root(root: Path | None) -> None:
    """Pool initializer: a worker's process store is on ``root``."""
    install_store(TraceStore(root))


def warm_cache_task(args: tuple) -> None:
    """Top-level worker: generate one store artefact (trace or hints).

    Tagged tasks -- ``("trace", env, mode, seed, duration_s)`` and
    ``("hints", mode, seed, duration_s)`` for mode-scripted links,
    ``("script_trace", env, segments, seed)`` and ``("script_hints",
    segments, seed)`` for explicit segment scripts -- so a session can
    warm the *unique* artefacts of a task grid in one pool pass before
    submitting the grid itself: on a cold store each trace and each
    hint series is synthesised by exactly one worker instead of by
    every worker whose replay tasks happen to share it.
    """
    # Imported lazily so spawning this module in a worker stays cheap.
    from .common import (
        cached_hints,
        cached_script_hints,
        cached_script_trace,
        cached_trace,
    )

    memoisers = {"trace": cached_trace, "hints": cached_hints,
                 "script_trace": cached_script_trace,
                 "script_hints": cached_script_hints}
    kind, *rest = args
    if kind not in memoisers:
        raise ValueError(f"unknown warm task kind {kind!r}")
    memoisers[kind](*rest)
