"""Workload planning: which engine runs which task, and in what shape.

Pure functions from task descriptors to an execution plan, so the
policy is unit-testable without running a simulator.  Under
``engine="auto"`` a link task replays on the batch engine only where
measurements show batch is faster: tasks group by ``(protocol,
traffic, best-SampleRate)``, each group splits into chunks of at most
:data:`BATCH_SIZE` tasks, and a chunk goes to batch only when its link
count reaches the :data:`BATCH_BREAK_EVEN_LINKS` entry for its
``(protocol, tcp)``.  Everything else replays per task on the fast
engine.  All engines are bit-identical, so the plan changes speed only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ConfigError

__all__ = [
    "BATCH_BREAK_EVEN_LINKS",
    "BATCH_SIZE",
    "NETWORK_BATCH_MIN_STATIONS",
    "LinkPlan",
    "link_count",
    "plan_link_tasks",
    "resolve_network_engine",
]

#: ``engine="auto"`` scenarios with at least this many stations replay
#: on the batch scenario engine (bit-identical).  Its round commit only
#: pays in a saturated single cell, and pays more the more contenders
#: each exchange would otherwise defer; TCP and multi-cell scenarios
#: step exchange by exchange at reference speed either way.  The value
#: itself is unmeasured: no break-even sweep over station counts backs
#: it.
NETWORK_BATCH_MIN_STATIONS = 8

#: Most tasks one batch-engine call replays (a best-SampleRate task
#: replays one link per candidate window, so a chunk may hold more
#: links than this).
BATCH_SIZE = 64

#: Break-even widths of the batch engine, in links, keyed by
#: ``(protocol, tcp)``: the fewest links at which one batch call beat
#: per-task fast replays in CPU time at both 2 s and 20 s trace lengths
#: and in every mobility mode measured, keeping the larger width where
#: they disagreed (the measurements are tabulated in the README's
#: "Choosing an engine").  Pairs without an entry did not win within
#: one :data:`BATCH_SIZE` chunk: RapidSample and HintAware under TCP,
#: where the batch engine drives each row's scalar ``TcpSource``, and
#: RRAA, RBAR and CHARM, which batch through the scalar
#: ``LoopBatchAdapter``.  They always replay on ``fast`` under ``auto``.
BATCH_BREAK_EVEN_LINKS: dict[tuple[str, bool], int] = {
    ("RapidSample", False): 24,
    ("SampleRate", False): 24,
    ("HintAware", False): 40,
    ("SampleRate", True): 48,
}


@dataclass(frozen=True)
class LinkPlan:
    """How a list of link tasks executes.

    ``chunks`` are index groups replayed by one batch-engine call each;
    ``singles`` replay per-task on ``engines[i]``.  ``engines`` is
    parallel to the task list and covers every task (chunk members are
    ``"batch"``).  Chunks execute before singles.
    """

    chunks: tuple[tuple[int, ...], ...]
    singles: tuple[int, ...]
    engines: tuple[str, ...]


def resolve_network_engine(engine: str, n_stations: int) -> str:
    """Scenario engine for one network task.

    ``fast`` has no network meaning, so it (like ``reference``) selects
    the reference scheduler; ``auto`` picks the batch engine for dense
    cells (:data:`NETWORK_BATCH_MIN_STATIONS`).  Results are
    bit-identical either way -- only speed differs.
    """
    if engine == "batch":
        return "batch"
    if engine in ("fast", "reference"):
        return "reference"
    if engine == "auto":
        return ("batch" if n_stations >= NETWORK_BATCH_MIN_STATIONS
                else "reference")
    raise ConfigError(f"unknown engine {engine!r}")


def link_count(n_tasks: int, best_samplerate: bool) -> int:
    """Links the batch engine replays for ``n_tasks`` tasks of one key."""
    from ..experiments.common import SAMPLERATE_WINDOWS_S

    return n_tasks * (len(SAMPLERATE_WINDOWS_S) if best_samplerate else 1)


def plan_link_tasks(keys: list, engine: str) -> LinkPlan:
    """Plan link tasks given their batchability keys.

    ``keys[i]`` is task *i*'s grouping key, ``(protocol, tcp,
    best_samplerate)``; tasks sharing a key may replay in one ragged
    batch.  ``engine`` is the session preference: ``fast``/``reference``
    force per-task replays, ``batch`` forces batch chunks (even of
    one), and ``auto`` batches a chunk only at or above its
    :data:`BATCH_BREAK_EVEN_LINKS` width.
    """
    if engine in ("fast", "reference"):
        return LinkPlan(chunks=(), singles=tuple(range(len(keys))),
                        engines=(engine,) * len(keys))
    if engine not in ("auto", "batch"):
        raise ConfigError(f"unknown engine {engine!r}")

    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    chunks: list[tuple[int, ...]] = []
    singles: list[int] = []
    engines = ["batch"] * len(keys)
    for (protocol, tcp, best), members in groups.items():
        break_even = BATCH_BREAK_EVEN_LINKS.get((protocol, tcp))
        for lo in range(0, len(members), BATCH_SIZE):
            chunk = tuple(members[lo:lo + BATCH_SIZE])
            if engine == "batch" or (
                    break_even is not None
                    and link_count(len(chunk), best) >= break_even):
                chunks.append(chunk)
                continue
            singles.extend(chunk)
            for i in chunk:
                engines[i] = "fast"
    return LinkPlan(chunks=tuple(chunks), singles=tuple(singles),
                    engines=tuple(engines))
