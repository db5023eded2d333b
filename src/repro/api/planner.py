"""Workload planning: which engine runs which task, and in what shape.

Pure functions from task descriptors to an execution plan, so the
policy is unit-testable without running a simulator.  Under
``engine="auto"`` a link task replays on the batch engine only where
measurements show batch is faster: tasks group by ``(protocol, tcp)``,
each group splits into chunks of at most :data:`BATCH_SIZE` tasks, and
a chunk goes to batch only when its task count reaches the
:data:`BATCH_BREAK_EVEN_LINKS` entry for its key.  A batched task is one
link: only SampleRate carries the best-window bias, and SampleRate has
no array adapter.  Everything else replays per task on the fast
engine.  A scenario goes to the batch scenario engine when its
structure lets that engine commit rounds.  All engines are
bit-identical, so the plan changes speed only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ConfigError

__all__ = [
    "BATCH_BREAK_EVEN_LINKS",
    "BATCH_SIZE",
    "LinkPlan",
    "plan_link_tasks",
    "resolve_network_engine",
]

#: Most tasks (= links) one batch-engine call replays.
BATCH_SIZE = 64

#: Break-even widths of the batch engine, in links, keyed by
#: ``(protocol, tcp)``: the fewest links at which one batch call beat
#: per-task fast replays in CPU time at both 2 s and 20 s trace lengths
#: and in every mobility mode measured, keeping the larger width where
#: they disagreed (the measurements are tabulated in the README's
#: "Choosing an engine").  Pairs without an entry replay on ``fast``
#: under ``auto``: RapidSample under TCP did not win (the batch engine
#: drives each row's scalar ``TcpSource``), and no other protocol of
#: the comparison has an array adapter -- SampleRate and HintAware lost
#: theirs once their list-state scalar controllers out-ran them within
#: one :data:`BATCH_SIZE`-link chunk -- so those replay on ``fast`` even
#: under ``engine="batch"``.
BATCH_BREAK_EVEN_LINKS: dict[tuple[str, bool], int] = {
    ("RapidSample", False): 24,
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


def resolve_network_engine(engine: str, scenario) -> str:
    """Scenario engine for one network task.

    ``fast`` has no network meaning, so it (like ``reference``) selects
    the reference scheduler; ``auto`` picks the batch engine where its
    round commit pays -- one AP, every station UDP
    (:func:`repro.network.batch.rounds_can_commit`).  Results are
    bit-identical either way -- only speed differs.
    """
    if engine == "batch":
        return "batch"
    if engine in ("fast", "reference"):
        return "reference"
    if engine == "auto":
        from ..network.batch import rounds_can_commit

        return "batch" if rounds_can_commit(scenario) else "reference"
    raise ConfigError(f"unknown engine {engine!r}")


def _has_array_adapter(protocol: str) -> bool:
    """Whether the protocol's controller class batches as an array
    program (defines its own ``step_batch``)."""
    from ..rate import RATE_PROTOCOLS

    return "step_batch" in vars(type(RATE_PROTOCOLS[protocol](0)))


def plan_link_tasks(keys: list, engine: str) -> LinkPlan:
    """Plan link tasks given their batchability keys.

    ``keys[i]`` is task *i*'s grouping key, ``(protocol, tcp)``; tasks
    sharing a key may replay in one ragged batch.  ``engine`` is the
    session preference: ``fast``/``reference`` force per-task replays,
    ``batch`` forces batch chunks (even of one) for every protocol with
    an array adapter and replays the rest on ``fast``, and ``auto``
    batches a chunk only at or above its :data:`BATCH_BREAK_EVEN_LINKS`
    width.
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
    for (protocol, tcp), members in groups.items():
        break_even = BATCH_BREAK_EVEN_LINKS.get((protocol, tcp))
        forced = engine == "batch" and _has_array_adapter(protocol)
        for lo in range(0, len(members), BATCH_SIZE):
            chunk = tuple(members[lo:lo + BATCH_SIZE])
            if forced or (break_even is not None
                          and len(chunk) >= break_even):
                chunks.append(chunk)
                continue
            singles.extend(chunk)
            for i in chunk:
                engines[i] = "fast"
    return LinkPlan(chunks=tuple(chunks), singles=tuple(singles),
                    engines=tuple(engines))
