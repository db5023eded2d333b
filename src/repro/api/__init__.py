"""repro.api: the public entry point for running workloads.

Declare *what* to simulate as a frozen, JSON-round-trippable spec --
:class:`LinkReplaySpec` (one link replay), :class:`GridSpec` (a
seed-expanded sweep of link replays), :class:`NetworkRunSpec` (one
multi-station scenario) -- and hand it to a :class:`Session`, which
owns *how*: engine selection (``engine="auto"`` plans fast vs batch per
task group from measured break-even widths), worker count, trace store
and seed lineage.
Results come back as typed :class:`RunResult` envelopes carrying the
spec echo, per-task :class:`~repro.mac.SimResult` /
:class:`NetworkSummary` payloads, the engines actually used, timing and
provenance seeds.

    from repro.api import GridSpec, Session

    session = Session(jobs=4)
    run = session.run(GridSpec(protocols=("RapidSample", "HintAware"),
                               mode="mobile", n_seeds=10, seed0=0))
    print(run.throughputs, run.engine, run.elapsed_s)

Every figure driver, the runner and the examples go through this layer;
it is the only way the repository runs workloads.  This surface is
pinned by ``tests/test_api_surface.py`` -- grow it deliberately.
"""

from .config import SESSION_ENGINES, ConfigError
from .results import NetworkSummary, RunResult
from .session import Session
from .specs import (
    GridSpec,
    LinkReplaySpec,
    NetworkRunSpec,
    script_from_segments,
    segments_of,
    spec_from_dict,
)

__all__ = [
    "ConfigError",
    "SESSION_ENGINES",
    "Session",
    "LinkReplaySpec",
    "GridSpec",
    "NetworkRunSpec",
    "spec_from_dict",
    "segments_of",
    "script_from_segments",
    "RunResult",
    "NetworkSummary",
]
