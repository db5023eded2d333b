"""Differential pins: the session-driven drivers reproduce committed
driver outputs byte for byte.

``tests/golden/driver_outputs.json`` holds quick-scale ``runner
--quick``-shaped outputs recorded from the execution paths that
predate :class:`repro.api.Session` (hand-built task grids over
per-task worker pools): the Figure 3 comparison dicts, the printed
Figure 3-8 report and the ``fig5_net`` grid summaries.  Floats are
stored by ``repr`` (JSON's exact double round-trip) and compared with
``==``, so any drift in task ordering, seeding, engine selection or
aggregation fails here before it can silently re-shape the paper's
numbers -- on every engine a session can force.

Regenerating (after an *intentional* behaviour change):

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_api_differential.py

then commit the refreshed ``tests/golden/driver_outputs.json``.
"""

import io
import json
import os
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.api import Session
from repro.experiments import fig3_5, fig3_8, fig5_net

pytestmark = pytest.mark.slow

GOLDEN_PATH = Path(__file__).parent / "golden" / "driver_outputs.json"

#: Driver arguments per golden entry (embedded in the file and checked,
#: so changing them invalidates the snapshot).
FIG3_CASES = {
    "mixed_office_tcp": dict(mode="mixed", environments=["office"],
                             n_traces=2, duration_s=8.0, tcp=True,
                             normalise="HintAware", seed0=0),
    "vehicular_udp": dict(mode="vehicular", environments=["vehicular"],
                          n_traces=2, duration_s=6.0, tcp=False,
                          normalise="RapidSample", seed0=0),
}
FIG3_8_MAIN = dict(seed=0, n_traces=2)
FIG5_GRID = dict(scenarios=["mixed_mobility"], seeds=[7],
                 policies=["strongest", "lifetime"], duration_s=4.0)


def _fig3(kwargs, session):
    return fig3_5.run_comparison(
        **dict(kwargs, environments=tuple(kwargs["environments"])),
        session=session)


def _fig3_8_stdout(session):
    out = io.StringIO()
    with redirect_stdout(out):
        fig3_8.main(**FIG3_8_MAIN, session=session)
    return out.getvalue()


def _fig5_grid(session):
    return fig5_net.run_grid(tuple(FIG5_GRID["scenarios"]),
                             tuple(FIG5_GRID["seeds"]),
                             policies=tuple(FIG5_GRID["policies"]),
                             duration_s=FIG5_GRID["duration_s"],
                             session=session)


def _snapshot(session) -> dict:
    return {
        "fig3_comparison": {
            name: {"kwargs": kwargs, "output": _fig3(kwargs, session)}
            for name, kwargs in FIG3_CASES.items()
        },
        "fig3_8_main": {"kwargs": FIG3_8_MAIN,
                        "stdout": _fig3_8_stdout(session)},
        "fig5_net_grid": {
            "kwargs": FIG5_GRID,
            "grid": [{"scenario": scenario, "policy": policy,
                      "summaries": summaries}
                     for (scenario, policy), summaries
                     in _fig5_grid(session).items()],
        },
    }


@pytest.fixture(scope="module")
def golden():
    if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
        GOLDEN_PATH.write_text(json.dumps(_snapshot(Session(jobs=1)),
                                          indent=2, sort_keys=True,
                                          allow_nan=False) + "\n")
        pytest.skip(f"regenerated {GOLDEN_PATH}")
    data = json.loads(GOLDEN_PATH.read_text())
    assert {name: entry["kwargs"]
            for name, entry in data["fig3_comparison"].items()} == FIG3_CASES
    assert data["fig3_8_main"]["kwargs"] == FIG3_8_MAIN
    assert data["fig5_net_grid"]["kwargs"] == FIG5_GRID, (
        "golden config changed; regenerate with REPRO_UPDATE_GOLDEN=1")
    return data


def _golden_grid(golden) -> dict:
    return {(row["scenario"], row["policy"]): row["summaries"]
            for row in golden["fig5_net_grid"]["grid"]}


class TestFig3ComparisonDifferential:
    """The rate-comparison grid (figures 3-5..3-8's shared engine)."""

    def test_quick_grid_is_byte_identical(self, golden):
        expected = golden["fig3_comparison"]["mixed_office_tcp"]["output"]
        ported = _fig3(FIG3_CASES["mixed_office_tcp"], Session(jobs=1))
        assert ported == expected    # exact float equality, all keys

    def test_quick_grid_any_session_engine(self, golden):
        expected = golden["fig3_comparison"]["vehicular_udp"]["output"]
        for engine in ("auto", "fast", "batch"):
            ported = _fig3(FIG3_CASES["vehicular_udp"],
                           Session(engine=engine, jobs=1))
            assert ported == expected, f"engine={engine} diverged"


class TestPrintedReportDifferential:
    """The printed runner stage output, byte for byte."""

    def test_fig3_8_quick_stdout(self, golden):
        assert _fig3_8_stdout(Session(jobs=1)) \
            == golden["fig3_8_main"]["stdout"]


class TestFig5NetDifferential:
    """The network grid driver against the recorded grid."""

    def test_grid_summaries_byte_identical(self, golden):
        assert _fig5_grid(Session(jobs=1)) == _golden_grid(golden)

    def test_grid_engine_forcing_changes_nothing(self, golden):
        expected = _golden_grid(golden)
        for engine in ("auto", "reference", "batch"):
            ported = _fig5_grid(Session(engine=engine, jobs=1))
            assert ported == expected, f"engine={engine} diverged"
