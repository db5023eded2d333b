"""Surface pins for ``repro.api``: the public names and spec schemas.

The session layer is the one entry point external code programs
against, so accidental surface breaks -- a renamed spec field silently
changing ``to_dict`` schemas, an export dropped from ``__all__`` --
must fail a test, not a downstream user.  Growing the surface is fine:
update the pins *deliberately* in the same change.
"""

import dataclasses

import repro
import repro.api as api

EXPECTED_ALL = {
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
}

#: Field names double as the JSON schema of ``to_dict`` (plus "kind").
EXPECTED_FIELDS = {
    "LinkReplaySpec": ("protocol", "env", "mode", "seed", "duration_s",
                       "tcp", "best_samplerate", "segments"),
    "GridSpec": ("protocols", "envs", "mode", "n_seeds", "seed0",
                 "duration_s", "tcp", "best_samplerate_protocols"),
    "NetworkRunSpec": ("scenario", "seed", "policy", "duration_s",
                       "overrides"),
    "RunResult": ("spec", "results", "task_engines", "seeds", "jobs",
                  "elapsed_s"),
    "NetworkSummary": ("aggregate_mbps", "stations_mbps", "handoffs",
                       "mean_lifetime_s", "attempts"),
}


def test_api_all_is_pinned():
    assert set(api.__all__) == EXPECTED_ALL
    for name in api.__all__:
        assert hasattr(api, name), f"__all__ names missing export {name}"


def test_spec_and_result_fields_are_pinned():
    for cls_name, expected in EXPECTED_FIELDS.items():
        cls = getattr(api, cls_name)
        names = tuple(f.name for f in dataclasses.fields(cls))
        assert names == expected, (
            f"{cls_name} fields changed: {names} != {expected}; spec "
            f"schemas are a compatibility surface -- update the pin "
            f"deliberately"
        )


def test_spec_kind_tags_are_pinned():
    assert api.LinkReplaySpec(protocol="RapidSample").to_dict()["kind"] \
        == "link_replay"
    assert api.GridSpec(protocols=("RapidSample",)).to_dict()["kind"] \
        == "grid"
    assert api.NetworkRunSpec(scenario="dense_cell").to_dict()["kind"] \
        == "network_run"


def test_session_engines_pinned():
    assert api.SESSION_ENGINES == ("auto", "fast", "reference", "batch")


def test_repro_exports_api_lazily():
    # The index promises ``repro.api`` without importing it eagerly.
    assert "api" in repro.__all__
    assert repro.api is api
    assert "api" in dir(repro)


def test_planning_has_no_tuning_knobs():
    # Batch widths come from the planner's measured break-even table,
    # not from per-session knobs.
    import inspect

    from repro.api.planner import plan_link_tasks

    assert tuple(inspect.signature(api.Session).parameters) \
        == ("engine", "jobs", "store", "seed")
    assert tuple(inspect.signature(plan_link_tasks).parameters) \
        == ("keys", "engine")


def test_drivers_take_a_session_not_execution_knobs():
    # The session owns jobs and engine; a driver entry point accepting
    # either would be a second, unvalidated execution path.
    import inspect

    from repro.experiments import (
        fig3_5,
        fig3_6,
        fig3_7,
        fig3_8,
        fig4_x,
        fig5_net,
        route_stability,
        table5_1,
    )

    entry_points = [
        getattr(module, name)
        for module in (fig3_5, fig3_6, fig3_7, fig3_8, fig4_x, fig5_net,
                       route_stability, table5_1)
        for name in ("run", "main", "run_comparison", "run_grid",
                     "run_fig4_2_4_3")
        if hasattr(module, name)
    ]
    for fn in entry_points:
        params = inspect.signature(fn).parameters
        assert "session" in params, fn.__qualname__
        assert not {"jobs", "engine"} & set(params), fn.__qualname__


def _environment_writes(tree) -> list[int]:
    """Line numbers in ``tree`` that write the process environment."""
    import ast

    def is_environ(node) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr == "environ"
                and isinstance(node.value, ast.Name) and node.value.id == "os")

    lines = []
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        if any(isinstance(t, ast.Subscript) and is_environ(t.value)
               for t in targets):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner, name = node.func.value, node.func.attr
            if (is_environ(owner) and name in ("update", "setdefault", "pop",
                                               "popitem", "clear")) or (
                    isinstance(owner, ast.Name) and owner.id == "os"
                    and name in ("putenv", "unsetenv")):
                lines.append(node.lineno)
    return lines


def test_environment_write_detector():
    import ast

    for source in ('os.environ["X"] = "1"', 'del os.environ["X"]',
                   'os.environ.update(X="1")', 'os.environ.setdefault("X", "1")',
                   'os.environ.pop("X")', 'os.putenv("X", "1")'):
        assert _environment_writes(ast.parse(source)) == [1], source
    assert _environment_writes(ast.parse(
        'os.environ.get("X")\nvalue = os.environ["X"]\n')) == []


def test_no_module_writes_the_process_environment():
    # A session's configuration is owned by the session and handed to
    # workers explicitly, never smuggled through os.environ.
    import ast
    from pathlib import Path

    root = Path(repro.__file__).parent
    offenders = [
        f"{path.relative_to(root.parent)}:{line}"
        for path in sorted(root.rglob("*.py"))
        for line in _environment_writes(ast.parse(path.read_text()))
    ]
    assert offenders == []
