"""Session-layer benchmarks: what ``engine="auto"`` planning buys.

Two legs, each bit-identical to its comparison path:

* the mixed 64-task RapidSample/UDP grid, where every group is wide
  enough for the batch engine: a default ``Session`` -- which *plans*
  the workload -- must batch all of it and be no slower than a session
  hand-pointed at the batch engine (``engine="batch"``, the same single
  64-task chunk) beyond the repo's standard 20% tolerance;
* the ``runner --quick`` Figure 3-5 shape (6 protocols x 3 environments
  x 4 mixed traces, TCP), whose 12-task groups are narrower than the
  batch engine's break-even widths: ``Session(engine="auto")`` must be
  at least 0.9x ``Session(engine="fast")``, so the planner never
  routes a figure grid onto a slower engine.

Ratios are CPU time, best of three, like the engine benchmarks (the
Figure 3-5 leg alternates its two sessions round by round); the
measured numbers are emitted as a ``BENCH_api.json`` artifact and
additionally guarded against the committed ``BENCH_api_baseline.json``
pins when present.
"""

from conftest import check_regression, load_bench_baseline, write_bench_artifact

from test_bench_engine import (
    _best_of_cpu,
    _grid_specs,
    _map_throughputs,
    _warm_grid,
)

from repro.api import GridSpec, Session
from repro.experiments.common import INDOOR_OUTDOOR_ENVS, RATE_PROTOCOLS

#: Numbers of every leg run by this pytest process, written as one
#: artifact.
_ARTIFACT: dict = {}

#: ``runner --quick``'s trace count per environment; the replay length
#: is shortened from the paper's 20 s to keep the leg quick.
_QUICK_TRACES = 4
_QUICK_DURATION_S = 4.0


def test_session_auto_no_slower_than_hand_picked_pool():
    import pytest

    pytest.importorskip("pytest_benchmark")

    specs = _grid_specs()
    _warm_grid(specs)

    pool = Session(engine="batch", jobs=1)
    session = Session(jobs=1)          # engine="auto"

    t_pool, pool_grid = _best_of_cpu(lambda: _map_throughputs(pool, specs))
    t_session, session_runs = _best_of_cpu(lambda: session.map(specs))

    session_grid = [v for run in session_runs for v in run.throughputs]
    assert session_grid == pool_grid, "session plan diverged from batch"
    assert all(run.engine == "batch" for run in session_runs), (
        "auto stopped batching the 64-task grid"
    )

    ratio = t_pool / t_session
    print(f"\n[api] mixed 64-task grid: Session(batch) {t_pool:.2f}s, "
          f"Session(auto) {t_session:.2f}s -> {ratio:.2f}x")
    _ARTIFACT.update({
        "grid_tasks": len(pool_grid),
        "pool_s": t_pool,
        "session_s": t_session,
        "session_vs_pool": ratio,
    })
    write_bench_artifact("api", _ARTIFACT)
    # The hard acceptance floor: auto planning may cost at most the
    # repo's standard 20% tolerance over the hand-picked batch engine.
    assert ratio >= 0.8, (
        f"Session(auto) is >20% slower than Session(engine='batch') "
        f"({ratio:.2f}x)"
    )
    check_regression(ratio, load_bench_baseline("api"), "session_vs_pool")


def test_session_auto_no_slower_than_fast_on_quick_fig3_5():
    import pytest

    pytest.importorskip("pytest_benchmark")

    grid = GridSpec(protocols=tuple(RATE_PROTOCOLS),
                    envs=INDOOR_OUTDOOR_ENVS, mode="mixed",
                    n_seeds=_QUICK_TRACES, seed0=0,
                    duration_s=_QUICK_DURATION_S, tcp=True,
                    best_samplerate_protocols=("SampleRate",))
    _warm_grid([grid])

    auto, fast = Session(jobs=1), Session(engine="fast", jobs=1)
    # Rounds alternate between the two sessions so host-speed drift
    # hits both alike; each side keeps its best round.
    t_auto = t_fast = float("inf")
    for _ in range(3):
        t, auto_run = _best_of_cpu(lambda: auto.run(grid), 1)
        t_auto = min(t_auto, t)
        t, fast_run = _best_of_cpu(lambda: fast.run(grid), 1)
        t_fast = min(t_fast, t)

    assert auto_run.throughputs == fast_run.throughputs, (
        "auto plan diverged from the fast engine"
    )
    ratio = t_fast / t_auto
    print(f"\n[api] quick fig3-5 TCP grid ({grid.n_tasks} tasks, "
          f"engines {sorted(set(auto_run.task_engines))}): "
          f"Session(fast) {t_fast:.2f}s, Session(auto) {t_auto:.2f}s "
          f"-> {ratio:.2f}x")
    _ARTIFACT.update({
        "fig3_5_quick_tasks": grid.n_tasks,
        "fig3_5_quick_fast_s": t_fast,
        "fig3_5_quick_auto_s": t_auto,
        "fig3_5_quick_auto_vs_fast": ratio,
    })
    write_bench_artifact("api", _ARTIFACT)
    assert ratio >= 0.9, (
        f"Session(auto) is >10% slower than Session(engine='fast') on "
        f"the quick Figure 3-5 grid ({ratio:.2f}x)"
    )
    check_regression(ratio, load_bench_baseline("api"),
                     "fig3_5_quick_auto_vs_fast")
