"""The benchmark still drives the program the way it expects.

``perfbench/tracer.py`` imports program names (``CompositeBatchAdapter``,
``_AssociationCore``, ...) and wraps functions at every name they are
looked up under.  Deleting or renaming one of them breaks the benchmark
without breaking any program test, so one test installs the full
tracer in a fresh interpreter and drives a tiny traced replay through
it.

The benchmark's set-up child builds ``Session(jobs=1, store=X)`` and
then fills X through the warm tasks directly, outside any session
method; its replay children then expect a warm X.  The other test runs
that sequence in fresh interpreters.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SCRIPT = textwrap.dedent("""
    import sys

    sys.path.insert(0, sys.argv[1])
    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer, "full")

    from repro.experiments.common import cached_trace
    from repro.mac import BatchLinkSpec, SimConfig, UdpSource, run_batch
    from repro.rate import CHARM, RapidSample

    trace = cached_trace("office", "static", 1, 0.5)
    run_batch([BatchLinkSpec(trace=trace, controller=c, traffic=UdpSource(),
                             config=SimConfig(seed=1))
               for c in (RapidSample(), CHARM())])
    by_name = tracer.summary()["by_name"]
    for name in ("mac.run_batch", "rate.CHARM.choose_rate",
                 "rate._RapidSampleBatchAdapter.choose_rate_batch"):
        assert name in by_name, (name, sorted(by_name))
""")


_SETUP = textwrap.dedent("""
    import sys

    sys.path.insert(0, sys.argv[1])
    import workloads
    from repro.api import NetworkRunSpec, Session

    specs = workloads.specs("fig3_tcp_grid", 0, smoke=True) + [
        NetworkRunSpec(scenario="dense_cell", seed=0, duration_s=1.0)]
    session = Session(jobs=1, store=sys.argv[2])
    if sys.argv[3] == "setup":
        workloads.synthesize(specs)
    else:
        session.map(specs)
""")


def _python(script: str, *args, cwd=ROOT, env=None) -> None:
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "perfbench"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_full_tracer_installs_and_traces_a_replay():
    _python(_SCRIPT, env=dict(os.environ, REPRO_TRACE_STORE="off"))


def test_setup_fills_the_session_store_for_the_replays(tmp_path):
    store, work = tmp_path / "store", tmp_path / "work"
    work.mkdir()
    env = {k: v for k, v in os.environ.items() if k != "REPRO_TRACE_STORE"}
    _python(_SETUP, str(store), "setup", cwd=work, env=env)
    filled = sorted(store.rglob("*.npz"))
    assert filled
    assert not (work / ".cache").exists()
    _python(_SETUP, str(store), "run", cwd=work, env=env)
    assert sorted(store.rglob("*.npz")) == filled
