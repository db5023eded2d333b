"""The benchmark's tracer still installs against the program.

``perfbench/tracer.py`` imports program names (``CompositeBatchAdapter``,
``_AssociationCore``, ...) and wraps functions at every name they are
looked up under.  Deleting or renaming one of them breaks the benchmark
without breaking any program test, so this test installs the full
tracer in a fresh interpreter and drives a tiny traced replay through
it.
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


def test_full_tracer_installs_and_traces_a_replay():
    env = dict(os.environ, REPRO_TRACE_STORE="off")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT / "perfbench")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
