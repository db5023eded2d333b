"""Benchmark of the paper's figure grids and network catalog.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig3_tcp_grid --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke          # self-test of every workload
    python3 perfbench/run.py --write-golden   # re-record golden.json

``--trace 0`` measures the end-to-end metrics:

* ``setup_s`` -- median of several cold set-ups, each a fresh
  interpreter importing the program and synthesizing the workload's
  artefacts into an empty store;
* ``run_s``, ``cpu_s``, ``peak_rss_mb``, ``attempts_per_s`` -- medians
  over timed replays, each a fresh interpreter running the workload's
  ``Session(jobs=1).map`` against the warm store, repeated until
  ``--seconds`` have passed.

``--trace 1`` runs a traced set-up, an engine-boundary-only replay (the
untraced baseline), a fully traced replay and a ``Session(engine="fast")``
counterfactual, and reports the per-layer metrics.

Every task result is checked: per-result invariants, identical digests
across replays (and across traced, untraced and ``fast`` replays), an
independent replay of one task on another engine, and, for the default
seed, the per-task digests recorded in ``golden.json``.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``README.md`` here for what each
workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import ENGINE_SPANS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
#: Scratch space inside the checkout: per-run stores and span dumps.
WORK = ROOT / ".perfbench"

#: Calibration-loop time (``child.calibrate``) of the reference host.
#: Timings are reported at this host speed: ``t * CAL_REF_S / cal_s``,
#: where ``cal_s`` is the loop's time measured around the timing.
CAL_REF_S = 0.05
SETUP_REPS = 3
MIN_REPS = 3
MAX_REPS = 12
#: No timed replay starts later than this into an invocation, and no
#: child outlives the deadline (the whole invocation must end in 180 s).
BUDGET_S = 150.0
DEADLINE_S = 175.0

END_TO_END = {
    "run_s": "s",
    "cpu_s": "s",
    "attempts_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PROTOCOLS = ("RapidSample", "SampleRate", "RRAA", "RBAR", "CHARM", "HintAware")
PER_LAYER = {
    "api.plan_s": "s", "api.batch_tasks": "count", "api.fast_tasks": "count",
    "api.reference_tasks": "count", "api.batch_width_mean": "count",
    "api.overhead_s": "s", "api.auto_regret_s": "s",
    "store.reads": "count", "store.misses": "count", "store.read_mb": "MB",
    "store.read_s": "s", "store.writes": "count", "store.write_s": "s",
    "synth.traces": "count", "synth.trace_s": "s",
    "synth.hint_series": "count", "synth.hints_s": "s",
    "mac.engine_s": "s", "mac.self_s": "s", "mac.batch_calls": "count",
    "mac.attempts": "count", "mac.attempts_per_engine_s": "1/s",
    "traffic.calls": "count", "traffic.s": "s", "traffic.tcp_timeouts": "count",
    "rate.calls": "count", "rate.s": "s",
    **{f"rate.{p}.s": "s" for p in PROTOCOLS},
    "network.run_s": "s", "network.self_s": "s", "network.assoc_s": "s",
    "network.handoffs": "count", "network.stations": "count",
    "trace.overhead_s": "s",
}


class Bench:
    """One invocation: a workload, a seed, a scratch directory."""

    def __init__(self, workload: str, seed: int, smoke: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.start = time.perf_counter()
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.traces = WORK / "traces"
        self.traces.mkdir(exist_ok=True)
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("REPRO_TRACE_STORE", "REPRO_JOBS")}
        self.env.update(PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self._jobs = 0

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def child(self, kind: str, store: Path, **job) -> dict:
        """Run one job in a fresh interpreter; its JSON findings."""
        self._jobs += 1
        out = self.dir / f"job{self._jobs}.json"
        job.update(kind=kind, workload=self.workload, seed=self.seed,
                   smoke=self.smoke, store=str(store), out=str(out))
        job.setdefault("trace", "none")
        if job["trace"] != "none":
            job["spans"] = str(self.traces / (
                f"{self.workload}-{self.seed}-{kind}-"
                f"{job.get('engine', 'auto')}-{job['trace']}.json"))
        try:
            # run() kills and reaps the child when the timeout expires.
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(job)],
                cwd=self.dir, env=self.env, stdout=sys.stderr,
                timeout=max(1.0, DEADLINE_S - self.elapsed()),
            )
        except subprocess.TimeoutExpired:
            return {"ok": False, "error": "timed out"}
        if proc.returncode != 0 or not out.exists():
            return {"ok": False, "error": f"exit code {proc.returncode}"}
        return json.loads(out.read_text())

    def setup(self, reps: int, trace: str = "none") -> tuple[Path, list]:
        """``reps`` cold set-ups; the last one's store stays warm."""
        found = []
        for i in range(reps):
            store = self.dir / f"store{i}"
            found.append(self.child("setup", store, trace=trace))
            if i < reps - 1:
                shutil.rmtree(store, ignore_errors=True)
        failed = [f for f in found if not f.get("ok")]
        if failed:
            raise RuntimeError(f"set-up failed: {failed[0].get('error')}")
        return store, found


# ----------------------------------------------------------------------
# Checking
# ----------------------------------------------------------------------
def golden_digests(bench: "Bench") -> list | None:
    """Per-shard task digests recorded for the default seed, if any."""
    if bench.smoke or bench.seed != workloads.DEFAULT_SEED \
            or not GOLDEN.exists():
        return None
    return json.loads(GOLDEN.read_text()).get(bench.workload)


def check(replays: list, golden: list | None, log) -> tuple[int, int]:
    """(attempted, failed) task counts over ``replays``.

    A task fails when its replay raised, its result breaks an
    invariant, or its digest differs from the golden one (default
    seed) or from the first good replay of the same shard.  A failed
    independent replay counts against the task it re-ran.
    """
    first: dict[int, list] = {}
    for replay in replays:
        if replay.get("ok"):
            first.setdefault(replay["shard"], replay["digests"])
    attempted = failed = 0
    for replay in replays:
        if not replay.get("ok"):
            log(f"replay failed: {replay.get('error')}")
            attempted += replay.get("n_tasks", 1)
            failed += replay.get("n_tasks", 1)
            continue
        attempted += len(replay["digests"])
        reference = (golden[replay["shard"]] if golden is not None
                     else first[replay["shard"]])
        bad = set()
        for i, (digest, problems) in enumerate(zip(replay["digests"],
                                                   replay["problems"])):
            if problems or i >= len(reference) or digest != reference[i]:
                bad.add(i)
        spot = replay.get("spot")
        if spot is not None and not spot["same"]:
            log(f"independent replay of task {spot['index']} on "
                f"{spot['engine']} differs")
            bad.add(spot["index"])
        if bad:
            log(f"{len(bad)} task(s) failed the check: {sorted(bad)[:10]}")
        failed += len(bad)
    return attempted, failed


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------
def measure(bench: Bench, seconds: float, log) -> dict:
    """``--trace 0``: the end-to-end metrics."""
    store, setups = bench.setup(1 if bench.smoke else SETUP_REPS)
    shards = workloads.SHARDS[bench.workload]
    min_reps = 1 if bench.smoke else max(MIN_REPS, shards)
    replays = []
    phase = time.perf_counter()
    while len(replays) < min_reps or (
            time.perf_counter() - phase < seconds
            and len(replays) < MAX_REPS):
        if replays and bench.elapsed() > BUDGET_S:
            break
        # Shards in turn.  The first replay also re-runs one task on
        # another engine, after its timed region.
        spot = bench.seed if not replays else None
        replays.append(bench.child("run", store, engine="auto",
                                   shard=len(replays) % shards, spot=spot))
    attempted, failed = check(replays, golden_digests(bench), log)
    good = [r for r in replays if r.get("ok")]
    for r in good:
        log(f"replay: run_s={r['run_s']:.3f} cpu_s={r['cpu_s']:.3f} "
            f"cal_s={r['cal_s']:.4f} rss={r['peak_rss_mb']:.1f}MB "
            f"attempts={r['attempts']}")
    log("setup: " + " ".join(f"setup_s={s['setup_s']:.3f} cal_s="
                             f"{s['cal_s']:.4f}" for s in setups))
    if not good:
        raise RuntimeError("no replay succeeded")
    values = {
        "run_s": statistics.median(at_ref(r, r["run_s"]) for r in good),
        "cpu_s": statistics.median(at_ref(r, r["cpu_s"]) for r in good),
        # Shards differ in work, so the rate pools them: total
        # attempts over total time.
        "attempts_per_s": (sum(r["attempts"] for r in good)
                           / sum(at_ref(r, r["run_s"]) for r in good)),
        "setup_s": statistics.median(at_ref(s, s["setup_s"]) for s in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
    }
    return result(values, END_TO_END, attempted, failed)


def at_ref(found: dict, seconds: float) -> float:
    """``seconds`` measured by a child, at the reference host speed."""
    return seconds * CAL_REF_S / found["cal_s"]


def _engine_s(summary: dict) -> float:
    return sum(summary["by_name"].get(n, (0, 0.0, 0.0))[1]
               for n in ENGINE_SPANS)


def traced(bench: Bench, log) -> dict:
    """``--trace 1``: the per-layer metrics."""
    store, (setup,) = bench.setup(1, trace="full")
    base = bench.child("run", store, engine="auto", trace="engine", shard=0)
    full = bench.child("run", store, engine="auto", trace="full", shard=0)
    fast = bench.child("run", store, engine="fast", trace="engine", shard=0)
    replays = [base, full, fast]
    attempted, failed = check(replays, golden_digests(bench), log)
    if not all(r.get("ok") for r in replays):
        raise RuntimeError("a traced replay failed")
    values = layer_metrics(setup, full, base, fast)
    log(f"replays: engine-only auto run_s={base['run_s']:.3f}, "
        f"traced auto run_s={full['run_s']:.3f}, "
        f"engine-only fast run_s={fast['run_s']:.3f}; spans in "
        f"{bench.traces}")
    return result(values, PER_LAYER, attempted, failed)


def layer_metrics(setup: dict, full: dict, base: dict, fast: dict) -> dict:
    """Per-layer metrics from the traced set-up and replays.

    Every time is scaled to the reference host speed by the calibration
    of the process that measured it, like the end-to-end timings.
    """
    run = full["trace"]
    counts = run["counts"]
    speed = CAL_REF_S / full["cal_s"]
    setup_speed = CAL_REF_S / setup["cal_s"]

    def run_s(*names):
        return speed * sum(run["by_name"].get(n, (0, 0.0, 0.0))[1]
                           for n in names)

    def with_setup_s(name):
        stats = setup["trace"]["by_name"].get(name, (0, 0.0, 0.0))
        return setup_speed * stats[1] + run_s(name)

    def with_setup(key):
        return setup["trace"]["counts"].get(key, 0) + counts.get(key, 0)

    engines = full["engines"]
    groups = counts.get("api.batch_groups", 0)
    mac_engine_s = speed * run["layer_outer"]["mac"][1]
    attempts = counts.get("mac.attempts", 0)
    return {
        "api.plan_s": run_s("api.plan_link_tasks", "api.plan_network"),
        "api.batch_tasks": engines.count("batch"),
        "api.fast_tasks": engines.count("fast"),
        "api.reference_tasks": engines.count("reference"),
        "api.batch_width_mean": (counts.get("api.batch_group_tasks", 0)
                                 / groups if groups else 0.0),
        "api.overhead_s": speed * run["by_name"]["api.map"][2],
        "api.auto_regret_s": at_ref(base, _engine_s(base["trace"]))
        - at_ref(fast, _engine_s(fast["trace"])),
        "store.reads": counts.get("store.reads", 0),
        "store.misses": counts.get("store.misses", 0),
        "store.read_mb": counts.get("store.read_bytes", 0) / 1e6,
        "store.read_s": run_s("store.load_arrays"),
        "store.writes": with_setup("store.writes"),
        "store.write_s": with_setup_s("store.save_arrays"),
        "synth.traces": with_setup("synth.traces"),
        "synth.trace_s": with_setup_s("synth.generate_trace"),
        "synth.hint_series": with_setup("synth.hint_series"),
        "synth.hints_s": with_setup_s("synth.movement_hint_series"),
        "mac.engine_s": mac_engine_s,
        "mac.self_s": speed * run["layer_self"]["mac"],
        "mac.batch_calls": counts.get("mac.batch_calls", 0),
        "mac.attempts": attempts,
        "mac.attempts_per_engine_s": (attempts / mac_engine_s
                                      if mac_engine_s else 0.0),
        "traffic.calls": run["layer_outer"]["traffic"][0],
        "traffic.s": speed * run["layer_outer"]["traffic"][1],
        "traffic.tcp_timeouts": counts.get("traffic.tcp_timeouts", 0),
        "rate.calls": run["layer_outer"]["rate"][0],
        "rate.s": speed * run["layer_outer"]["rate"][1],
        **{f"rate.{p}.s": speed * run["protocol_outer"].get(p, 0.0)
           for p in PROTOCOLS},
        "network.run_s": run_s("network.run_scenario"),
        "network.self_s": speed * run["layer_self"]["network"],
        "network.assoc_s": run_s("network.assoc.scan",
                                 "network.assoc.pretrain"),
        "network.handoffs": counts.get("network.handoffs", 0),
        "network.stations": counts.get("network.stations", 0),
        "trace.overhead_s": at_ref(full, full["run_s"])
        - at_ref(base, base["run_s"]),
    }


def result(values: dict, units: dict, attempted: int, failed: int) -> dict:
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


# ----------------------------------------------------------------------
# Self-test and golden recording
# ----------------------------------------------------------------------
def smoke(log) -> int:
    """Every workload once untraced and once traced, at tiny sizes."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    failures = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            bench = Bench(name, workloads.DEFAULT_SEED, smoke=True)
            try:
                out = traced(bench, log) if trace else measure(bench, 0, log)
                units = {k: v["unit"] for k, v in out["metrics"].items()}
                if units != expected[trace]:
                    failures.append(f"{name} trace={trace}: metrics {units} "
                                    f"!= declared {expected[trace]}")
                elif not out["correct"]:
                    failures.append(f"{name} trace={trace}: incorrect")
                else:
                    log(f"ok: {name} trace={trace}")
            except Exception as exc:  # one workload must not stop the rest
                failures.append(f"{name} trace={trace}: {exc!r}")
            finally:
                bench.close()
    for failure in failures:
        log(f"FAIL {failure}")
    print(json.dumps({"smoke": "fail" if failures else "ok",
                      "failures": failures}))
    return 1 if failures else 0


def write_golden(log) -> int:
    golden = {}
    for name in workloads.WORKLOADS:
        bench = Bench(name, workloads.DEFAULT_SEED)
        try:
            store, _ = bench.setup(1)
            replays = [bench.child("run", store, engine="auto", shard=shard)
                       for shard in range(workloads.SHARDS[name])]
        finally:
            bench.close()
        for replay in replays:
            if not replay.get("ok") or any(replay["problems"]):
                log(f"{name}: cannot record: {replay.get('error')}")
                return 1
        golden[name] = [replay["digests"] for replay in replays]
        log(f"{name}: {sum(map(len, golden[name]))} task digests")
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test every workload at tiny sizes")
    parser.add_argument("--write-golden", action="store_true",
                        help="record the default seed's task digests")
    args = parser.parse_args(argv)

    def log(message: str) -> None:
        print(f"[perfbench] {message}", file=sys.stderr, flush=True)

    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"no program sources under {SRC}")
        return 2
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps
    # the running child on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    WORK.mkdir(exist_ok=True)
    if args.smoke:
        return smoke(log)
    if args.write_golden:
        return write_golden(log)
    if args.workload is None:
        parser.error("--workload is required")
    bench = Bench(args.workload, args.seed)
    try:
        out = traced(bench, log) if args.trace else \
            measure(bench, args.seconds, log)
    finally:
        bench.close()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
