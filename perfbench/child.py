"""One measured step of the benchmark, in a fresh interpreter.

Run by ``run.py`` as ``python3 perfbench/child.py '<json job>'``; writes
its findings as JSON to the job's ``out`` path.  Two kinds of job:

* ``setup`` -- import the program and synthesize every trace and hint
  artefact the workload reads into an empty store (``setup_s``).
* ``run`` -- one ``Session.map`` of the workload against a warm store,
  timed (``run_s``, ``cpu_s``, ``peak_rss_mb``) and digested; optionally
  followed, outside the timed region, by an independent replay of one
  task on another engine.

``trace`` is ``none``, ``engine`` (replay-engine entry points only) or
``full`` (every layer; see ``tracer.py``).  The store root is always
passed explicitly, so no job reads the environment's store settings.

Every timed region is bracketed by :func:`calibrate`, which times a
fixed pure-Python loop: on a shared host the interpreter's speed drifts
by a third within a minute, and the loop's time (``cal_s``) lets the
benchmark express each timing at one reference host speed.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback

#: Iterations of the calibration loop (about 50 ms on a 2020s server core).
CAL_LOOP = 1_000_000


def calibrate() -> float:
    """Seconds the fixed calibration loop takes now (median of three)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(CAL_LOOP):
            acc += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tracer(job: dict):
    if job["trace"] == "none":
        return None
    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer, job["trace"])
    return tracer


def _setup(job: dict) -> dict:
    import workloads

    tracer = _tracer(job)
    cal_before = calibrate()
    start = time.perf_counter()
    from repro.api import Session

    Session(jobs=1, store=job["store"])
    workloads.synthesize(workloads.all_specs(job["workload"], job["seed"],
                                             job["smoke"]))
    setup_s = time.perf_counter() - start
    out = {"ok": True, "setup_s": setup_s,
           "cal_s": (cal_before + calibrate()) / 2}
    if tracer is not None:
        tracer.dump(job["spans"])
        out["trace"] = tracer.summary()
    return out


def _n_tasks(spec_list: list) -> int:
    return sum(getattr(spec, "n_tasks", 1) for spec in spec_list)


def _run(job: dict) -> dict:
    import workloads
    from repro.api import Session

    spec_list = workloads.specs(job["workload"], job["seed"], job["shard"],
                                job["smoke"])
    out: dict = {"ok": False, "shard": job["shard"],
                 "n_tasks": _n_tasks(spec_list)}
    tracer = _tracer(job)
    session = Session(engine=job["engine"], jobs=1, store=job["store"])
    cal_before = calibrate()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        runs = session.map(spec_list)
    except Exception:
        out["error"] = traceback.format_exc()
        return out
    out["run_s"] = time.perf_counter() - wall0
    out["cpu_s"] = time.process_time() - cpu0
    out["peak_rss_mb"] = _peak_rss_mb()
    out["cal_s"] = (cal_before + calibrate()) / 2

    results = workloads.task_results(runs)
    engines = workloads.task_engines(runs)
    out.update(
        ok=True,
        digests=[workloads.task_digest(r) for r in results],
        problems=[workloads.task_problems(r) for r in results],
        engines=engines,
        attempts=sum(r.attempts for r in results),
    )
    if tracer is not None:
        tracer.dump(job["spans"])
        out["trace"] = tracer.summary()
    if job.get("spot") is not None:
        index = job["spot"] % len(results)
        spec, engine = workloads.spot_check(spec_list, index, engines[index])
        try:
            again = Session(engine=engine, jobs=1, store=job["store"]).run(spec)
            same = workloads.task_digest(again.results[0]) == out["digests"][index]
        except Exception:
            out["error"] = traceback.format_exc()
            same = False
        out["spot"] = {"index": index, "engine": engine, "same": same}
    return out


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    out = _setup(job) if job["kind"] == "setup" else _run(job)
    with open(job["out"], "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
