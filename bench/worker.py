"""One workload in one fresh process; run.py starts it and reads its last line.

Modes:

- ``setup``: import the package, build the library-side systems, print
  ``ready``, then the mean time of reference tasks run for about 0.1 s,
  and exit. run.py times set-up from process start to ``ready``.
- ``run``: untraced passes over the job list, at least two, while the
  next pass still fits in ``--seconds``. Each job is timed on its own,
  with the reference task of calibrate.py run before, after and, on a
  timer, inside it. Peak RSS is read after the first pass.
- ``trace``: one pass with spans and counters, then one pass under
  tracemalloc for per-layer peak allocation. There is no untraced pass:
  tracemalloc slows the cover-audit pass about fivefold, and the run must
  stay well inside its time limit. The tracing overhead is the wrapper's
  measured per-call cost times the number of traced calls.

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
import tracemalloc

from calibrate import Sampler, run_reference
from jobs import EXERCISED_LAYERS, Systems, workload_jobs
from tracer import LAYERS, Tracer

# Slack for comparing sums of perf_counter differences.
TIME_TOL_S = 1e-6
MIN_PASSES = 2
# Reference task time after a set-up probe is ready.
SETUP_REFERENCE_S = 0.1


def import_package():
    oc = importlib.import_module("orderedcover")
    for layer in LAYERS:
        importlib.import_module(f"orderedcover.{layer}")
    return oc


def run_pass(
    systems: Systems, jobs: list, tracer: Tracer | None = None, sampler: Sampler | None = None
) -> dict:
    """One pass. With a ``sampler``, ``task_s`` holds each job's mean
    reference task time, and ``job_s`` leaves the reference tasks out."""
    outcomes, job_s, task_s = [], [], []
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.begin_job(index)
        if sampler is None:
            t0 = time.perf_counter()
            outcome = systems.run(job)
            job_s.append(time.perf_counter() - t0)
        else:
            outcome, seconds, task = sampler.call(lambda: systems.run(job))
            job_s.append(seconds)
            task_s.append(task)
        if tracer is not None:
            tracer.end_job(outcome.bytes_out)
        outcomes.append(outcome)
    return {"wall_s": sum(job_s), "job_s": job_s, "task_s": task_s, "outcomes": outcomes}


def check_jobs(jobs: list, passes: list[dict]) -> dict:
    """Compare every outcome of every pass with the known-answer table."""
    attempted = matched = 0
    unexpected: list[str] = []
    table = []
    for index, job in enumerate(jobs):
        seen = [p["outcomes"][index] for p in passes]
        ok = [o.matches(job.expected) for o in seen]
        attempted += len(seen)
        matched += sum(ok)
        for o, good in zip(seen, ok):
            if not good and not o.is_defect(job):
                unexpected.append(f"{job.id}: exit={o.exit} verdict={o.verdict} error={o.error}")
        last = seen[-1]
        table.append(
            {
                "job": job.id,
                "expected": {"exit": job.expected.exit, **job.expected.verdict},
                "observed": {"exit": last.exit, **last.verdict, "error": last.error},
                "match": all(ok),
                "known_defect": any(o.is_defect(job) for o in seen),
                "reason": job.expected.reason,
            }
        )
    return {
        "attempted": attempted,
        "matched": matched,
        "unexpected": unexpected,
        "table": table,
    }


def traced_pass(systems: Systems, jobs: list, workload: str) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        result = run_pass(systems, jobs, tracer)
    finally:
        tracer.uninstall()
    self_s, top_s, least_self, unclosed = tracer.self_times()
    gap_s = result["wall_s"] - top_s
    problems = []
    if unclosed:
        problems.append(f"{unclosed} spans never closed")
    idle = [layer for layer in EXERCISED_LAYERS[workload] if not self_s[layer] > 0.0]
    if idle:
        problems.append(f"layers without self time: {idle}")
    if least_self < -TIME_TOL_S:
        problems.append(f"a span has negative self time {least_self:.3g} s")
    if gap_s < -TIME_TOL_S:
        problems.append(f"spans cover more than the pass: gap {gap_s:.3g} s")
    if not abs(sum(self_s.values()) + gap_s - result["wall_s"]) <= TIME_TOL_S:
        problems.append("self times plus gaps do not add up to the traced wall time")
    return {
        **result,
        "self_s": self_s,
        "gap_s": gap_s,
        "spans": len(tracer.start),
        "calls": tracer.calls,
        "function_calls": tracer.function_calls,
        "counters": tracer.counters,
        "problems": problems,
    }


def memory_pass(systems: Systems, jobs: list) -> dict:
    tracer = Tracer(memory=True)
    tracer.install()
    tracemalloc.start()
    try:
        result = run_pass(systems, jobs, tracer)
    finally:
        tracemalloc.stop()
        tracer.uninstall()
    return {**result, "peak_alloc_mb": {k: v / 2**20 for k, v in tracer.peak_alloc.items()}}


def wrapper_cost_s(calls: int = 100_000) -> float:
    """Time one traced call adds, measured on a wrapped no-op."""

    def noop() -> None:
        return None

    traced = Tracer().wrap("cli", "cli.noop", noop, RuntimeError)
    cost = []
    for fn in (noop, traced):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        cost.append(time.perf_counter() - t0)
    return max(cost[1] - cost[0], 0.0) / calls


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)

    jobs = workload_jobs(args.workload, args.seed)
    systems = Systems(import_package())
    if args.mode == "setup":
        print("ready", flush=True)
        # run.py times set-up up to "ready"; this line calibrates that time.
        seconds, count = run_reference(SETUP_REFERENCE_S)
        print(seconds / count, flush=True)
        return 0

    if args.mode == "run":
        sampler = Sampler()
        t0 = time.perf_counter()
        passes = [run_pass(systems, jobs, sampler=sampler)]
        # Later passes raise the peak a little through heap fragmentation,
        # and how many passes fit in the run depends on machine speed.
        rss = peak_rss_mb()
        last_pass_s = time.perf_counter() - t0
        while len(passes) < MIN_PASSES or time.perf_counter() - t0 + last_pass_s <= args.seconds:
            t1 = time.perf_counter()
            passes.append(run_pass(systems, jobs, sampler=sampler))
            last_pass_s = time.perf_counter() - t1
        out = {
            "job_s": [p["job_s"] for p in passes],
            "task_s": [p["task_s"] for p in passes],
            "peak_rss_mb": rss,
        }
    else:
        traced = traced_pass(systems, jobs, args.workload)
        traced["overhead_s"] = sum(traced["calls"].values()) * wrapper_cost_s()
        memory = memory_pass(systems, jobs)
        passes = [traced, memory]
        out = {
            "traced": {k: v for k, v in traced.items() if k != "outcomes"},
            "memory": {k: v for k, v in memory.items() if k != "outcomes"},
        }
    out["jobs"] = check_jobs(jobs, passes)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
