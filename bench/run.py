"""Benchmark: verdict jobs over the orderedcover pipeline, one workload per run.

    python3 bench/run.py --workload certify --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout (it imports ``src/orderedcover``).
The workload runs in one fresh child process with single-threaded BLAS;
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones. Every job is checked against the known-answer table in jobs.py.
The report goes to standard output, and its last line is one JSON object
with the keys correct, attempted, failed and metrics. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import in_reference_s
from jobs import WORKLOADS
from tracer import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 11
# The worker is stopped when the whole run reaches this many seconds.
RUN_LIMIT_S = 175
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
COUNTER_METRICS = (
    ("geometry.parts", "count"),
    ("geometry.parts_before_refusal", "count"),
    ("hbd.parts_checked", "count"),
    ("tagging.squares", "count"),
    ("separation.pairs_checked", "count"),
    ("separation.jump_pairs", "count"),
    ("separation.coverage_tests", "count"),
    ("shifts.samples", "count"),
    ("shifts.envelope_evals", "count"),
    ("shifts.n_steps", "count"),
    ("cli.bytes_out", "bytes"),
)
# Candidates, highest first, for the tail percentile the report gives.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("HBD_COVER_BUDGET", None)
    return env


def worker_cmd(mode: str, args: argparse.Namespace) -> list[str]:
    return [
        sys.executable, str(BENCH_DIR / "worker.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]


def time_setup(args: argparse.Namespace, env: dict) -> tuple[float, float]:
    """Fresh interpreter to package imported and systems built, and the
    probe's reference task time."""
    with subprocess.Popen(
        worker_cmd("setup", args), stdout=subprocess.PIPE, env=env, text=True
    ) as proc:
        t0 = time.perf_counter()
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        rest = proc.stdout.read().split()
    if proc.returncode != 0 or line.strip() != "ready" or len(rest) != 1:
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed, float(rest[0])


def run_worker(args: argparse.Namespace, env: dict, deadline: float) -> dict:
    mode = "trace" if args.trace else "run"
    done = subprocess.run(
        worker_cmd(mode, args), capture_output=True, env=env, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def tail(samples: list[float]) -> str:
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            cut = statistics.quantiles(samples, n=1000, method="inclusive")[round(p * 10) - 1]
            return f"p{p:g} {cut:.4f} s"
    return f"no percentile has ten samples beyond it ({n} passes; needs at least 20)"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def pass_s(job_s: list[list[float]]) -> float:
    """Median pass time: the sum over jobs of each job's median over passes."""
    return sum(statistics.median(times) for times in zip(*job_s))


def ref_job_s(out: dict) -> list[list[float]]:
    """Every job time of every pass in reference seconds."""
    return [
        [in_reference_s(t, r) for t, r in zip(times, tasks)]
        for times, tasks in zip(out["job_s"], out["task_s"])
    ]


def end_to_end(out: dict, setup: list[tuple[float, float]]) -> dict:
    jobs = out["jobs"]
    return {
        "wall_s": metric(pass_s(ref_job_s(out)), "s"),
        "peak_rss_mb": metric(out["peak_rss_mb"], "MB"),
        "setup_s": metric(statistics.median(in_reference_s(*probe) for probe in setup), "s"),
        "verdict_match_rate": metric(jobs["matched"] / jobs["attempted"], "ratio"),
    }


def per_layer(out: dict) -> dict:
    traced, memory = out["traced"], out["memory"]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = metric(traced["self_s"][layer], "s")
        metrics[f"{layer}.calls"] = metric(traced["calls"][layer], "count")
        metrics[f"{layer}.peak_alloc_mb"] = metric(memory["peak_alloc_mb"][layer], "MB")
    counters = traced["counters"]
    for name, unit in COUNTER_METRICS:
        metrics[name] = metric(counters[name], unit)
    pair_total = counters["separation.pair_total"]
    metrics["separation.pair_coverage"] = metric(
        counters["separation.pairs_checked"] / pair_total if pair_total else 0.0, "ratio"
    )
    metrics["shifts.product_apply_calls"] = metric(
        traced["function_calls"]["shifts.product_apply"], "count"
    )
    metrics["trace.wall_s"] = metric(traced["wall_s"], "s")
    metrics["trace.gap_s"] = metric(traced["gap_s"], "s")
    metrics["trace.overhead_s"] = metric(traced["overhead_s"], "s")
    return metrics


def report(
    args: argparse.Namespace, out: dict, setup: list[tuple[float, float]]
) -> tuple[dict, list[str]]:
    """Print the human-readable report; return the metrics and any problems."""
    jobs = out["jobs"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"cores {os.cpu_count()}  {'/'.join(THREAD_VARS)}=1")
    for row in jobs["table"]:
        status = "ok" if row["match"] else (
            "MISMATCH (known defect)" if row["known_defect"] else "MISMATCH")
        print(f"job {row['job']}: {status}; expected {row['expected']}; "
              f"observed {row['observed']}; {row['reason']}")
    problems = list(jobs["unexpected"])
    if args.trace:
        print("end-to-end metrics come from a --trace 0 run; tracing overhead is "
              "trace.wall_s minus the median pass in measured s it prints, "
              "estimated here as trace.overhead_s")
        metrics = per_layer(out)
        problems += out["traced"]["problems"]
    else:
        metrics = end_to_end(out, setup)
        passes = [sum(p) for p in ref_job_s(out)]
        print(f"{len(passes)} untraced passes, reference s: {passes}; tail: {tail(passes)}")
        print(f"median pass {pass_s(out['job_s']):.4f} measured s, "
              f"{metrics['wall_s']['value']:.4f} reference s")
        print(f"setup over {len(setup)} fresh interpreters, (measured s, reference task s): "
              f"{setup}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    for problem in problems:
        print(f"problem: {problem}")
    return metrics, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "orderedcover" / "__init__.py").is_file():
        print(f"error: no orderedcover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env()
    try:
        # setup_s is an end-to-end metric; a trace run needs its time elsewhere.
        setup = [] if args.trace else [time_setup(args, env) for _ in range(SETUP_PROBES)]
        out = run_worker(args, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics, problems = report(args, out, setup)
    jobs = out["jobs"]
    print(json.dumps({
        "correct": not problems,
        "attempted": jobs["attempted"],
        "failed": jobs["attempted"] - jobs["matched"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
