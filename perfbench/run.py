"""genstar benchmark: three seeded closed-loop workloads, one client each.

    python3 perfbench/run.py --workload verify_suites|roi_kernels|big_operands
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from src/.
Every phase runs in a fresh interpreter with BLAS pinned to one thread.

--trace 0 measures the end-to-end metrics: set-up runs SETUP_REPEATS times
(the median is reported) and the last interpreter then runs a fixed number
of whole job cycles (at least 100 jobs, so a seed fixes the jobs attempted)
twice, the two passes taking about S seconds on the reference machine; a
job's time is that of its faster pass.  --trace 1 runs each of the first
TRACE_JOBS jobs (whole template cycles) untraced and again with spans
wrapped around genstar's public functions, and reports the per-layer
metrics and the tracing overhead.  Every completed job is
checked against a reference outside its timed region.  Human-readable
lines come first; the last stdout line is one JSON object.  Details,
per-job times and the spans go to perfbench/out/.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("verify_suites", "roi_kernels", "big_operands")

#: set-up is measured this many times per run; the median is reported
SETUP_REPEATS = 5

#: a traced run covers whole template cycles and at least this many jobs
TRACE_JOBS = 40

#: every interpreter this run starts must end before this many seconds
DEADLINE_S = 170.0

END_TO_END = ("job_s.p50", "job_s.p90", "jobs_per_s", "cpu_s_per_job", "setup_s", "peak_rss_mib")


class RunError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _phase(args, mode: str, deadline: float, **extra) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise RunError(f"no time left for the {mode} phase")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise RunError(f"{mode} phase did not end within {remaining:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{mode} phase exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def _correct(*phases) -> tuple[bool, list[str]]:
    problems = []
    for phase in phases:
        problems += phase.get("warmup_mismatches", []) + phase.get("mismatches", [])
    return not problems and all(p.get("n_mismatched", 0) == 0 for p in phases), problems


def measure(args, deadline) -> tuple[dict, dict]:
    from stats import end_to_end

    setups = [_phase(args, "setup", deadline)["setup_s"] for _ in range(SETUP_REPEATS - 1)]
    timed = _phase(args, "timed", deadline, seconds=args.seconds)
    setups.append(timed["setup_s"])
    metrics = end_to_end(timed["times"], timed["failed_flags"], timed["cpu_s"],
                         statistics.median(setups), timed["peak_rss_mib"])
    correct, problems = _correct(timed)
    detail = {"setup_runs_s": setups, "timed": timed, "problems": problems}
    result = {"correct": correct, "attempted": timed["attempted"], "failed": timed["failed"],
              "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                          for name in END_TO_END}}
    return result, detail


def trace(args, deadline) -> tuple[dict, dict]:
    OUT.mkdir(exist_ok=True)
    traced = _phase(args, "trace", deadline, jobs=TRACE_JOBS,
                    spans=OUT / f"{args.workload}-seed{args.seed}-spans.csv.gz")
    if traced["silent_spans"]:
        raise RunError(f"spans recorded no call on {args.workload}: {traced['silent_spans']}")
    metrics = dict(traced["per_layer"])
    metrics["trace.overhead_ratio"] = [sum(traced["times"]) / sum(traced["base"]["times"]), "ratio"]
    metrics["failed_ratio"] = [traced["failed"] / traced["attempted"], "ratio"]
    correct, problems = _correct(traced, traced["base"])
    detail = {"traced": traced, "problems": problems}
    result = {"correct": correct, "attempted": traced["attempted"], "failed": traced["failed"],
              "metrics": {name: {"value": v, "unit": u} for name, (v, u) in sorted(metrics.items())}}
    return result, detail


def _print_human(args, result, detail):
    phase = detail.get("timed") or detail["traced"]
    env = phase["env"]
    print(f"env: python {env['python']} | numpy {env['numpy']} | blas {env['blas']} "
          f"({env['blas_threads']} thread) | cpu {env['cpu']} | nproc {env['nproc']}")
    n, failed = result["attempted"], result["failed"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {n} jobs attempted, "
          f"{failed} failed (failed_ratio {failed / n:.4f}), correct={result['correct']}")
    for message in phase["failures"][:3]:
        print(f"  failed job: {message}")
    for message in detail["problems"][:3]:
        print(f"  WRONG OUTPUT: {message}")
    for name, m in result["metrics"].items():
        samples = ""
        if name.startswith("job_s."):
            samples = f"  (n={n} jobs)"
        elif name == "setup_s":
            samples = f"  (median of {len(detail['setup_runs_s'])} set-ups)"
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}{samples}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "genstar" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"error: {ROOT} is not a genstar source checkout (src/genstar, scenarios/)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        result, detail = (trace if args.trace else measure)(args, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"result": result, **detail}, fh, indent=1)
    _print_human(args, result, detail)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
