"""One fresh interpreter running one phase of a workload.

    python3 perfbench/worker.py --workload W --seed S --mode M --t0 T
        [--seconds X] [--jobs N] [--spans PATH]

Modes: `setup` stops after set-up; `timed` runs the closed loop over the
workload's fixed number of whole cycles for X seconds (at least 100 jobs)
in PASSES passes, and each job reads the wall time of its fastest pass;
`trace` runs each of the first N jobs twice, once untraced and once with
spans installed, alternating which goes first, so the tracing overhead
compares the same jobs at nearly the same time.  Every phase runs whole
template cycles.  T is the launcher's time.monotonic() just before it
started this interpreter, so set-up time includes interpreter start.
The last stdout line is JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time

#: passes of a timed phase over its job list.  The host's speed drifts by up
#: to 1.5x over tens of seconds, and not on every CPU at once; a job's
#: fastest pass, half a run apart and on another CPU, leaves less of that
#: drift in the percentiles than one pass twice as long
PASSES = 2

#: the timed loop stops here even short of its jobs, so a run ends in time
HARD_CAP_S = 100.0

#: failure and mismatch messages kept in the output
KEEP_MESSAGES = 5


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


class Run:
    """Job outcomes of one phase."""

    def __init__(self):
        self.times: list[float] = []
        self.failed: list[bool] = []
        self.cpu: list[float] = []
        self.failures: list[str] = []
        self.mismatches: list[str] = []
        self.n_mismatched = 0

    def job(self, workloads, job, tracer=None):
        inputs = workloads.prepare(job)
        gc.collect()
        if tracer is not None:
            tracer.job = len(self.times)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            output = workloads.run(job, inputs)
        except Exception as exc:  # a raise or exit code 2 is a failed job, not a wrong answer
            output = None
            failure = f"{job['kind']}: {type(exc).__name__}: {exc}"
        else:
            failure = None
        t1 = time.perf_counter()
        self.cpu.append(time.process_time() - c0)
        self.times.append(t1 - t0)
        self.failed.append(failure is not None)
        if failure is not None:
            if len(self.failures) < KEEP_MESSAGES:
                self.failures.append(failure[:300])
            return
        problem = workloads.check(job, inputs, output)
        if problem is not None:
            self.n_mismatched += 1
            if len(self.mismatches) < KEEP_MESSAGES:
                self.mismatches.append(f"{job['kind']} {json.dumps(job)}: {problem}"[:600])

    def summary(self) -> dict:
        return {
            "attempted": len(self.times),
            "failed": sum(self.failed),
            "times": self.times,
            "failed_flags": self.failed,
            "cpu_s": sum(self.cpu),
            "failures": self.failures,
            "mismatches": self.mismatches,
            "n_mismatched": self.n_mismatched,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--jobs", type=int, default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    # -- set-up: import, job generation, one warm-up job of each kind
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    cycle = workloads.CYCLE_LENGTH[args.workload]
    if args.mode == "trace":
        count = -(-args.jobs // cycle) * cycle
    else:
        count = workloads.timed_cycles(args.workload, args.seconds / PASSES) * cycle
    jobs = workloads.job_list(args.workload, args.seed, count)
    warm = Run()
    for job in workloads.warmup_jobs(args.workload):
        warm.job(workloads, job)
    setup_s = time.monotonic() - args.t0
    out = {"setup_s": setup_s, "warmup_mismatches": warm.mismatches}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    run = Run()
    if args.mode == "timed":
        from stats import fastest

        started = time.monotonic()
        cpus = sorted(os.sched_getaffinity(0))
        for i, job in enumerate(jobs * PASSES):
            if time.monotonic() - started > HARD_CAP_S:
                break
            # one job at a time; a job's passes run on different CPUs if allowed
            os.sched_setaffinity(0, {cpus[(i % count + i // count) % len(cpus)]})
            run.job(workloads, job)
        passes = [(run.times[i:i + count], run.cpu[i:i + count], run.failed[i:i + count])
                  for i in range(0, PASSES * count, count)]
        run.times, run.cpu, run.failed = fastest(passes)
    else:
        from tracing import Tracer

        tracer = Tracer(args.workload)
        base = Run()
        for j, job in enumerate(jobs):
            for traced in (False, True) if j % 2 == 0 else (True, False):
                if not traced:
                    base.job(workloads, job)
                    continue
                tracer.install()
                try:
                    run.job(workloads, job, tracer)
                finally:
                    tracer.uninstall()
    out.update(run.summary())
    if args.mode == "timed":
        out["pass_times"] = [times for times, _, _ in passes]
        out["phase_wall_s"] = time.monotonic() - started
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = environment()
    if args.mode == "trace":
        out["base"] = base.summary()
        metrics = tracer.metrics()
        out["per_layer"] = {name: list(v) for name, v in metrics.items()}
        out["silent_spans"] = tracer.silent_spans(metrics)
        out["spans"] = len(tracer.starts)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
