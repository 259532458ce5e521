"""Summary statistics of one closed-loop run."""

from __future__ import annotations

import math


def percentile(times, failed, q: float, failed_value: float) -> float:
    """Nearest-rank q-quantile of job wall times.  A failed job ranks after
    every completed job and reads as `failed_value`, which the caller sets
    to at least the slowest completed job."""
    ranked = sorted(t for t, bad in zip(times, failed) if not bad)
    ranked += [failed_value] * (len(times) - len(ranked))
    if not ranked:
        raise ValueError("percentile of an empty run")
    return ranked[max(1, math.ceil(q * len(ranked))) - 1]


def fastest(passes):
    """Merge passes of one job list: each job keeps the wall and CPU time of
    its fastest pass and fails if any pass failed.  `passes` holds
    (times, cpu, failed) lists; a pass cut short covers a prefix of the jobs."""
    times, cpu, failed = [], [], []
    for j in range(len(passes[0][0])):
        ran = [(p[0][j], p[1][j], p[2][j]) for p in passes if j < len(p[0])]
        wall, cpu_s, _ = min(ran)
        times.append(wall)
        cpu.append(cpu_s)
        failed.append(any(bad for _, _, bad in ran))
    return times, cpu, failed


def end_to_end(times, failed, cpu_s: float, setup_s: float, peak_rss_mib: float) -> dict:
    """The end-to-end metrics of a timed phase; times are per-job wall times
    (each job's fastest pass) and the phase's wall time is their sum (checks
    run between jobs)."""
    wall = sum(times)
    completed = len(times) - sum(failed)
    return {
        "job_s.p50": (percentile(times, failed, 0.5, wall), "s"),
        "job_s.p90": (percentile(times, failed, 0.9, wall), "s"),
        "jobs_per_s": (completed / wall, "1/s"),
        "cpu_s_per_job": (cpu_s / len(times), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
