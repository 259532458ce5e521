"""Tests of the benchmark's own arithmetic, tracing and references.

    python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import genstar  # noqa: E402
import refs  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_children_but_not_grandchildren():
    # parent [0, 10] holds children [1, 3] and [4, 6]; [1.5, 2] is a grandchild
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 1.5, 4.0]
    ends = [10.0, 3.0, 2.0, 6.0]
    assert tracing.self_times(parents, starts, ends) == pytest.approx([6.0, 1.5, 0.5, 2.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    parents = [-1, 0, 0]
    starts = [0.0, 1.0, 3.0]
    ends = [6.0, 5.0, 7.0]
    assert tracing.self_times(parents, starts, ends)[0] == pytest.approx(1.0)


def test_failed_jobs_rank_after_every_completed_job():
    times = [0.1, 0.2, 0.3, 0.05]
    failed = [False, False, False, True]
    assert stats.percentile(times, failed, 0.5, failed_value=9.0) == 0.2
    assert stats.percentile(times, failed, 0.75, failed_value=9.0) == 0.3
    assert stats.percentile(times, failed, 0.9, failed_value=9.0) == 9.0


def test_throughput_counts_completed_jobs_and_cpu_counts_attempted():
    metrics = stats.end_to_end([1.0, 1.0, 2.0], [False, True, False], cpu_s=3.0,
                               setup_s=0.5, peak_rss_mib=10.0)
    assert metrics["jobs_per_s"][0] == pytest.approx(2 / 4.0)
    assert metrics["cpu_s_per_job"][0] == pytest.approx(1.0)
    assert metrics["job_s.p90"][0] == 4.0  # the failed job reads as the whole phase


def test_passes_keep_each_jobs_fastest_time_and_any_failure():
    first = ([0.3, 0.1, 0.5], [0.29, 0.1, 0.5], [False, False, True])
    second = ([0.2, 0.4], [0.21, 0.4], [False, True])  # cut short after two jobs
    times, cpu, failed = stats.fastest([first, second])
    assert times == [0.2, 0.1, 0.5]
    assert cpu == [0.21, 0.1, 0.5]
    assert failed == [False, True, True]


def test_timed_runs_are_whole_cycles_of_at_least_min_jobs():
    for workload in workloads.WORKLOADS:
        cycles = workloads.timed_cycles(workload, 0.001)
        assert cycles * workloads.CYCLE_LENGTH[workload] >= workloads.MIN_JOBS
        assert workloads.timed_cycles(workload, 1000.0) > cycles


def test_tracer_replaces_every_binding_and_restores_them():
    originals = {(m, a): getattr(sys.modules[m], a)
                 for targets, _ in tracing.SPANS.values() for m, a in targets}
    tracer = tracing.Tracer("big_operands")
    tracer.install()
    try:
        for name, module in list(sys.modules.items()):
            if name == "genstar" or name.startswith("genstar."):
                leaked = [k for k, v in vars(module).items()
                          if any(v is o for o in originals.values())]
                assert not leaked, (name, leaked)
        assert genstar.exprio.evaluate.star_wave is genstar.star_wave
        assert genstar.exprio.scenario.star_wave is genstar.wavestar.star_wave
    finally:
        tracer.uninstall()
    assert genstar.exprio.evaluate.star_wave is originals[("genstar.wavestar", "star_wave")]


def test_merge_ratio_is_terms_out_over_term_pairs():
    # (e^{i x1} + e^{i x2}) * (e^{i x2} + e^{i x1}): 4 pairs, (1, 1) appears twice -> 3 terms
    f = genstar.WaveSum.plane_wave(1, 0) + genstar.WaveSum.plane_wave(0, 1)
    g = genstar.WaveSum.plane_wave(0, 1) + genstar.WaveSum.plane_wave(1, 0)
    tracer = tracing.Tracer("big_operands")
    tracer.install()
    try:
        genstar.star_wave(f, g, genstar.preset_params("moyal", 1.0))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["wavestar.star_wave.calls"][0] == 1
    assert metrics["wavestar.star_wave.pairs"][0] == 4
    assert metrics["wavestar.star_wave.terms_out"][0] == 3
    assert metrics["wavestar.star_wave.merge_ratio"] == (0.75, "ratio")


def _traced_counts(workload):
    tracer = tracing.Tracer(workload)
    tracer.install()
    try:
        for job in workloads.warmup_jobs(workload):
            inputs = workloads.prepare(job)
            try:
                workloads.run(job, inputs)
            except Exception:
                pass
    finally:
        tracer.uninstall()
    return {k: v for k, v in tracer.metrics().items() if not k.endswith("self_s")}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_lists_and_count_metrics_repeat_for_a_seed(workload, monkeypatch):
    monkeypatch.chdir(HERE.parent)
    assert workloads.job_list(workload, 3, 25) == workloads.job_list(workload, 3, 25)
    assert workloads.job_list(workload, 3, 25) != workloads.job_list(workload, 4, 25)
    assert _traced_counts(workload) == _traced_counts(workload)


def test_printed_exponential_sums_read_back_exactly():
    value = genstar.star_wave(
        genstar.WaveSum.plane_wave(1.5, -2, 0.25 - 1e-5j) + genstar.WaveSum.plane_wave(-1, 0, -3),
        genstar.WaveSum.plane_wave(0, 1, 1j) + genstar.WaveSum.plane_wave(0.5, 0.5, 2),
        genstar.make_params(0.7, phi11=0.1j, phi12=-0.2, phi22=0.3 + 0.1j),
    )
    amps, wavevectors = refs.parse_wavesum_text(genstar.exprio.format_value(value))
    got = {(complex(k1), complex(k2)): a for a, (k1, k2) in zip(amps, wavevectors)}
    assert got == {t.wavevector: t.amplitude for t in value.terms}


def test_lattice_power_matches_direct_expansion():
    coeffs, wavevectors = refs.lattice_power(workloads.LATTICE_STEPS, 3)
    points = refs.SAMPLE_POINTS
    base = sum(np.exp(1j * (points @ np.array(step, dtype=float)))
               for step in workloads.LATTICE_STEPS)
    assert np.allclose(refs.sum_values(coeffs, wavevectors), base**3, rtol=1e-13)
    assert coeffs.real.sum() == 4**3


def test_checks_reject_a_wrong_amplitude():
    job = workloads.warmup_jobs("big_operands")
    job = next(j for j in job if j["kind"] == "wave_star")
    inputs = workloads.prepare(job)
    out = workloads.run(job, inputs)
    assert workloads.check(job, inputs, out) is None
    bad = genstar.WaveSum(out.terms[1:], out.frame)
    assert workloads.check(job, inputs, bad) is not None
