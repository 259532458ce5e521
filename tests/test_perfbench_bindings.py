"""The genstar API that perfbench traces and calls still exists.

perfbench lives outside this suite's test paths, so a change that renames
or drops a traced function would otherwise only show when the benchmark
runs.  This reads perfbench's span table, runs its tracer over the golden
scenarios, the suites and one big_operands cycle, and runs one cycle of
each workload through its job checks; it changes nothing there.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import genstar
from genstar import exprio, suites

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracing():
    return _load("perfbench_tracing", TRACING)


@pytest.mark.parametrize("module_name, attr", sorted(
    target for targets, _ in _tracing().SPANS.values() for target in targets))
def test_traced_functions_resolve(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def _golden_reports(monkeypatch):
    for path in sorted((ROOT / "scenarios").glob("*.scn")):
        exprio.emit_report(exprio.run_scenario(exprio.load_scenario(path)), "json")


def _big_operands_cycle(monkeypatch):
    workloads, jobs = _cycle(monkeypatch, "big_operands")
    for job in jobs:
        workloads.run(job, workloads.prepare(job))


@pytest.mark.parametrize("workload, run", [
    ("roi_kernels", _golden_reports),
    ("verify_suites", lambda monkeypatch: suites.run_suites(trials=1)),
    ("big_operands", _big_operands_cycle),
])
def test_tracer_records_every_layer_that_moves(workload, run, monkeypatch):
    # a traced function that some module captured at import time (say, in a
    # table) escapes the tracer's rebinding, and its span goes silent
    tracer = _tracing().Tracer(workload)
    try:
        tracer.install()
        run(monkeypatch)
    finally:
        tracer.uninstall()
    assert tracer.silent_spans(tracer.metrics()) == []


def test_fock_results_expose_what_perfbench_reads():
    ops = genstar.quantum_ops(genstar.make_params(1.0), 8)
    psi = genstar.FockOp(8, [[0.0] * 8] * 8)
    assert callable(ops.X1) and callable(ops.X2)
    assert isinstance(ops.X1(ops.X2(psi)), genstar.FockOp)
    comparison = genstar.overlap_vs_closedform(0.1, 0.2, 1.0, 16)
    for name in ("numeric", "closed", "abs_error"):
        assert hasattr(comparison, name)


def _cycle(monkeypatch, workload):
    monkeypatch.setitem(sys.modules, "refs", _load("refs", PERFBENCH / "refs.py"))
    workloads = _load("perfbench_workloads", PERFBENCH / "workloads.py")
    return workloads, workloads.job_list(workload, 1, workloads.CYCLE_LENGTH[workload])


def test_one_roi_kernels_cycle_passes_perfbench_checks(monkeypatch):
    # perfbench's closed-form point checks, in tier-1: the 21 kernel grids,
    # the 3 golden runs and the |p| = 10 job of one cycle at seed 1
    workloads, jobs = _cycle(monkeypatch, "roi_kernels")
    monkeypatch.chdir(ROOT)  # the golden jobs name their scenarios from the root
    assert sorted(job["kind"] for job in jobs) == ["kernel"] * 22 + ["run"] * 3
    assert max(job.get("reach", 0.0) for job in jobs) == 10.0
    for job in jobs:
        inputs = workloads.prepare(job)
        output = workloads.run(job, inputs)
        assert workloads.check(job, inputs, output) is None, job


def test_one_big_operands_cycle_passes_perfbench_checks(monkeypatch):
    # perfbench's reference checks on the asymptotic tiers, in tier-1: the
    # 15 templates of one cycle at seed 1, dense star_poly at 13 x 14 included
    workloads, jobs = _cycle(monkeypatch, "big_operands")
    assert len(jobs) == 15
    assert {"df": 13, "dg": 14} in [{k: job[k] for k in ("df", "dg")} for job in jobs
                                    if job["kind"] == "dense_poly"]
    for job in jobs:
        inputs = workloads.prepare(job)
        output = workloads.run(job, inputs)
        assert workloads.check(job, inputs, output) is None, job


def test_one_verify_suites_cycle_passes_perfbench_checks(monkeypatch):
    # perfbench's job check requires the suites' check names to equal its
    # EXPECTED_CHECKS, so a renamed, added or dropped check fails here too
    workloads, jobs = _cycle(monkeypatch, "verify_suites")
    assert [job["kind"] for job in jobs] == ["verify"]
    for job in jobs:
        inputs = workloads.prepare(job)
        output = workloads.run(job, inputs)
        assert workloads.check(job, inputs, output) is None, job
