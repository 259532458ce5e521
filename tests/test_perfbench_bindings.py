"""The genstar API that perfbench traces and calls still exists.

perfbench lives outside this suite's test paths, so a change that renames
or drops a traced function would otherwise only show when the benchmark
runs.  This reads perfbench's span table and runs its tracer over the
golden scenarios and the suites; it changes nothing there.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import genstar
from genstar import exprio, suites

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


@pytest.mark.parametrize("module_name, attr", sorted(
    target for targets, _ in _tracing().SPANS.values() for target in targets))
def test_traced_functions_resolve(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def _golden_reports():
    for path in sorted((ROOT / "scenarios").glob("*.scn")):
        exprio.emit_report(exprio.run_scenario(exprio.load_scenario(path)), "json")


@pytest.mark.parametrize("workload, run", [
    ("roi_kernels", _golden_reports),
    ("verify_suites", lambda: suites.run_suites(trials=1)),
])
def test_tracer_records_every_layer_that_moves(workload, run):
    # a traced function that some module captured at import time (say, in a
    # table) escapes the tracer's rebinding, and its span goes silent
    tracer = _tracing().Tracer(workload)
    try:
        tracer.install()
        run()
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
