"""Spans and counters recorded around genstar's public functions, from outside.

`Tracer.install` replaces every attribute of every loaded `genstar` module
that *is* one of the traced functions, so calls made through any binding
(`genstar.star_wave`, `genstar.wavestar.star_wave`, the names imported into
`exprio.evaluate` and `exprio.scenario`, ...) all land in the same span.
Spans stay in memory with their parent and job, and are written out once
the run ends.  Self time is a span's duration minus the part of it covered
by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

#: span name -> (module, function) pairs it covers, and the workloads on
#: which the span must record calls because its layer moves there
SPANS = {
    "polystar.star_poly": ((("genstar.polystar", "star_poly"),), ("verify_suites", "big_operands")),
    "polystar.star_commutator": (
        (("genstar.polystar", "star_commutator"),), ("verify_suites", "big_operands")),
    "polystar.tmap_poly": ((("genstar.polystar", "tmap_poly"),), ("verify_suites", "big_operands")),
    "wavestar.star_wave": ((("genstar.wavestar", "star_wave"),), ("big_operands",)),
    "wavestar.tmap_wave": ((("genstar.wavestar", "tmap_wave"),), ("big_operands",)),
    "wavestar.equivalence_residual": (
        (("genstar.wavestar", "equivalence_residual"),), ("big_operands",)),
    "wavestar.roi_amplitude": (
        (("genstar.wavestar", "position_roi_amplitude"),
         ("genstar.wavestar", "coherent_roi_amplitude")), ("roi_kernels",)),
    "wavestar.plane_integral": (
        (("genstar.wavestar", "plane_integral_cartesian"),
         ("genstar.wavestar", "plane_integral_z")), ("roi_kernels",)),
    "wavestar.roi_kernel": (
        (("genstar.wavestar", "position_roi_kernel"),
         ("genstar.wavestar", "coherent_roi_kernel")), ("roi_kernels",)),
    "fockspace.momentum_state_op": (
        (("genstar.fockspace", "momentum_state_op"),), ("big_operands",)),
    "fockspace.coherent_projector": (
        (("genstar.fockspace", "coherent_projector"),), ("big_operands",)),
    "fockspace.hs_inner": ((("genstar.fockspace", "hs_inner"),), ("big_operands",)),
    "fockspace.quantum_ops": ((("genstar.fockspace", "quantum_ops"),), ("big_operands",)),
    "exprio.emit_report": ((("genstar.exprio.report", "emit_report"),), ("roi_kernels",)),
    "exprio.run_scenario": ((("genstar.exprio.scenario", "run_scenario"),), ("roi_kernels",)),
    "exprio.prepare_task": ((("genstar.exprio.scenario", "prepare_task"),), ("roi_kernels",)),
    "exprio.parse_expression": (
        (("genstar.exprio.parser", "parse_expression"),), ("big_operands",)),
    "exprio.evaluate_expression": (
        (("genstar.exprio.evaluate", "evaluate_expression"),), ("big_operands",)),
    "exprio.format_value": ((("genstar.exprio.format", "format_value"),), ("big_operands",)),
    "suites.algebra_suite": ((("genstar.suites", "algebra_suite"),), ("verify_suites",)),
    "suites.equivalence_suite": ((("genstar.suites", "equivalence_suite"),), ("verify_suites",)),
    "suites.roi_suite": ((("genstar.suites", "roi_suite"),), ("verify_suites",)),
    "suites.fock_suite": ((("genstar.suites", "fock_suite"),), ("verify_suites",)),
}


def _poly_counts(args, result, counts):
    f, g = args[0], args[1]
    nf, ng = len(f.terms), len(g.terms)
    counts["polystar.star_poly.terms_in"] += nf * ng
    counts["polystar.star_poly.terms_out"] += len(result.terms)
    degree = max(f.total_degree(), g.total_degree())
    counts["polystar.star_poly.max_degree"] = max(counts["polystar.star_poly.max_degree"], degree)


def _wave_counts(args, result, counts):
    counts["wavestar.star_wave.pairs"] += len(args[0].terms) * len(args[1].terms)
    counts["wavestar.star_wave.terms_out"] += len(result.terms)


def _report_bytes(args, result, counts):
    counts["exprio.emit_report.bytes"] += len(result)


def _fock_dim(dim_arg):
    def count(args, result, counts):
        counts["fockspace.max_dim"] = max(counts["fockspace.max_dim"], int(args[dim_arg]))

    return count


#: counters updated after a span's call returns: span -> fn(args, result, counts)
COUNTERS = {
    "polystar.star_poly": _poly_counts,
    "wavestar.star_wave": _wave_counts,
    "exprio.emit_report": _report_bytes,
    "fockspace.momentum_state_op": _fock_dim(2),
    "fockspace.coherent_projector": _fock_dim(1),
}

COUNT_NAMES = (
    "polystar.star_poly.terms_in",
    "polystar.star_poly.terms_out",
    "polystar.star_poly.max_degree",
    "wavestar.star_wave.pairs",
    "wavestar.star_wave.terms_out",
    "exprio.emit_report.bytes",
    "fockspace.max_dim",
)

COUNT_UNITS = {"bytes": "bytes", "max_degree": "degree", "max_dim": "dim"}


class BindingError(RuntimeError):
    """A traced function is missing, or a binding of it escaped the wrappers."""


def self_times(parents, starts, ends) -> list[float]:
    """Per span: duration minus the union of its direct children's intervals
    (clipped to the span).  Spans are listed in start order."""
    covered = [0.0] * len(starts)
    reach = [None] * len(starts)  # end of the child coverage merged so far
    for i, p in enumerate(parents):
        if p < 0:
            continue
        lo, hi = max(starts[i], starts[p]), min(ends[i], ends[p])
        if reach[p] is not None:
            lo = max(lo, reach[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(len(starts))]


class Tracer:
    """In-memory span recorder; `install` wraps, `uninstall` restores."""

    def __init__(self, workload: str):
        self.workload = workload
        self.names = list(SPANS)
        self.name_ids = array("i")
        self.parents = array("i")
        self.jobs = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.job = -1
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, span_id: int, fn, counter):
        names, parents, jobs = self.name_ids, self.parents, self.jobs
        starts, ends, stack, counts = self.starts, self.ends, self.stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(span_id)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(args, result, counts)
            return result

        return traced

    def install(self):
        """Replace every genstar module attribute bound to a traced function."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "genstar" or name.startswith("genstar.")]
        for span_id, (span, (targets, _)) in enumerate(SPANS.items()):
            for module_name, attr in targets:
                module = sys.modules.get(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    raise BindingError(f"{module_name}.{attr} not found for span {span}")
                wrapper = self._wrap(span_id, original, COUNTERS.get(span))
                bound = 0
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._patched.append((mod, key, original))
                            bound += 1
                if not bound:
                    raise BindingError(f"no binding of {module_name}.{attr} was replaced")

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """calls and self_s for every span, the counters, and merge_ratio."""
        selfs = self_times(self.parents, self.starts, self.ends)
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        for span_id, s in zip(self.name_ids, selfs):
            calls[span_id] += 1
            busy[span_id] += s
        out: dict[str, tuple[float, str]] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = (calls[i], "count")
            out[f"{name}.self_s"] = (busy[i], "s")
        for name, value in self.counts.items():
            out[name] = (value, COUNT_UNITS.get(name.rsplit(".", 1)[1], "count"))
        pairs = self.counts["wavestar.star_wave.pairs"]
        out["wavestar.star_wave.merge_ratio"] = (
            self.counts["wavestar.star_wave.terms_out"] / pairs if pairs else 0.0, "ratio")
        return out

    def silent_spans(self, metrics) -> list[str]:
        """Spans that recorded no call on a workload where their layer moves."""
        return [span for span, (_, moves) in SPANS.items()
                if self.workload in moves and metrics[f"{span}.calls"][0] == 0]

    def write(self, path):
        """All spans as gzipped CSV: id, name, parent, job, start_s, end_s."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,name,parent,job,start_s,end_s\n")
            for i in range(len(self.starts)):
                fh.write(f"{i},{self.names[self.name_ids[i]]},{self.parents[i]},"
                         f"{self.jobs[i]},{self.starts[i]:.9f},{self.ends[i]:.9f}\n")
