"""Report containers and byte-stable emission in json/csv/text."""

from __future__ import annotations

import csv
import io
import json
import operator
from dataclasses import dataclass, field

from ..errors import ValidationError

FORMATS = ("json", "csv", "text")

CSV_HEADER = (
    "task",
    "kind",
    "p1",
    "p2",
    "pp1",
    "pp2",
    "amp_re",
    "amp_im",
    "ref_re",
    "ref_im",
    "abs_error",
    "verdict",
    "summary",
)

#: a point's values in the order of its CSV columns, p1 to abs_error
_POINT_COLUMNS = operator.itemgetter(*CSV_HEADER[2:-2])


@dataclass
class TaskResult:
    kind: str
    inputs: dict
    outputs: dict
    verdict: str  # pass | finding | fail | error
    max_error: float | None = None
    seconds: float | None = None
    points: list[dict] = field(default_factory=list)
    summary: str = ""


@dataclass
class Report:
    scenario: dict
    engine_version: str
    tasks: list[TaskResult] = field(default_factory=list)
    failed: bool = False


def exit_code(report: Report) -> int:
    """0 = every task passed, 1 = at least one finding (a predicted
    non-resolution), 2 = an error or tolerance failure."""
    if report.failed or any(t.verdict in ("error", "fail") for t in report.tasks):
        return 2
    if any(t.verdict == "finding" for t in report.tasks):
        return 1
    return 0


def _task_dict(t: TaskResult, include_timings: bool) -> dict:
    outputs = dict(t.outputs)
    if t.points:
        outputs["points"] = t.points
    return {
        "kind": t.kind,
        "inputs": t.inputs,
        "outputs": outputs,
        "verdict": t.verdict,
        "max_error": t.max_error,
        "seconds": t.seconds if include_timings else None,
    }


def emit_report(report: Report, fmt: str = "json", include_timings: bool = False) -> bytes:
    """Serialize a report.  Output is byte-stable for identical scenario
    inputs and seed; wall-clock timings are emitted as null unless
    include_timings is set (which breaks byte stability by design)."""
    if fmt == "json":
        doc = {
            "scenario": report.scenario,
            "engine_version": report.engine_version,
            "failed": report.failed,
            "tasks": [_task_dict(t, include_timings) for t in report.tasks],
        }
        return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for idx, t in enumerate(report.tasks):
            if t.points:
                for pt in t.points:
                    writer.writerow([idx, t.kind, *_POINT_COLUMNS(pt), t.verdict, ""])
            else:
                writer.writerow(
                    [idx, t.kind, "", "", "", "", "", "", "", "", t.max_error if t.max_error is not None else "", t.verdict, t.summary]
                )
        return buf.getvalue().encode()
    if fmt == "text":
        lines = [f"scenario: {report.scenario.get('name', '<inline>')}"]
        lines.append(f"engine: genstar {report.engine_version}")
        params = report.scenario.get("params", {})
        if params:
            lines.append("params: " + ", ".join(f"{k}={v}" for k, v in sorted(params.items())))
        for idx, t in enumerate(report.tasks):
            err = f" max_error={t.max_error:.3e}" if t.max_error is not None else ""
            tm = f" ({t.seconds:.3f}s)" if include_timings and t.seconds is not None else ""
            lines.append(f"[{t.verdict.upper():7s}] task {idx} {t.kind}:{err}{tm} {t.summary}".rstrip())
        verdictn = exit_code(report)
        tail = {0: "all tasks passed", 1: "findings reported", 2: "errors occurred"}[verdictn]
        lines.append(f"result: {tail} (exit code {verdictn})")
        return ("\n".join(lines) + "\n").encode()
    raise ValidationError(f"unknown report format {fmt!r}; expected one of {FORMATS}")
