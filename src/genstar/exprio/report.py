"""Report containers and byte-stable emission in json/csv/text.

A task's grid points are a column table: TaskResult.points maps each point
column (p1 to abs_error, in CSV order) to an array over the grid, or to one
value that every point shares; p1 is always an array.  The emitter writes
the JSON points block and the CSV point rows with no Python step per point:
each distinct value of a column is rendered once and gathered by index,
and each table is one flat list of those strings and its row template's
pieces, joined once.  The bytes are those that json.dumps(sort_keys=True,
indent=2) and csv.writer give for the same points as a list of dicts.
"""

from __future__ import annotations

import csv
import io
import json
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

#: the point columns, in CSV order
_POINT_COLUMNS = CSV_HEADER[2:-2]

#: a JSON point and its comma, split at its values, the keys sorted and
#: indented as json.dumps(indent=2) puts them in tasks[i].outputs.points
_JSON_PIECES = (" " * 10 + "{\n"
                + ",\n".join(" " * 12 + f'"{k}": %s' for k in sorted(_POINT_COLUMNS))
                + "\n" + " " * 10 + "},\n").split("%s")
_JSON_ORDER = [_POINT_COLUMNS.index(k) for k in sorted(_POINT_COLUMNS)]

#: json.dumps's spelling of the floats whose repr is no JSON number
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@dataclass
class TaskResult:
    kind: str
    inputs: dict
    outputs: dict
    verdict: str  # pass | finding | fail | error
    max_error: float | None = None
    seconds: float | None = None
    points: dict = field(default_factory=dict)  # column table, see the module docstring
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


def _task_dict(t: TaskResult, include_timings: bool, points) -> dict:
    outputs = dict(t.outputs)
    if t.points:
        outputs["points"] = points
    return {
        "kind": t.kind,
        "inputs": t.inputs,
        "outputs": outputs,
        "verdict": t.verdict,
        "max_error": t.max_error,
        "seconds": t.seconds if include_timings else None,
    }


def _reprs(col, rows: int, spell: dict) -> list[str]:
    """repr of a point column's value at every point, respelled by `spell`:
    each distinct value of an array (keyed by its bits, so 0.0 and -0.0 stay
    apart) is rendered once and gathered by index if values repeat, as on p1."""
    if not hasattr(col, "tolist"):
        text = repr(col)
        return [spell.get(text, text)] * rows
    import numpy as np
    keys, index = np.unique(col.view(f"i{col.itemsize}"), return_inverse=True)
    gather = 2 * keys.size <= rows
    strs = list(map(repr, (keys.view(col.dtype) if gather else col).tolist()))
    if not spell.keys().isdisjoint(strs):
        strs = [spell.get(s, s) for s in strs]
    return np.array(strs, dtype=object)[index].tolist() if gather else strs


def _rendered(points: dict, spell: dict) -> list[list[str]]:
    """Per point column in CSV order, the strings _reprs gathers, which
    _table lays out for the table's one join.  A column that several names
    share (pp1 is p1) is rendered once."""
    rows = len(points["p1"])
    done: dict[int, list[str]] = {}
    for col in (points[name] for name in _POINT_COLUMNS):
        if id(col) not in done:
            done[id(col)] = _reprs(col, rows, spell)
    return [done[id(points[name])] for name in _POINT_COLUMNS]


def _table(pieces: list[str], cols: list[list[str]]) -> list[str]:
    """pieces[0], cols[0][i], pieces[1], ..., pieces[-1] for each row i, in one flat list."""
    rows, width = len(cols[0]), 2 * len(cols) + 1
    out = [pieces[0]] * (rows * width)
    for j, col in enumerate(cols):
        out[2 * j + 1::width] = col
        out[2 * j + 2::width] = [pieces[j + 1]] * rows
    return out


def _json_points(points: dict) -> str:
    cols = _rendered(points, _JSON_NONFINITE)
    out = _table(_JSON_PIECES, [cols[i] for i in _JSON_ORDER])
    if not out:
        return "[]"
    out[0], out[-1] = "[\n" + out[0], out[-1][:-2] + "\n" + " " * 8 + "]"  # no comma after the last point
    return "".join(out)


def _csv_line(fields) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()


def _csv_points(idx: int, t: TaskResult) -> str:
    head = _csv_line([idx, t.kind, ""])[:-1]
    tail = _csv_line(["", t.verdict, ""])
    return "".join(_table([head] + [","] * (len(_POINT_COLUMNS) - 1) + [tail], _rendered(t.points, {})))


def emit_report(report: Report, fmt: str = "json", include_timings: bool = False) -> bytes:
    """Serialize a report.  Output is byte-stable for identical scenario
    inputs and seed; wall-clock timings are emitted as null unless
    include_timings is set (which breaks byte stability by design)."""
    if fmt == "json":
        blocks = [_json_points(t.points) for t in report.tasks if t.points]
        marker = "@points"
        while True:  # the points blocks go where their marker strings land
            doc = {
                "scenario": report.scenario,
                "engine_version": report.engine_version,
                "failed": report.failed,
                "tasks": [_task_dict(t, include_timings, marker) for t in report.tasks],
            }
            parts = (json.dumps(doc, sort_keys=True, indent=2) + "\n").split(json.dumps(marker))
            if len(parts) == len(blocks) + 1:
                break
            marker += "@"  # some input holds the marker: try a longer one
        out = [parts[0]]
        for block, part in zip(blocks, parts[1:]):
            out += [block, part]
        return "".join(out).encode()
    if fmt == "csv":
        out = [_csv_line(CSV_HEADER)]
        for idx, t in enumerate(report.tasks):
            if t.points:
                out.append(_csv_points(idx, t))
            else:
                error = t.max_error if t.max_error is not None else ""
                out.append(_csv_line([idx, t.kind, *[""] * 8, error, t.verdict, t.summary]))
        return "".join(out).encode()
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
