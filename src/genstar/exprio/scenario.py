"""Scenario files: a flat key-value header plus an ordered task list.

Format, line by line (# starts a comment):

    preset = voros            # or theta/phi11/phi12/phi22 as complex literals
    theta = 1.0
    seed = 0

    task position-roi grid=-2:2:20 tol=1e-12
    task eval expr="x1 ** x2"

Every task's inputs are validated against its kind before any task runs;
an exception while running aborts the remaining tasks and marks the
report failed, keeping completed results.
"""

from __future__ import annotations

import math
import shlex
import time
from dataclasses import dataclass, field

import numpy as np

from .. import __version__
from ..deformation import DeformationParams, make_params, preset_params
from ..errors import EngineError
from ..polystar import Polynomial2, poly_equivalence_residual, star_commutator, tmap_poly
from ..suites import SUITE_NAMES, run_suites
from ..wavestar import (
    WaveSum,
    coherent_roi_kernel,
    equivalence_residual,
    position_roi_kernel,
    roi_diagonal,
    star_wave,  # unused here; perfbench's tracer test reads scenario.star_wave
    tmap_wave,
)
from .evaluate import _star, evaluate_expression, value_kind
from .format import format_value
from .parser import Expression, parse_expression
from .report import Report, TaskResult

TASK_KINDS = (
    "eval",
    "commutator",
    "tmap",
    "equivalence",
    "position-roi",
    "coherent-roi",
    "fock-check",
    "verify-all",
)

_PARAM_KEYS = ("theta", "phi11", "phi12", "phi22", "preset", "seed", "trials")

#: header keys holding plain numbers, with the type each converts to
_NUMBER_KEYS = {"theta": float, "seed": int, "trials": int}


class ScenarioError(EngineError):
    """A scenario file failed to parse or validate."""


@dataclass(frozen=True)
class Task:
    kind: str
    options: dict[str, str]
    prepared: dict = field(compare=False)
    line: int = 0


@dataclass(frozen=True)
class Scenario:
    params: DeformationParams
    preset: str | None
    seed: int
    trials: int | None
    tasks: tuple[Task, ...]
    name: str = "<inline>"


def parse_complex_literal(text: str) -> complex:
    """Parse a scalar complex literal in the expression grammar
    (e.g. 2, -0.5i, 1+2i)."""
    try:
        value = evaluate_expression(parse_expression(text), make_params(1.0))
    except EngineError as exc:
        raise ScenarioError(f"bad complex literal {text!r}: {exc}") from exc
    if not isinstance(value, complex):
        raise ScenarioError(f"bad complex literal {text!r}: not a constant")
    return value


def _number(convert, key: str, text: str, line: int):
    """convert(text) for a numeric scenario value (convert is int or float)."""
    try:
        return convert(text)
    except ValueError as exc:
        raise ScenarioError(
            f"line {line}: {key} = {text!r} is not a valid {convert.__name__}"
        ) from exc


def parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ScenarioError(f"bad grid {text!r}; expected min:max:count")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ScenarioError(f"bad grid {text!r}: {exc}") from exc
    if n < 1 or not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
        raise ScenarioError(f"bad grid {text!r}; need finite min <= max and count >= 1")
    return lo, hi, n


def _parse_expr_option(task_kind: str, key: str, text: str, line: int) -> Expression:
    try:
        return parse_expression(text)
    except EngineError as exc:
        raise ScenarioError(f"line {line}: task {task_kind} option {key}: {exc}") from exc


def prepare_task(kind: str, options: dict[str, str], line: int) -> Task:
    known = {
        "eval": {"expr"},
        "commutator": {"f", "g"},
        "tmap": {"expr"},
        "equivalence": {"f", "g", "tol"},
        "position-roi": {"grid", "tol"},
        "coherent-roi": {"grid", "tol"},
        "fock-check": {"n", "z", "p", "tol"},
        "verify-all": {"suites"},
    }
    if kind not in known:
        raise ScenarioError(f"line {line}: unknown task kind {kind!r}; expected one of {TASK_KINDS}")
    extra = set(options) - known[kind]
    if extra:
        raise ScenarioError(f"line {line}: task {kind} got unknown options {sorted(extra)}")
    prepared: dict = {}
    if kind in ("eval", "tmap"):
        if "expr" not in options:
            raise ScenarioError(f"line {line}: task {kind} needs expr=...")
        prepared["expr"] = _parse_expr_option(kind, "expr", options["expr"], line)
    elif kind in ("commutator", "equivalence"):
        for key in ("f", "g"):
            if key not in options:
                raise ScenarioError(f"line {line}: task {kind} needs {key}=...")
            prepared[key] = _parse_expr_option(kind, key, options[key], line)
        if kind == "equivalence":
            tol = options.get("tol")
            prepared["tol"] = None if tol is None else _number(float, "tol", tol, line)
    elif kind in ("position-roi", "coherent-roi"):
        prepared["grid"] = parse_grid(options.get("grid", "-2:2:20"))
        prepared["tol"] = _number(float, "tol", options.get("tol", "1e-12"), line)
    elif kind == "fock-check":
        prepared["n"] = _number(int, "n", options.get("n", "64"), line)
        prepared["z"] = parse_complex_literal(options.get("z", "0.3+0.2i"))
        prepared["p"] = parse_complex_literal(options.get("p", "0.5-0.7i"))
        prepared["tol"] = _number(float, "tol", options.get("tol", "1e-6"), line)
        if prepared["n"] < 2:
            raise ScenarioError(f"line {line}: fock-check needs n >= 2")
    elif kind == "verify-all":
        names = tuple(s for s in options.get("suites", ",".join(SUITE_NAMES)).split(",") if s)
        for s in names:
            if s not in SUITE_NAMES:
                raise ScenarioError(
                    f"line {line}: unknown suite {s!r}; expected from {SUITE_NAMES}"
                )
        prepared["suites"] = names
    return Task(kind=kind, options=dict(options), prepared=prepared, line=line)


def parse_scenario(text: str, name: str = "<inline>") -> Scenario:
    raw_params: dict = {}
    tasks: list[Task] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("task"):
            try:
                words = shlex.split(line)
            except ValueError as exc:
                raise ScenarioError(f"line {lineno}: {exc}") from exc
            if len(words) < 2:
                raise ScenarioError(f"line {lineno}: task line needs a kind")
            kind = words[1]
            options: dict[str, str] = {}
            for word in words[2:]:
                if "=" not in word:
                    raise ScenarioError(
                        f"line {lineno}: task options must be key=value, got {word!r}"
                    )
                key, value = word.split("=", 1)
                options[key.strip()] = value.strip()
            tasks.append(prepare_task(kind, options, lineno))
        elif "=" in line:
            key, value = line.split("=", 1)
            key = key.strip()
            if key not in _PARAM_KEYS:
                raise ScenarioError(
                    f"line {lineno}: unknown key {key!r}; expected one of {_PARAM_KEYS}"
                )
            value = value.strip()
            if key in _NUMBER_KEYS:
                value = _number(_NUMBER_KEYS[key], key, value, lineno)
            raw_params[key] = value
        else:
            raise ScenarioError(f"line {lineno}: cannot parse {line!r}")

    preset = raw_params.get("preset")
    theta = raw_params.get("theta", 1.0)
    phi_given = [k for k in ("phi11", "phi12", "phi22") if k in raw_params]
    if preset is not None and phi_given:
        raise ScenarioError(f"preset conflicts with explicit {phi_given}")
    if preset is not None:
        params = preset_params(preset, theta)
    else:
        params = make_params(
            theta,
            phi11=parse_complex_literal(raw_params.get("phi11", "0")),
            phi12=parse_complex_literal(raw_params.get("phi12", "0")),
            phi22=parse_complex_literal(raw_params.get("phi22", "0")),
        )
    seed = raw_params.get("seed", 0)
    trials = raw_params.get("trials")
    return Scenario(
        params=params, preset=preset, seed=seed, trials=trials, tasks=tuple(tasks), name=name
    )


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read(), name=str(path))


# -- task execution ---------------------------------------------------------


def _run_eval(task: Task, scenario: Scenario) -> TaskResult:
    value = evaluate_expression(task.prepared["expr"], scenario.params)
    text = format_value(value)
    return TaskResult(
        kind=task.kind,
        inputs=dict(task.options),
        outputs={"result": text, "value_kind": value_kind(value)},
        verdict="pass",
        summary=f"{task.options['expr']} = {text}",
    )


def _run_commutator(task: Task, scenario: Scenario) -> TaskResult:
    f = evaluate_expression(task.prepared["f"], scenario.params)
    g = evaluate_expression(task.prepared["g"], scenario.params)
    if isinstance(f, Polynomial2) and isinstance(g, Polynomial2):
        value = star_commutator(f, g, scenario.params)
    elif isinstance(f, complex) or isinstance(g, complex):
        value = 0j  # constants are central; c * g - g * c could overflow to nan
    else:
        value = _star(f, g, scenario.params) - _star(g, f, scenario.params)
    text = format_value(value)
    return TaskResult(
        kind=task.kind,
        inputs=dict(task.options),
        outputs={"result": text},
        verdict="pass",
        summary=f"[{task.options['f']}, {task.options['g']}] = {text}",
    )


def _run_tmap(task: Task, scenario: Scenario) -> TaskResult:
    value = evaluate_expression(task.prepared["expr"], scenario.params)
    if isinstance(value, complex):
        out = value
    elif isinstance(value, Polynomial2):
        out = tmap_poly(value, scenario.params)
    else:
        out = tmap_wave(value, scenario.params)
    text = format_value(out)
    return TaskResult(
        kind=task.kind,
        inputs=dict(task.options),
        outputs={"result": text},
        verdict="pass",
        summary=f"T({task.options['expr']}) = {text}",
    )


def _run_equivalence(task: Task, scenario: Scenario) -> TaskResult:
    f = evaluate_expression(task.prepared["f"], scenario.params)
    g = evaluate_expression(task.prepared["g"], scenario.params)
    tol = task.prepared["tol"]
    if isinstance(f, WaveSum) and isinstance(g, WaveSum):
        residual = equivalence_residual(f, g, scenario.params)
        tol = 1e-12 if tol is None else tol
    elif isinstance(f, Polynomial2) and isinstance(g, Polynomial2):
        residual = poly_equivalence_residual(f, g, scenario.params)
        tol = 1e-10 if tol is None else tol
    else:
        raise ScenarioError("equivalence needs two polynomials or two exponential sums")
    ok = residual <= tol
    return TaskResult(
        kind=task.kind,
        inputs=dict(task.options),
        outputs={"residual": residual, "tolerance": tol},
        verdict="pass" if ok else "fail",
        max_error=residual,
        summary=f"T(f *_M g) vs T(f) * T(g): residual {residual:.3e} (tol {tol:.1e})",
    )


#: what differs between the RoI task kinds: the state family that
#: roi_diagonal walks (also the noun in the summary) and the closed-form
#: kernel.  The kernels are called by their module-global names, so a
#: rebinding of those names (such as perfbench's tracer) reaches them.
_ROI_TASKS = {
    "position-roi": ("position", lambda params: position_roi_kernel(params)),
    "coherent-roi": ("coherent", lambda params: coherent_roi_kernel(params)),
}


def _run_roi(task: Task, scenario: Scenario) -> TaskResult:
    which, kernel = _ROI_TASKS[task.kind]
    tol = task.prepared["tol"]
    values = [float(v) for v in np.linspace(*task.prepared["grid"])]
    points = []
    worst = 0.0
    for p1, p2, amp in roi_diagonal(which, scenario.params, values):
        dev = abs(amp - 1.0)
        worst = max(worst, dev)
        points.append(
            {
                "p1": p1,
                "p2": p2,
                "pp1": p1,
                "pp2": p2,
                "amp_re": amp.real,
                "amp_im": amp.imag,
                "ref_re": 1.0,
                "ref_im": 0.0,
                "abs_error": dev,
            }
        )
    resolves = worst <= tol
    return TaskResult(
        kind=task.kind,
        inputs=dict(task.options),
        outputs={
            "resolves_identity": resolves,
            "max_deviation": worst,
            "tolerance": tol,
            "kernel": kernel(scenario.params).to_json_dict(),
            "finding": None if resolves else "fail-to-resolve",
        },
        verdict="pass" if resolves else "finding",
        max_error=worst,
        points=points,
        summary=(
            f"{which} states resolve the identity"
            if resolves
            else f"{which} states do not resolve the identity (max |amp-1| = {worst:.3e})"
        ),
    )


def _run_fock_check(task: Task, scenario: Scenario) -> TaskResult:
    from ..fockspace import overlap_vs_closedform

    comp = overlap_vs_closedform(
        task.prepared["z"], task.prepared["p"], scenario.params.theta, task.prepared["n"]
    )
    tol = task.prepared["tol"]
    ok = comp.abs_error < tol
    return TaskResult(
        kind=task.kind,
        inputs=dict(task.options),
        outputs={
            "numeric": [comp.numeric.real, comp.numeric.imag],
            "closed_form": [comp.closed.real, comp.closed.imag],
            "abs_error": comp.abs_error,
            "tolerance": tol,
        },
        verdict="pass" if ok else "fail",
        max_error=comp.abs_error,
        summary=f"Fock overlap vs closed form: |diff| = {comp.abs_error:.3e} at N = {task.prepared['n']}",
    )


def _run_verify_all(task: Task, scenario: Scenario) -> TaskResult:
    results = run_suites(task.prepared["suites"], seed=scenario.seed, trials=scenario.trials)
    suites_out = []
    worst = 0.0
    ok = True
    for suite in results:
        worst = max(worst, suite.max_error)
        ok = ok and suite.passed
        suites_out.append(
            {
                "name": suite.name,
                "passed": suite.passed,
                "checks": [
                    {
                        "name": c.name,
                        "max_error": c.max_error,
                        "tolerance": c.tolerance,
                        "passed": c.passed,
                        "detail": c.detail,
                    }
                    for c in suite.checks
                ],
            }
        )
    return TaskResult(
        kind=task.kind,
        inputs=dict(task.options),
        outputs={"suites": suites_out},
        verdict="pass" if ok else "fail",
        max_error=worst,
        summary=f"verification suites {','.join(task.prepared['suites'])}: "
        + ("all passed" if ok else "FAILURES"),
    )


_RUNNERS = {
    "eval": _run_eval,
    "commutator": _run_commutator,
    "tmap": _run_tmap,
    "equivalence": _run_equivalence,
    "position-roi": _run_roi,
    "coherent-roi": _run_roi,
    "fock-check": _run_fock_check,
    "verify-all": _run_verify_all,
}


def _scenario_dict(scenario: Scenario) -> dict:
    p = scenario.params
    return {
        "name": scenario.name,
        "preset": scenario.preset,
        "seed": scenario.seed,
        "trials": scenario.trials,
        "params": {
            "theta": p.theta,
            "phi11": [p.phi11.real, p.phi11.imag],
            "phi12": [p.phi12.real, p.phi12.imag],
            "phi22": [p.phi22.real, p.phi22.imag],
        },
    }


def run_scenario(scenario: Scenario) -> Report:
    """Execute tasks in order.  A task exception aborts the remaining
    tasks and marks the report failed, keeping completed results."""
    report = Report(scenario=_scenario_dict(scenario), engine_version=__version__)
    for task in scenario.tasks:
        t0 = time.perf_counter()
        try:
            result = _RUNNERS[task.kind](task, scenario)
        except EngineError as exc:
            result = TaskResult(
                kind=task.kind,
                inputs=dict(task.options),
                outputs={"error": str(exc)},
                verdict="error",
                summary=f"error: {exc}",
            )
            result.seconds = time.perf_counter() - t0
            report.tasks.append(result)
            report.failed = True
            break
        result.seconds = time.perf_counter() - t0
        report.tasks.append(result)
    return report
