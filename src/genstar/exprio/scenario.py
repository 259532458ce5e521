"""Scenario files: a flat key-value header plus an ordered task list.

Format, line by line (# starts a comment):

    preset = voros            # or theta/phi11/phi12/phi22 as complex literals
    theta = 1.0
    seed = 0

    task position-roi grid=-2:2:20 tol=1e-12
    task eval expr="x1 ** x2"

``TASKS`` is the one place that defines a task kind: its options, each
with its converter and default, and its runner.  Every task's inputs are
validated against it before any task runs; an exception while running
aborts the remaining tasks and marks the report failed, keeping completed
results.
"""

from __future__ import annotations

import math
import shlex
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .. import __version__
from ..deformation import _MAX_TENSOR, DeformationParams, make_params, preset_params
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
from .parser import parse_expression
from .report import Report, TaskResult

_PHI_KEYS = ("phi11", "phi12", "phi22")

_PARAM_KEYS = ("theta", *_PHI_KEYS, "preset", "seed", "trials")

#: header keys holding plain numbers, with the type each converts to
_NUMBER_KEYS = {"theta": float, "seed": int, "trials": int}

#: the largest fock-check n and RoI grid count: N x N matrices and count^2 grid
#: points stay within the engine's one array bound
_MAX_SIDE = math.isqrt(_MAX_TENSOR)


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


def _convert(convert, key: str, text: str, where: str):
    """convert(text) for a scenario value; a failure names `where`, the line
    and, for a task option, the task and the option."""
    try:
        return convert(text)
    except ValueError as exc:  # int() or float() on text that is no number
        raise ScenarioError(f"{where}: {key} = {text!r} is not a valid {convert.__name__}") from exc
    except EngineError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def build_params(theta, preset: str | None, phis: dict) -> DeformationParams:
    """(theta, Phi) from a preset name, or else from the complex literals
    phis["phi11"], phis["phi12"] and phis["phi22"], each "0" when absent."""
    if preset is not None:
        return preset_params(preset, theta)
    return make_params(theta, **{k: parse_complex_literal(phis.get(k, "0")) for k in _PHI_KEYS})


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
    if n > _MAX_SIDE or not math.isfinite(hi - lo):
        raise ScenarioError(f"bad grid {text!r}; need count <= {_MAX_SIDE} and max - min finite")
    return lo, hi, n


def _tolerance(text: str) -> float:
    """A tol option: a float that is finite and >= 0."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0.0 <= tol < math.inf:
        raise ScenarioError(f"tol = {text!r} is not a valid float: a tolerance is finite and >= 0")
    return tol


def _suite_names(text: str) -> tuple[str, ...]:
    names = tuple(s for s in text.split(",") if s)
    for s in names:
        if s not in SUITE_NAMES:
            raise ScenarioError(f"unknown suite {s!r}; expected from {SUITE_NAMES}")
    return names


def prepare_task(kind: str, options: dict[str, str], line: int) -> Task:
    """Check a task's options against its kind in TASKS and convert each,
    defaults included."""
    if kind not in TASKS:
        raise ScenarioError(f"line {line}: unknown task kind {kind!r}; expected one of {tuple(TASKS)}")
    spec = TASKS[kind][0]
    extra = options.keys() - spec.keys()
    if extra:
        raise ScenarioError(f"line {line}: task {kind} got unknown options {sorted(extra)}")
    prepared: dict = {}
    for key, (convert, default) in spec.items():
        text = options.get(key, default)
        if text is REQUIRED:
            raise ScenarioError(f"line {line}: task {kind} needs {key}=...")
        where = f"line {line}: task {kind} option {key}"
        prepared[key] = None if text is None else _convert(convert, key, text, where)
    if kind == "fock-check" and not 2 <= prepared["n"] <= _MAX_SIDE:
        raise ScenarioError(f"line {line}: fock-check needs n >= 2 and n <= {_MAX_SIDE}")
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
                value = _convert(_NUMBER_KEYS[key], key, value, f"line {lineno}")
            raw_params[key] = value
        else:
            raise ScenarioError(f"line {lineno}: cannot parse {line!r}")

    preset = raw_params.get("preset")
    phi_given = [k for k in _PHI_KEYS if k in raw_params]
    if preset is not None and phi_given:
        raise ScenarioError(f"preset conflicts with explicit {phi_given}")
    params = build_params(raw_params.get("theta", 1.0), preset, raw_params)
    seed = raw_params.get("seed", 0)
    trials = raw_params.get("trials")
    return Scenario(
        params=params, preset=preset, seed=seed, trials=trials, tasks=tuple(tasks), name=name
    )


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read(), name=str(path))


# -- task execution ---------------------------------------------------------
#
# A runner returns the TaskResult fields that vary by kind (outputs, verdict
# and optionally max_error, points, summary); run_scenario adds the rest.


def _run_eval(task: Task, scenario: Scenario) -> dict:
    value = evaluate_expression(task.prepared["expr"], scenario.params)
    text = format_value(value)
    return dict(
        outputs={"result": text, "value_kind": value_kind(value)},
        verdict="pass",
        summary=f"{task.options['expr']} = {text}",
    )


def _run_commutator(task: Task, scenario: Scenario) -> dict:
    f = evaluate_expression(task.prepared["f"], scenario.params)
    g = evaluate_expression(task.prepared["g"], scenario.params)
    if isinstance(f, Polynomial2) and isinstance(g, Polynomial2):
        value = star_commutator(f, g, scenario.params)
    elif isinstance(f, complex) or isinstance(g, complex):
        value = 0j  # constants are central; c * g - g * c could overflow to nan
    else:
        value = _star(f, g, scenario.params) - _star(g, f, scenario.params)
    text = format_value(value)
    return dict(
        outputs={"result": text},
        verdict="pass",
        summary=f"[{task.options['f']}, {task.options['g']}] = {text}",
    )


def _run_tmap(task: Task, scenario: Scenario) -> dict:
    value = evaluate_expression(task.prepared["expr"], scenario.params)
    if isinstance(value, complex):
        out = value
    elif isinstance(value, Polynomial2):
        out = tmap_poly(value, scenario.params)
    else:
        out = tmap_wave(value, scenario.params)
    text = format_value(out)
    return dict(outputs={"result": text}, verdict="pass", summary=f"T({task.options['expr']}) = {text}")


def _run_equivalence(task: Task, scenario: Scenario) -> dict:
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
    return dict(
        outputs={"residual": residual, "tolerance": tol},
        verdict="pass" if ok else "fail",
        max_error=residual,
        summary=f"T(f *_M g) vs T(f) * T(g): residual {residual:.3e} (tol {tol:.1e})",
    )


def _run_roi(which: str, kernel, task: Task, scenario: Scenario) -> dict:
    """The RoI task for one state family: `which` is the family that
    roi_diagonal walks (also the noun in the summary), `kernel` its
    closed-form kernel."""
    tol = task.prepared["tol"]
    p1, p2, amp = roi_diagonal(which, scenario.params, np.linspace(*task.prepared["grid"]))
    dev = np.hypot(amp.real - 1.0, amp.imag)  # abs(amp - 1.0), bit for bit
    worst = max(0.0, float(np.fmax.reduce(dev)))  # a nan deviation never raises the max
    points = {"p1": p1, "p2": p2, "pp1": p1, "pp2": p2, "amp_re": amp.real, "amp_im": amp.imag,
              "ref_re": 1.0, "ref_im": 0.0, "abs_error": dev}
    resolves = worst <= tol
    return dict(
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


def _run_fock_check(task: Task, scenario: Scenario) -> dict:
    from ..fockspace import overlap_vs_closedform

    comp = overlap_vs_closedform(
        task.prepared["z"], task.prepared["p"], scenario.params.theta, task.prepared["n"]
    )
    tol = task.prepared["tol"]
    ok = comp.abs_error <= tol
    return dict(
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


def _run_verify_all(task: Task, scenario: Scenario) -> dict:
    results = run_suites(task.prepared["suites"], seed=scenario.seed, trials=scenario.trials)
    ok = all(suite.passed for suite in results)
    return dict(
        outputs={
            "suites": [
                {"name": s.name, "passed": s.passed, "checks": [asdict(c) for c in s.checks]}
                for s in results
            ]
        },
        verdict="pass" if ok else "fail",
        max_error=max([0.0] + [suite.max_error for suite in results]),
        summary=f"verification suites {','.join(task.prepared['suites'])}: "
        + ("all passed" if ok else "FAILURES"),
    )


#: the default of an option that a task must be given
REQUIRED = object()

_EXPR = (lambda text: parse_expression(text), REQUIRED)
_ROI = {"grid": (parse_grid, "-2:2:20"), "tol": (_tolerance, "1e-12")}

#: task kind -> ({option: (converter, default text, REQUIRED or None)}, runner).
#: The one definition of every task kind, read by prepare_task, run_scenario
#: and the CLI.  Engine functions are called by their module-global names at
#: call time, so a rebinding of those names (such as perfbench's tracer)
#: reaches them.
TASKS = {
    "eval": ({"expr": _EXPR}, _run_eval),
    "commutator": ({"f": _EXPR, "g": _EXPR}, _run_commutator),
    "tmap": ({"expr": _EXPR}, _run_tmap),
    "equivalence": ({"f": _EXPR, "g": _EXPR, "tol": (_tolerance, None)}, _run_equivalence),
    "position-roi": (_ROI, lambda task, s: _run_roi("position", position_roi_kernel, task, s)),
    "coherent-roi": (_ROI, lambda task, s: _run_roi("coherent", coherent_roi_kernel, task, s)),
    "fock-check": (
        {
            "n": (int, "64"),
            "z": (parse_complex_literal, "0.3+0.2i"),
            "p": (parse_complex_literal, "0.5-0.7i"),
            "tol": (_tolerance, "1e-6"),
        },
        _run_fock_check,
    ),
    "verify-all": ({"suites": (_suite_names, ",".join(SUITE_NAMES))}, _run_verify_all),
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
            fields = TASKS[task.kind][1](task, scenario)
        except EngineError as exc:
            fields = dict(outputs={"error": str(exc)}, verdict="error", summary=f"error: {exc}")
            report.failed = True
        seconds = time.perf_counter() - t0
        report.tasks.append(
            TaskResult(kind=task.kind, inputs=dict(task.options), seconds=seconds, **fields)
        )
        if report.failed:
            break
    return report
