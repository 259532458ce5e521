"""Command-line interface.

Subcommands:
    eval <expr>                 evaluate an expression ('**' is the star product)
    verify [--suite ...]        run the randomized verification suites
    kernel position|coherent    resolution-of-identity kernel on a grid
    run <scenario-file>         run a scenario and emit its report

Exit codes: 0 = all pass, 1 = finding (a predicted non-resolution),
2 = error or tolerance failure.
"""

from __future__ import annotations

import argparse
import sys

from ..errors import EngineError
from ..suites import SUITE_NAMES, run_suites
from .evaluate import evaluate_expression, value_kind
from .format import format_value
from .parser import parse_expression
from .report import FORMATS, emit_report, exit_code
from .scenario import TASKS, Scenario, build_params, load_scenario, prepare_task, run_scenario


def _add_param_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--theta", type=float, default=1.0, help="noncommutativity scale (default 1)")
    sub.add_argument("--phi11", default="0", help="complex literal, e.g. 0.2 or -1i")
    sub.add_argument("--phi12", default="0", help="complex literal")
    sub.add_argument("--phi22", default="0", help="complex literal")
    sub.add_argument(
        "--preset", choices=("moyal", "voros"), help="overrides the phi flags when given"
    )


def _write(payload: bytes, out: str | None):
    if out:
        with open(out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()


def _cmd_eval(args) -> int:
    params = build_params(args.theta, args.preset, vars(args))
    value = evaluate_expression(parse_expression(args.expr), params)
    print(format_value(value))
    if args.verbose:
        print(f"# kind: {value_kind(value)}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    results = run_suites(names, seed=args.seed, trials=args.trials)
    all_ok = True
    for suite in results:
        for check in suite.checks:
            status = "PASS" if check.passed else "FAIL"
            all_ok = all_ok and check.passed
            line = (
                f"[{status}] {suite.name}.{check.name}: "
                f"max_error={check.max_error:.3e} tol={check.tolerance:.1e}"
            )
            if check.detail:
                line += f"  ({check.detail})"
            print(line)
    print("verify:", "all checks passed" if all_ok else "FAILURES detected")
    return 0 if all_ok else 2


def _cmd_kernel(args) -> int:
    params = build_params(args.theta, args.preset, vars(args))
    given = {"grid": args.grid, "tol": args.tol}
    options = {key: str(value) for key, value in given.items() if value is not None}
    task = prepare_task(f"{args.which}-roi", options, line=0)
    scenario = Scenario(
        params=params,
        preset=args.preset,
        seed=0,
        trials=None,
        tasks=(task,),
        name=f"<kernel {args.which}>",
    )
    report = run_scenario(scenario)
    _write(emit_report(report, args.format, include_timings=args.timings), args.out)
    return exit_code(report)


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    report = run_scenario(scenario)
    _write(emit_report(report, args.format, include_timings=args.timings), args.out)
    return exit_code(report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genstar",
        description="Star-product engine: evaluate expressions, verify the algebra, "
        "and compute identity-resolution kernels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an expression")
    p_eval.add_argument("expr")
    p_eval.add_argument("--verbose", action="store_true")
    _add_param_flags(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_kernel = sub.add_parser("kernel", help="identity-resolution kernel on a grid")
    p_kernel.add_argument("which", choices=("position", "coherent"))
    roi = TASKS["position-roi"][0]  # the same options and defaults as coherent-roi
    p_kernel.add_argument(
        "--grid",
        help=f"min:max:count on both momentum axes (default {roi['grid'][1]}; "
        f"write --grid={roi['grid'][1]} for negative bounds)",
    )
    p_kernel.add_argument(
        "--tol", type=float, help=f"largest |amp - 1| that passes (default {roi['tol'][1]})"
    )
    p_kernel.add_argument("--format", choices=FORMATS, default="text")
    p_kernel.add_argument("--out", default=None)
    p_kernel.add_argument("--timings", action="store_true")
    _add_param_flags(p_kernel)
    p_kernel.set_defaults(func=_cmd_kernel)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--format", choices=FORMATS, default="json")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--timings", action="store_true", help="emit wall-clock timings "
                       "(breaks byte-for-byte report stability)")
    p_run.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
