"""Expression front end, scenario runner, report emitter, CLI."""

import cmath
import csv
import hashlib
import importlib
import io
import json
import math
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genstar import EngineError, Polynomial2, WaveSum, make_params, preset_params
from genstar.exprio import (
    ParseError,
    Report,
    ScenarioError,
    TaskResult,
    emit_report,
    evaluate_expression,
    exit_code,
    format_value,
    load_scenario,
    parse_complex_literal,
    parse_expression,
    parse_scenario,
    pretty,
    run_scenario,
    tokenize,
)
from genstar.exprio import cli
from genstar.exprio.cli import main
from genstar.exprio.report import CSV_HEADER
from genstar.exprio.scenario import prepare_task
from genstar.suites import SUITE_NAMES

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

#: sha256 of emit_report(run_scenario(parse_scenario(text, name=<file name>)), fmt)
#: for the golden scenarios, pinned so that no refactor moves a golden report
#: by a single byte (recorded with CPython 3.11 and numpy on x86-64 Linux)
GOLDEN_SHA256 = {
    ("generic_phi_finding.scn", "json"): "f3024c457f40e67a1ddb4e3fe0d25c6654a1e30416d5b12fe79bad6137f4753a",
    ("generic_phi_finding.scn", "csv"): "cf15bdd5cba38993cbedab2540b7c59e26b0098c56245f05956e8f53addcda94",
    ("generic_phi_finding.scn", "text"): "bd9cb45752b8a850880d8fb8d9850bf0bb0dd4038b135e23b2dd62883cbc2812",
    ("moyal_position_pass.scn", "json"): "37ad035160afaaa764c0c809766b0c607f1136052b9290fa354549508dda93d6",
    ("moyal_position_pass.scn", "csv"): "c37b8ab14563b018f3937bce6b4fe675544c75fa9c4ac859cf38f86e2d075cc1",
    ("moyal_position_pass.scn", "text"): "12b97aede59ae2efe05be3f49ffc79defa477a21943943799b7f42fed626b056",
    ("voros_coherent_pass.scn", "json"): "2a789a865054807261c49cb604458fd582d9be3999836f4f6dbf942712566e2c",
    ("voros_coherent_pass.scn", "csv"): "d3532cd680e0d79d6810cc36dffdb70d0a6fbdfc4426c82e4edb89930528ecf5",
    ("voros_coherent_pass.scn", "text"): "5f875ef5abc24a2387fbf924c3e7f2f2aa22369a33613d826eea657e42c537f5",
}

# round-trip corpus: parse -> pretty -> parse must reproduce the AST
CORPUS = [
    "x1",
    "x2",
    "z",
    "zbar",
    "i",
    "2",
    "2.5",
    "1.5i",
    "0.25",
    "1+2i",
    "1 - 2i",
    "-x1",
    "x1 + x2",
    "x1 - x2",
    "x1*x2",
    "2*x1 + 3*x2",
    "x1^2",
    "x1^2*x2^3",
    "(1+2i)*x1^2*x2 + 3",
    "x1 ** x2",
    "x1 ** x2 ** x1",
    "x1*x2 ** x2*x1",
    "x1 + x2 ** x1",
    "(x1 + x2) ** (x1 - x2)",
    "-x1^2 + 2*x2",
    "-(x1 + x2)",
    "exp(i*x1)",
    "exp(i*x1) ** exp(i*x2)",
    "exp(i*(2*x1 - x2))",
    "exp((1+2i)*x1 - 0.5i*x2)",
    "2*exp(i*x1) + 3*exp(-i*x2)",
    "z ** zbar",
    "exp(z) ** exp(zbar)",
    "exp(0.5*z - 0.25*zbar)",
    "(x1 ** x2) ** x1",
    "x1^2 ** x2^2",
    "1.5e-3*x1",
    "exp(i*x1)^2",
]


def test_corpus_is_large_enough():
    assert len(CORPUS) >= 30


@pytest.mark.parametrize("text", CORPUS)
def test_round_trip(text):
    first = parse_expression(text)
    printed = pretty(first.root)
    second = parse_expression(printed)
    assert second.root == first.root
    assert second.frame == first.frame


def test_a_3000_term_sum_evaluates_and_round_trips():
    # an operator chain is one node, so ==, hash, evaluation and printing
    # all walk it without recursing per term
    text = " + ".join(["x1", "2*x2", "-i"] * 1000) + " - x1"
    expr = parse_expression(text)
    assert pretty(expr.root) == text
    assert pretty(parse_expression(pretty(expr.root)).root) == text
    again = parse_expression(text).root
    assert again == expr.root and hash(again) == hash(expr.root)
    assert parse_expression(pretty(expr.root)).root == expr.root
    value = evaluate_expression(expr, make_params(1.0))
    assert format_value(value) == "999*x1 + 2000*x2 - 1000i"


@pytest.mark.parametrize("text", CORPUS)
def test_value_survives_format_cycle(text):
    params = make_params(1.0, phi11=0.1, phi12=0.2j, phi22=-0.3)
    value = evaluate_expression(parse_expression(text), params)
    printed = format_value(value)
    again = evaluate_expression(parse_expression(printed), params)
    if isinstance(value, Polynomial2):
        assert isinstance(again, (Polynomial2, complex))
        if isinstance(again, complex):
            assert value.total_degree() <= 0
            assert abs(value.coefficient(0, 0) - again) < 1e-12
        else:
            assert value.max_diff(again) < 1e-12
    elif isinstance(value, WaveSum):
        if isinstance(again, complex):  # a frequency-zero sum prints as a constant
            assert abs(value.evaluate(0, 0) - again) < 1e-12
        else:
            for x in ((0.0, 0.0), (0.3, -0.7), (1.1, 0.4)):
                assert abs(value.evaluate(*x) - again.evaluate(*x)) < 1e-10
    else:
        assert abs(value - again) < 1e-12


def test_star_binds_between_add_and_mul():
    e = parse_expression("x1 + x2 ** x1*x2")
    # parsed as x1 + (x2 ** (x1*x2))
    ((add, star),) = e.root.rest
    assert add == "+"
    ((op, product),) = star.rest
    assert op == "**"
    assert [op for op, _ in product.rest] == ["*"]


@pytest.mark.parametrize("op", ["+", "-", "**", "*"])
def test_a_parenthesized_chain_in_first_place_joins_the_chain(op):
    s = f" {op} " if op != "*" else op
    flat = parse_expression(f"x1{s}x2{s}x1")
    nested = parse_expression(f"(x1{s}x2){s}x1")
    assert nested == flat
    assert [o for o, _ in nested.root.rest] == [op, op]  # one chain node, two operators
    assert pretty(nested.root) == pretty(flat.root) == f"x1{s}x2{s}x1"
    # in any other place the parentheses stay
    assert pretty(parse_expression(f"x1{s}(x2{s}x1)").root) == f"x1{s}(x2{s}x1)"


def test_eval_star_polynomials():
    value = evaluate_expression(parse_expression("x1 ** x2"), preset_params("moyal", 1.0))
    want = Polynomial2({(1, 1): 1.0, (0, 0): 0.5j})
    assert value.max_diff(want) < 1e-15


def test_eval_star_waves():
    value = evaluate_expression(
        parse_expression("exp(i*x1) ** exp(i*x2)"), preset_params("moyal", 1.0)
    )
    assert isinstance(value, WaveSum)
    assert len(value.terms) == 1
    assert value.terms[0].amplitude == pytest.approx(cmath.exp(-0.5j))
    assert value.terms[0].wavevector == (1 + 0j, 1 + 0j)


def test_eval_rejects_poly_times_wave():
    from genstar.exprio import EvaluationError

    with pytest.raises(EvaluationError):
        evaluate_expression(parse_expression("x1*exp(i*x1)"), make_params(1.0))
    with pytest.raises(EvaluationError):
        evaluate_expression(parse_expression("x1 ** exp(i*x1)"), make_params(1.0))


@pytest.mark.parametrize(
    "text, message",
    [
        ("x1 * exp(i*x1)", "cannot multiply a polynomial by an exponential sum (right operand: exp(i*x1))"),
        ("exp(i*x1) ** x2^2", "cannot star a polynomial with an exponential sum (right operand: x2^2)"),
        ("exp(exp(1000))", "numeric overflow: math range error in exp(1000)"),
        ("x1 + (1 + 2i)^2000", "numeric overflow: complex exponentiation in (1 + 2i)^2000"),
        # a long operand is cut to 60 characters
        ("exp(1000" + " + x1" * 20 + ")", "numeric overflow: math range error in exp(1000" + " + x1" * 10 + " …"),
    ],
)
def test_evaluation_errors_name_the_operand_at_fault(text, message):
    from genstar.exprio import EvaluationError

    with pytest.raises(EvaluationError) as err:
        evaluate_expression(parse_expression(text), make_params(1.0))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "bad",
    [
        "exp(x1^2)",
        "exp(x1*x2)",
        "exp(exp(x1))",
        "exp(x1 ** x2)",
        "x1 + z",
        "zbar*x2",
        "x1^-2",
        "x1^0.5",
        "x1^2i",
        "2 +* 3",
        "(x1",
        "x1 ** ",
        "foo",
        "x1 @ x2",
        "exp x1",
    ],
)
def test_diagnostics_carry_position_and_expectations(bad):
    with pytest.raises(ParseError) as err:
        parse_expression(bad)
    assert err.value.line >= 1
    assert err.value.column >= 1
    assert len(err.value.expected) >= 1


@pytest.mark.parametrize(
    "text, line, column, message",
    [
        ("x1 +\n  x2 )", 2, 6, "unexpected trailing input ')'"),
        ("exp(x1", 1, 7, "unclosed exp("),
    ],
)
def test_parse_error_positions(text, line, column, message):
    with pytest.raises(ParseError) as err:
        parse_expression(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value).startswith(message + " at line")


@pytest.mark.parametrize("text, column", [("2 + 7e400", 5), ("x1*1e400", 4), ("x2 -\n 1e999i", 2)])
def test_nonfinite_literal_is_a_parse_error_at_the_literal(text, column):
    with pytest.raises(ParseError) as err:
        parse_expression(text)
    assert (err.value.line, err.value.column) == (text.count("\n") + 1, column)
    assert str(err.value).startswith("number literal must be finite")


def test_cli_eval_nonfinite_literal_warns_nothing():
    proc = subprocess.run(
        [sys.executable, "-m", "genstar", "eval", "x1*1e400"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: number literal must be finite at line 1, column 4")
    assert "RuntimeWarning" not in proc.stderr


def _reference_tokenize(text: str) -> list:
    """The character-loop tokenizer that the one-pattern tokenizer replaced,
    kept as its oracle."""
    from genstar.exprio.parser import Token

    number_re = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?i?")
    name_re = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        m = number_re.match(text, i)
        if m:
            word = m.group(0)
            if word.endswith("i"):
                value = complex(0.0, float(word[:-1]))
            else:
                value = complex(float(word), 0.0)
            tokens.append(Token("number", word, value, line, col))
            i = m.end()
            col += len(word)
            continue
        m = name_re.match(text, i)
        if m:
            word = m.group(0)
            tokens.append(Token("name", word, None, line, col))
            i = m.end()
            col += len(word)
            continue
        if text.startswith("**", i):
            tokens.append(Token("op", "**", None, line, col))
            i += 2
            col += 2
            continue
        if ch in "+-*^()":
            tokens.append(Token("op", ch, None, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(
            f"unexpected character {ch!r}",
            line,
            col,
            expected=("number", "variable", "operator", "'('"),
        )
    tokens.append(Token("end", "", None, line, col))
    return tokens


#: pieces of grammar text, unusual whitespace and digits, and garbage
_FRAGMENTS = st.sampled_from(
    ["x1", "x2", "z", "zbar", "i", "exp", "(", ")", "+", "-", "*", "**", "^", "2", "1.5", ".5",
     "7.", "1e3", "2.5e-3i", "1e", "1.e+", "e5", "_q9", " ", "  ", "\t", "\r", "\n", "\r\n",
     "\xa0", "\x1c", " ", " ", "٣", "١.٥", "१", "１", "@", "é",
     "$", "\x00", "1e400", "9i"]
)
_TOKENIZER_TEXT = st.one_of(
    st.lists(st.one_of(_FRAGMENTS, st.text(max_size=2)), max_size=16).map("".join),
    st.text(max_size=12),
)


def _outcome(fn, text):
    try:
        return fn(text)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.column, exc.expected)


@settings(max_examples=400, deadline=None)
@given(text=_TOKENIZER_TEXT)
def test_tokenize_matches_the_character_loop_oracle(text):
    assert _outcome(tokenize, text) == _outcome(_reference_tokenize, text)


def test_complex_literal_parsing():
    assert parse_complex_literal("2") == 2
    assert parse_complex_literal("-0.5i") == -0.5j
    assert parse_complex_literal("1+2i") == 1 + 2j
    assert parse_complex_literal("-1-1i") == -1 - 1j
    with pytest.raises(ScenarioError):
        parse_complex_literal("x1")
    with pytest.raises(ScenarioError):
        parse_complex_literal("2 +")


# -- scenarios ----------------------------------------------------------------


def test_scenario_parsing_and_params():
    s = parse_scenario(
        """
        # a comment
        theta = 2.0
        phi12 = 0.5i
        seed = 7

        task eval expr="x1 ** x2"
        task position-roi grid=-1:1:5 tol=1e-10
        """
    )
    assert s.params.theta == 2.0
    assert s.params.phi12 == 0.5j
    assert s.seed == 7
    assert [t.kind for t in s.tasks] == ["eval", "position-roi"]
    assert s.tasks[1].prepared["grid"] == (-1.0, 1.0, 5)


def test_scenario_rejects_unknown_key():
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_scenario("thetaa = 1")


def test_scenario_rejects_unknown_task_kind():
    with pytest.raises(ScenarioError, match="unknown task kind"):
        parse_scenario("task frobnicate x=1")


def test_scenario_rejects_preset_phi_conflict():
    with pytest.raises(ScenarioError, match="conflicts"):
        parse_scenario("preset = voros\nphi11 = 1\ntask eval expr=x1")


def test_scenario_rejects_bad_grid():
    with pytest.raises(ScenarioError, match="grid"):
        parse_scenario("task position-roi grid=1:2")
    with pytest.raises(ScenarioError, match="grid"):
        parse_scenario("task position-roi grid=2:1:5")


def test_scenario_validates_expressions_before_running():
    with pytest.raises(ScenarioError, match="expr"):
        parse_scenario('task eval expr="x1 +"')


def test_scenario_unknown_task_option():
    with pytest.raises(ScenarioError, match="unknown options"):
        parse_scenario("task eval expr=x1 bogus=3")


#: what prepare_task makes of each task kind given its required options only:
#: the defaults that README "Scenario files" lists
_X1, _X2 = parse_expression("x1"), parse_expression("x2")
TASK_DEFAULTS = [
    ("eval", {"expr": "x1"}, {"expr": _X1}),
    ("commutator", {"f": "x1", "g": "x2"}, {"f": _X1, "g": _X2}),
    ("tmap", {"expr": "x1"}, {"expr": _X1}),
    ("equivalence", {"f": "x1", "g": "x2"}, {"f": _X1, "g": _X2, "tol": None}),
    ("position-roi", {}, {"grid": (-2.0, 2.0, 20), "tol": 1e-12}),
    ("coherent-roi", {}, {"grid": (-2.0, 2.0, 20), "tol": 1e-12}),
    ("fock-check", {}, {"n": 64, "z": 0.3 + 0.2j, "p": 0.5 - 0.7j, "tol": 1e-6}),
    ("verify-all", {}, {"suites": SUITE_NAMES}),
]


@pytest.mark.parametrize("kind, options, prepared", TASK_DEFAULTS)
def test_task_kind_defaults_are_pinned(kind, options, prepared):
    assert prepare_task(kind, options, line=1).prepared == prepared


@pytest.mark.parametrize(
    "text, message",
    [
        ("task eval", "line 1: task eval needs expr=..."),
        ("task equivalence f=x1", "line 1: task equivalence needs g=..."),
        ("task fock-check n=1", "line 1: fock-check needs n >= 2"),
        ("task fock-check n=2049", "line 1: fock-check needs n >= 2 and n <= 2048"),
        ("task verify-all suites=roi,bogus", "line 1: task verify-all option suites: unknown suite 'bogus'"),
        ("task coherent-roi grid=1:2", "line 1: task coherent-roi option grid: bad grid '1:2'"),
        # count^2 grid points stay within the bound on fock-check's n^2 entries
        ("task position-roi grid=-1:1:2049", "grid: bad grid '-1:1:2049'; need count <= 2048"),
        ("task position-roi grid=-1:1:100000000", "bad grid '-1:1:100000000'; need count <= 2048"),
        ("task coherent-roi grid=-1e308:1e308:2", "bad grid '-1e308:1e308:2'; need count <= 2048 and max - min"),
        ("task fock-check z=x1", "line 1: task fock-check option z: bad complex literal 'x1'"),
        ("task position-roi tol=abc", "line 1: task position-roi option tol: tol = 'abc' is not a valid float"),
        ('task eval expr="x1^1e400"', "line 1: task eval option expr: exponent must be a non-negative integer"),
        ("task fock-check tol=nan", "line 1: task fock-check option tol: tol = 'nan' is not a valid float"),
        ("task coherent-roi tol=-1", "line 1: task coherent-roi option tol: tol = '-1' is not a valid float"),
        ("task equivalence f=x1 g=x2 tol=inf", "line 1: task equivalence option tol: tol = 'inf'"),
    ],
)
def test_task_option_errors_name_line_task_and_option(text, message):
    with pytest.raises(ScenarioError, match=re.escape(message)):
        parse_scenario(text)


def test_run_scenario_task_error_aborts_and_preserves():
    s = parse_scenario(
        """
        theta = 0.0

        task eval expr="x1 + x2"
        task eval expr="z ** zbar"    # theta = 0 makes the z-frame star singular
        task eval expr="x1"
        """
    )
    report = run_scenario(s)
    assert report.failed
    assert len(report.tasks) == 2  # third task never ran
    assert report.tasks[0].verdict == "pass"
    assert report.tasks[1].verdict == "error"
    assert exit_code(report) == 2


def test_golden_moyal_scenario_passes():
    report = run_scenario(load_scenario(SCENARIO_DIR / "moyal_position_pass.scn"))
    assert [t.verdict for t in report.tasks] == ["pass", "pass"]
    assert exit_code(report) == 0


def test_golden_voros_scenario_passes():
    report = run_scenario(load_scenario(SCENARIO_DIR / "voros_coherent_pass.scn"))
    assert [t.verdict for t in report.tasks] == ["pass", "pass"]
    assert exit_code(report) == 0


def test_golden_generic_phi_scenario_is_finding():
    report = run_scenario(load_scenario(SCENARIO_DIR / "generic_phi_finding.scn"))
    assert report.tasks[0].verdict == "finding"
    assert report.tasks[0].outputs["finding"] == "fail-to-resolve"
    assert not report.failed
    assert exit_code(report) == 1


def test_verify_all_task_passes_under_moyal():
    s = parse_scenario("preset = moyal\ntrials = 10\ntask verify-all")
    report = run_scenario(s)
    assert report.tasks[0].verdict == "pass"
    doc = json.loads(emit_report(report, "json").decode())
    suites = doc["tasks"][0]["outputs"]["suites"]
    assert [s_["name"] for s_ in suites] == ["algebra", "equivalence", "roi", "fock"]
    assert all(c["passed"] for s_ in suites for c in s_["checks"])


def test_fock_check_task():
    s = parse_scenario('task fock-check n=64 z="0.3+0.2i" p="0.5-0.7i" tol=1e-6')
    report = run_scenario(s)
    assert report.tasks[0].verdict == "pass"
    assert report.tasks[0].max_error < 1e-6


def test_commutator_and_tmap_tasks():
    s = parse_scenario(
        """
        theta = 1.0
        task commutator f="x1" g="x2"
        task tmap expr="x1^2"
        """
    )
    report = run_scenario(s)
    assert report.tasks[0].outputs["result"] == "i"
    assert report.tasks[1].outputs["result"] == "x1^2"  # Phi = 0 leaves polynomials alone


def test_fock_check_passes_at_a_tolerance_equal_to_its_error():
    # the verdict rule of every other check: pass on error <= tol
    error = run_scenario(parse_scenario("task fock-check")).tasks[0].max_error
    report = run_scenario(parse_scenario(f"task fock-check tol={error!r}"))
    assert report.tasks[0].max_error == error
    assert report.tasks[0].verdict == "pass"


@pytest.mark.parametrize(
    "task, outputs",
    [
        ('equivalence f="x1^2 + x2" g="x1*x2"', {"residual": 0.0, "tolerance": 1e-10}),
        ('tmap expr="2"', {"result": "2"}),
        ('tmap expr="exp(i*x1)"', {"result": "0.7788007830714049*exp(i*x1)"}),
        ('commutator f="2" g="x1"', {"result": "0"}),
        ('eval expr="2 + exp(i*x1)"', {"result": "2 + exp(i*x1)", "value_kind": "wave"}),
        ('eval expr="2 ** 3i"', {"result": "6i", "value_kind": "scalar"}),
    ],
)
def test_voros_tasks_on_constants_and_mixed_operands(task, outputs):
    report = run_scenario(parse_scenario(f"preset = voros\ntask {task}\n"))
    assert report.tasks[0].verdict == "pass"
    assert report.tasks[0].outputs == outputs


@pytest.mark.parametrize(
    "task, error",
    [
        ('equivalence f="x1" g="exp(i*x1)"', "equivalence needs two polynomials or two exponential sums"),
        ('eval expr="x1 + exp(i*x1)"', "cannot add a polynomial and an exponential sum (right operand: exp(i*x1))"),
        # '-' evaluates its right operand first; '+' its left operand first
        ('eval expr="exp(1000) - (x1 + exp(i*x1))"',
         "cannot add a polynomial and an exponential sum (right operand: exp(i*x1))"),
        ('eval expr="exp(1000) + (x1 + exp(i*x1))"', "numeric overflow: math range error in exp(1000)"),
        ('eval expr="x1 + 10^400 - exp(1000)"', "numeric overflow: math range error in exp(1000)"),
        ('eval expr="x1 + 10^400 + exp(1000)"', "numeric overflow: complex exponentiation in 10^400"),
    ],
)
def test_voros_task_errors(task, error):
    report = run_scenario(parse_scenario(f"preset = voros\ntask {task}\n"))
    assert report.tasks[0].verdict == "error"
    assert report.tasks[0].outputs == {"error": error}


# -- reports ------------------------------------------------------------------


def test_empty_scenario_emits_valid_json():
    report = run_scenario(parse_scenario("theta = 1.0"))
    doc = json.loads(emit_report(report, "json").decode())
    assert doc["tasks"] == []
    assert doc["engine_version"]
    assert "scenario" in doc


def test_json_reports_are_byte_identical_for_fixed_seed():
    path = SCENARIO_DIR / "voros_coherent_pass.scn"
    a = emit_report(run_scenario(load_scenario(path)), "json")
    b = emit_report(run_scenario(load_scenario(path)), "json")
    assert a == b


@pytest.mark.parametrize("name, fmt", sorted(GOLDEN_SHA256))
def test_golden_report_bytes_are_pinned(name, fmt):
    text = (SCENARIO_DIR / name).read_text(encoding="utf-8")
    payload = emit_report(run_scenario(parse_scenario(text, name=name)), fmt)
    assert hashlib.sha256(payload).hexdigest() == GOLDEN_SHA256[(name, fmt)]


def test_timings_are_suppressed_by_default():
    report = run_scenario(parse_scenario('task eval expr="x1"'))
    doc = json.loads(emit_report(report, "json").decode())
    assert doc["tasks"][0]["seconds"] is None
    doc = json.loads(emit_report(report, "json", include_timings=True).decode())
    assert doc["tasks"][0]["seconds"] > 0


def test_csv_has_one_row_per_grid_point():
    s = parse_scenario("preset = moyal\ntask position-roi grid=-1:1:3")
    payload = emit_report(run_scenario(s), "csv").decode()
    lines = payload.strip().split("\n")
    assert len(lines) == 1 + 9  # header plus 3x3 grid points
    assert lines[0].startswith("task,kind,p1,p2")


def test_csv_single_row_for_non_grid_task():
    s = parse_scenario('task eval expr="x1 ** x2"')
    payload = emit_report(run_scenario(s), "csv").decode()
    lines = payload.strip().split("\n")
    assert len(lines) == 2


def test_text_report_mentions_verdicts():
    report = run_scenario(load_scenario(SCENARIO_DIR / "generic_phi_finding.scn"))
    text = emit_report(report, "text").decode()
    assert "FINDING" in text
    assert "exit code 1" in text


def test_unknown_format_raises():
    from genstar import ValidationError

    report = Report(scenario={}, engine_version="x")
    with pytest.raises(ValidationError):
        emit_report(report, "yaml")


def _oracle_report_bytes(report: Report, fmt: str) -> bytes:
    """The emitter that the column writer replaced, kept as its oracle: the
    points as a list of dicts through json.dumps(sort_keys=True, indent=2),
    and one csv.writer row per point."""

    def point_dicts(points):
        rows = len(points["p1"])
        cols = {k: v.tolist() if hasattr(v, "tolist") else [v] * rows for k, v in points.items()}
        return [{k: col[i] for k, col in cols.items()} for i in range(rows)]

    if fmt == "json":
        tasks = []
        for t in report.tasks:
            outputs = dict(t.outputs)
            if t.points:
                outputs["points"] = point_dicts(t.points)
            tasks.append({"kind": t.kind, "inputs": t.inputs, "outputs": outputs,
                          "verdict": t.verdict, "max_error": t.max_error, "seconds": None})
        doc = {"scenario": report.scenario, "engine_version": report.engine_version,
               "failed": report.failed, "tasks": tasks}
        return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for idx, t in enumerate(report.tasks):
        if t.points:
            for pt in point_dicts(t.points):
                writer.writerow([idx, t.kind, *(pt[k] for k in CSV_HEADER[2:-2]), t.verdict, ""])
        else:
            error = t.max_error if t.max_error is not None else ""
            writer.writerow([idx, t.kind, "", "", "", "", "", "", "", "", error, t.verdict, t.summary])
    return buf.getvalue().encode()


_FLOATS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]))

#: user text, often holding the "@points..." strings at which the JSON
#: emitter splices in the points blocks
_USER_TEXT = st.one_of(
    st.text(max_size=8),
    st.builds(lambda pre, tail, post: pre + "@points" + "@" * tail + post,
              st.sampled_from(["", '"', "\\", "x"]), st.integers(0, 3), st.sampled_from(["", '"', "x"])),
)


@st.composite
def _point_columns(draw):
    n = draw(st.integers(0, 8))  # an empty table is "points": []
    column = st.lists(_FLOATS, min_size=n, max_size=n).map(np.array)
    # values that repeat, as a grid value does along p1, are rendered once
    pool = draw(st.lists(_FLOATS, min_size=1, max_size=3))
    p1 = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    p2 = draw(column)
    return {"p1": p1, "p2": p2, "pp1": p1, "pp2": p2 if draw(st.booleans()) else p2.copy(),
            "amp_re": draw(column), "amp_im": draw(column), "ref_re": draw(_FLOATS),
            "ref_im": draw(st.one_of(_FLOATS, column)), "abs_error": draw(column)}


@st.composite
def _task_results(draw):
    if draw(st.booleans()):  # an RoI task: its points are columns
        verdict = draw(st.sampled_from(["pass", "finding"]))
        worst = draw(_FLOATS)
        return TaskResult(
            kind=draw(st.sampled_from(["position-roi", "coherent-roi"])),
            inputs={"grid": draw(_USER_TEXT)},
            outputs={"resolves_identity": verdict == "pass", "max_deviation": worst,
                     "finding": None if verdict == "pass" else "fail-to-resolve"},
            verdict=verdict, max_error=worst, points=draw(_point_columns()),
            summary=draw(_USER_TEXT),
        )
    return TaskResult(
        kind=draw(st.sampled_from(["eval", "equivalence", "fock-check"])),
        inputs={"expr": draw(_USER_TEXT)},
        outputs={"result": draw(_USER_TEXT)},
        verdict=draw(st.sampled_from(["pass", "fail", "error", "finding"])),
        max_error=draw(st.one_of(st.none(), _FLOATS)),
        summary=draw(_USER_TEXT),
    )


@settings(max_examples=100, deadline=None)
@given(name=_USER_TEXT, tasks=st.lists(_task_results(), max_size=4), failed=st.booleans())
def test_column_emitter_writes_the_bytes_of_the_list_of_dicts_oracle(name, tasks, failed):
    report = Report(scenario={"name": name, "params": {"theta": 1.0}}, engine_version="0.1.0",
                    tasks=tasks, failed=failed)
    for fmt in ("json", "csv"):
        assert emit_report(report, fmt) == _oracle_report_bytes(report, fmt)


@st.composite
def _grid_columns(draw):
    """Columns over an axis x axis grid, p1 outermost, as roi_diagonal lays
    them out: every value of p1 and p2 repeats, and the amplitude columns
    are one value or drawn from a small pool."""
    axis = np.array(draw(st.lists(_FLOATS, min_size=1, max_size=20)))
    p1, p2 = np.repeat(axis, axis.size), np.tile(axis, axis.size)
    pool = draw(st.lists(_FLOATS, min_size=1, max_size=4))
    amplitude = st.one_of(
        st.sampled_from(pool),
        st.lists(st.sampled_from(pool), min_size=p1.size, max_size=p1.size).map(np.array),
    )
    return {"p1": p1, "p2": p2, "pp1": p1, "pp2": p2, "amp_re": draw(amplitude),
            "amp_im": draw(amplitude), "ref_re": 1.0, "ref_im": 0.0, "abs_error": draw(amplitude)}


@settings(max_examples=100, deadline=None)
@given(points=_grid_columns(), verdict=st.sampled_from(["pass", "finding"]), kind=_USER_TEXT)
def test_column_emitter_writes_the_oracle_bytes_of_grid_shaped_tables(points, verdict, kind):
    task = TaskResult(kind=kind, inputs={}, outputs={"finding": None}, verdict=verdict, points=points)
    report = Report(scenario={"name": "grid"}, engine_version="0.1.0", tasks=[task])
    for fmt in ("json", "csv"):
        assert emit_report(report, fmt) == _oracle_report_bytes(report, fmt)


@pytest.mark.parametrize("task, params", [("coherent-roi", "preset = voros"),
                                          ("position-roi", "phi11 = 0.3+0.1i\nphi12 = 0.1i")])
def test_kernel_reports_on_a_40x40_grid_have_the_oracle_bytes(task, params):
    report = run_scenario(parse_scenario(f"{params}\ntask {task} grid=-3:3:40\n"))
    assert len(report.tasks[0].points["p1"]) == 40 * 40
    for fmt in ("json", "csv"):
        assert emit_report(report, fmt) == _oracle_report_bytes(report, fmt)


# -- CLI ----------------------------------------------------------------------


def test_cli_eval(capsys):
    assert main(["eval", "x1 ** x2", "--theta", "1"]) == 0
    assert capsys.readouterr().out.strip() == "x1*x2 + 0.5i"


def test_cli_eval_voros_wave(capsys):
    code = main(["eval", "exp(i*x1) ** exp(i*x1)", "--preset", "voros"])
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("0.60653065971263")
    assert out.endswith("*exp(2i*x1)")


@pytest.mark.parametrize(
    "text, preset, message",
    [
        # the first text comes from Polynomial2's finiteness check on a star product
        ("(1e200*x1^2) ** (1e200*x2^2)", ["--preset", "voros"],
         "coefficient of (0, 0) must be finite, got (-inf+nanj) (right operand: 1e+200*x2^2)"),
        ("1e200*exp(i*x1) * 1e200*exp(i*x1)", [],
         "wave term (inf+0j) at wavevector ((1-0j), -0j) is not finite (right operand: 1e+200)"),
    ],
)
def test_engine_errors_in_a_chain_step_name_the_operand(text, preset, message, capsys):
    from genstar import ValidationError

    params = preset_params("voros", 1.0) if preset else make_params(1.0)
    with pytest.raises(ValidationError) as err:
        evaluate_expression(parse_expression(text), params)
    assert type(err.value) is ValidationError
    assert str(err.value) == message
    assert main(["eval", text, *preset]) == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"


def test_cli_eval_bad_expression(capsys):
    assert main(["eval", "x1 +"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_exit_codes_for_golden_scenarios(capsys):
    assert main(["run", str(SCENARIO_DIR / "moyal_position_pass.scn"), "--format", "text"]) == 0
    assert main(["run", str(SCENARIO_DIR / "voros_coherent_pass.scn"), "--format", "text"]) == 0
    assert main(["run", str(SCENARIO_DIR / "generic_phi_finding.scn"), "--format", "text"]) == 1
    capsys.readouterr()


def test_cli_grid_past_the_array_bound_is_error(capsys):
    assert main(["kernel", "position", "--preset", "moyal", "--grid=-1:1:100000000"]) == 2
    assert main(["kernel", "coherent", "--grid=-1e308:1e308:2"]) == 2
    err = capsys.readouterr().err
    assert err.count("bad grid") == 2 and "Warning" not in err


def test_cli_out_of_memory_is_error_not_finding(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "evaluate_expression", exhausted)
    assert main(["eval", "(exp(i*x1)+exp(i*x2)+1)^200"]) == 2
    assert capsys.readouterr().err == "error: MemoryError\n"


def test_cli_missing_scenario_is_error(capsys):
    assert main(["run", "no/such/file.scn"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_run_writes_identical_bytes(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    path = str(SCENARIO_DIR / "moyal_position_pass.scn")
    assert main(["run", path, "--out", str(out1)]) == 0
    assert main(["run", path, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "text",
    [
        "task position-roi grid=-1:1:3 tol=abc",
        "seed = x",
        "theta = one",
        "trials = 2.5",
        "task fock-check n=many",
        'task equivalence f="x1" g="x2" tol=small',
    ],
)
def test_cli_run_unparsable_number_is_error(tmp_path, capsys, text):
    path = tmp_path / "bad.scn"
    path.write_text(text + "\n", encoding="utf-8")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: ")
    assert "is not a valid" in err


def test_cli_verify_single_suite(capsys):
    assert main(["verify", "--suite", "roi", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "roi.position-moyal-resolves" in out
    assert "all checks passed" in out


def test_cli_kernel_json(capsys):
    code = main(["kernel", "position", "--preset", "moyal", "--grid=-1:1:3", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    task = doc["tasks"][0]
    assert task["kind"] == "position-roi"
    assert task["outputs"]["resolves_identity"] is True
    assert len(task["outputs"]["kernel"]["Q"]) == 4


def test_cli_kernel_finding_exit_code(capsys):
    code = main(["kernel", "coherent", "--preset", "moyal", "--grid=-1:1:3", "--format", "text"])
    capsys.readouterr()
    assert code == 1  # coherent states do not resolve the identity under Moyal


def test_cli_kernel_amplitude_underflow_is_error(capsys):
    # at |p| = 20 the coherent-state Gaussians are tiny but not 0: Voros resolves
    code = main(["kernel", "coherent", "--preset", "voros", "--grid=-20:20:5", "--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["tasks"][0]["outputs"]["max_deviation"] <= 1e-12
    # Moyal keeps the Gaussian exp(-theta |p|^2 / 2), down to exp(-200): a finding
    args = ["--preset", "moyal", "--theta", "2", "--grid=-10:10:31", "--format", "json"]
    code = main(["kernel", "coherent", *args])
    assert code == 1
    for pt in json.loads(capsys.readouterr().out)["tasks"][0]["outputs"]["points"]:
        want = math.exp(-(pt["p1"] ** 2 + pt["p2"] ** 2))
        assert abs(complex(pt["amp_re"], pt["amp_im"]) - want) <= 1e-12 * want
    # at theta = 2, |p|^2 = 1800 the Gaussian exp(-900) is exactly 0: an error report
    code = main(["kernel", "coherent", "--preset", "voros", "--theta", "2", "--grid=-30:30:3"])
    captured = capsys.readouterr()
    assert code == 2
    assert "exactly 0" in captured.out
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-0.5"])
def test_cli_kernel_rejects_a_tolerance_that_is_not_finite_and_nonnegative(capsys, tol):
    # a nan or negative tol used to turn a kernel that resolves into a finding
    code = main(["kernel", "position", "--preset", "moyal", f"--tol={tol}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: --tol:")
    assert "Traceback" not in captured.out + captured.err


def test_cli_kernel_names_a_bad_flag_by_its_flag(capsys):
    assert main(["kernel", "position", "--grid=bad"]) == 2
    assert capsys.readouterr().err == "error: --grid: bad grid 'bad'; expected min:max:count\n"


@pytest.mark.parametrize("which, preset", [("position", "moyal"), ("coherent", "voros")])
def test_cli_kernel_defaults_match_a_bare_scenario_task(capsys, which, preset):
    code = main(["kernel", which, "--preset", preset, "--format", "json"])
    out = capsys.readouterr().out.encode()
    scenario = parse_scenario(f"preset = {preset}\ntask {which}-roi\n", name=f"<kernel {which}>")
    report = run_scenario(scenario)
    assert out == emit_report(report, "json")
    assert code == exit_code(report) == 0


@pytest.mark.parametrize(
    "argv, scenario",
    [
        (["kernel", "coherent", "--preset", "voros", "--grid=-1e200:1e200:3"], None),
        (["run"], "task fock-check n=16 z=1e200"),
        (["run"], "task fock-check n=16 p=1e200"),
    ],
)
def test_huge_momenta_and_z_are_error_reports(tmp_path, capsys, argv, scenario):
    if scenario is not None:
        path = tmp_path / "huge.scn"
        path.write_text(scenario + "\n", encoding="utf-8")
        argv = [*argv, str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "overflows" in captured.out
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize(
    "expr",
    [
        "1e200*1e200",
        "1e300*1e300 - 1e300*1e300",
        "1e400",
        "exp(1000)",
        "(1e200)^2",
        "x1^1e400",
        "exp(1e300i*1e200)",
        "exp(1e300i ** 1e200)",
    ],
)
def test_cli_eval_nonfinite_scalar_is_error(capsys, expr):
    code = main(["eval", expr])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.out + captured.err


def test_cli_eval_power_past_the_array_bound_is_error(capsys):
    # squaring x1 toward x1^(10^200) would double its array until memory ran out
    start = time.perf_counter()
    assert main(["eval", "x1^1e200"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.err.startswith("error: this power of a 2x1 coefficient box needs more than")
    assert main(["eval", "(x1 - x1)^5000"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_cli_fock_check_past_the_array_bound_is_error(tmp_path, capsys):
    # n = 100000 would ask for N x N complex matrices of 149 GiB
    path = tmp_path / "huge.scn"
    path.write_text("task fock-check n=100000\n", encoding="utf-8")
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: line 1: fock-check needs n >= 2 and n <= 2048\n"
    assert "Traceback" not in captured.out + captured.err


def test_scenario_eval_nonfinite_scalar_is_error_report():
    report = run_scenario(parse_scenario('task eval expr="1e200*1e200"\n'))
    assert report.failed
    assert report.tasks[0].verdict == "error"
    assert "non-finite" in report.tasks[0].outputs["error"]
    assert exit_code(report) == 2


@pytest.mark.parametrize("kind", ["commutator", "equivalence"])
def test_scenario_wave_amplitude_overflow_is_error_report(kind):
    # under Voros the star pair exponent is 820 and the equivalence map's
    # amplitude exponent reaches 1640.25: cmath.exp overflows on both
    text = f'preset = voros\ntask {kind} f="exp(40*x1)" g="exp(41*x1)"\n'
    report = run_scenario(parse_scenario(text))
    assert report.tasks[0].verdict == "error"
    assert "overflows" in report.tasks[0].outputs["error"]
    assert exit_code(report) == 2


def test_cli_eval_wave_amplitude_overflow_is_error(capsys):
    code = main(["eval", "exp(40*x1) ** exp(41*x1)", "--preset", "voros"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize(
    "argv", [["--suite", "roi", "--seed", "-1"], ["--suite", "algebra", "--trials", "0"]]
)
def test_cli_verify_rejects_bad_seed_and_trials(capsys, argv):
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert "PASS" not in captured.out


@pytest.mark.parametrize("header", ["seed = -1", "trials = 0"])
def test_scenario_verify_all_rejects_bad_seed_and_trials(header):
    report = run_scenario(parse_scenario(f"{header}\ntask verify-all suites=roi\n"))
    assert report.tasks[0].verdict == "error"
    assert exit_code(report) == 2


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "genstar", "eval", "x1 ** x2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "x1*x2 + 0.5i"


def test_console_script_names_an_importable_callable():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["genstar"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert callable(entry)
    assert entry(["eval", "x1 ** x2"]) == 0


# -- the exp rule, over-deep input and the no-traceback contract --------------

AFFINE = "exp argument must be affine in the variables"


@pytest.mark.parametrize("text", ["exp(x1 ** x2 + x1)", "exp((x1 ** x2)*x1)", "exp(exp(x1) + x1)"])
def test_non_affine_exp_argument_is_a_parse_error_at_the_exp(text):
    with pytest.raises(ParseError) as err:
        parse_expression(text)
    assert (err.value.line, err.value.column) == (1, 1)
    assert str(err.value).startswith(AFFINE + " at line")


@pytest.mark.parametrize(
    "text, result",
    [
        ("exp(x1 ** 2)", "exp(2*x1)"),
        ("exp(2 ** 3)", format_value(cmath.exp(6))),  # the star of two constants is their product
        ("exp(exp(i))", format_value(cmath.exp(cmath.exp(1j)))),
        ("exp(exp(1) + x1)", format_value(cmath.exp(math.e)) + "*exp(x1)"),
    ],
)
def test_exp_arguments_that_evaluate_affine_parse(text, result):
    value = evaluate_expression(parse_expression(text), preset_params("voros", 1.0))
    assert format_value(value) == result


@pytest.mark.parametrize(
    "text, column, message",
    [
        ("exp(x1*x1) + z )", 16, "unexpected trailing input ')'"),
        ("exp(x1*x1) + z", 14, "variable 'z' mixes frames"),
        ("exp(exp(x1)) + exp(x1*x1)", 1, AFFINE),
    ],
)
def test_syntax_then_frame_then_first_exp_in_the_text(text, column, message):
    with pytest.raises(ParseError) as err:
        parse_expression(text)
    assert (err.value.line, err.value.column) == (1, column)
    assert str(err.value).startswith(message)


def _expressions(leaves):
    """Grammar trees as text over the given leaf texts; an exponent is
    followed by a space so that no literal after it joins the integer (see
    _FRAGMENTS)."""

    def extend(sub):
        return st.one_of(
            st.tuples(sub, st.sampled_from([" + ", " - ", "*", " ** "]), sub).map("".join),
            sub.map(lambda s: "-" + s),
            st.tuples(sub, st.sampled_from("0123")).map(lambda t: f"({t[0]})^{t[1]} "),
            sub.map(lambda s: f"exp({s})"),
            sub.map(lambda s: f"({s})"),
        )

    return st.recursive(st.sampled_from(leaves), extend, max_leaves=8)


_FRAME_VARIABLES = st.sampled_from([["x1", "x2"], ["z", "zbar"]])
_RULE_TEXT = _FRAME_VARIABLES.flatmap(lambda v: _expressions([*v, "i", "0", "1", "2", "0.5i"]))


@settings(max_examples=100, deadline=None)
@given(text=_RULE_TEXT)
def test_a_parsed_expression_never_fails_evaluation_on_the_exp_rule(text):
    try:
        expr = parse_expression(text)
    except ParseError:
        return
    for params in (preset_params("voros", 1.0), make_params(0.7, 0.3 + 0.2j, -0.1j, 0.5)):
        try:
            evaluate_expression(expr, params)
        except EngineError as exc:
            assert AFFINE not in str(exc)


_DEEP_PARENS = "(" * 200 + "x1" + ")" * 200
_DEEP_MINUS = "-" * 995 + "x1"
_LONG_SUM = "+".join(["x1"] * 1000)


@pytest.mark.parametrize(
    "text, message",
    [
        (_DEEP_PARENS, "expression nests too deeply at line 1"),
        (_DEEP_MINUS, "expression nests too deeply at line 1"),
    ],
    ids=["parentheses", "minus-signs"],
)
def test_cli_eval_over_deep_input_is_error(capsys, text, message):
    assert main(["eval", "--", text]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: " + message)


def test_cli_eval_of_a_long_flat_sum_prints_its_value(capsys):
    # a long flat chain is not deep: its evaluation walks the chain in a loop
    assert main(["eval", "--", _LONG_SUM]) == 0
    assert capsys.readouterr().out == "1000*x1\n"


def test_cli_eval_over_deep_input_prints_no_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "genstar", "eval", "--", _DEEP_MINUS],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: expression nests too deeply at line 1")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "position", "--grid=-1e300:1e300:2", "--phi12", "1", "--format", "text"],
        ["eval", "exp(1e200i*x1) ** exp(1e200i*x1)", "--phi11", "1"],
    ],
)
def test_cli_infinite_star_pair_phase_is_error(capsys, argv):
    # cmath.exp raises ValueError, not OverflowError, on an infinite imaginary part
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert re.search(r"star_wave: the pair factor exp\(.*\) overflows", captured.out + captured.err)


@pytest.mark.parametrize("kind", ["commutator", "equivalence"])
def test_scenario_infinite_star_pair_phase_is_error_report(kind):
    text = f'phi12 = 1\ntask {kind} f="exp(1e200i*x1)" g="exp(1e200i*x2)"\n'
    report = run_scenario(parse_scenario(text))
    assert report.tasks[0].verdict == "error"
    assert report.tasks[0].outputs["error"].startswith("star_wave: the pair factor exp(")
    assert exit_code(report) == 2


#: (CLI flags, scenario header) for Moyal, Voros and a generic Phi
_PARAM_SETS = (
    (["--preset", "moyal"], "preset = moyal"),
    (["--preset", "voros"], "preset = voros"),
    (
        ["--theta", "0.7", "--phi11=0.3+0.2i", "--phi12=-0.1i", "--phi22=0.5"],
        "theta = 0.7\nphi11 = 0.3+0.2i\nphi12 = -0.1i\nphi22 = 0.5",
    ),
)
_EXTREMES = ["1e200", "1e300i", "1e-300"]
_FRAGMENTS = ["x1", "x2", "z", "zbar", "i", "2", "0.5", *_EXTREMES, "exp(", "(", ")", " + ",
              " - ", "*", " ** ", "-", "^0 ", "^2 ", "^3 "]
# the exponent fragments end in a space, because a literal right after '^'
# would make an exponent such as 21e200, and x1^21e200 squares a dense
# polynomial until memory runs out
_CONTRACT_TEXT = st.one_of(
    st.lists(st.sampled_from(_FRAGMENTS), min_size=1, max_size=12).map("".join),
    _FRAME_VARIABLES.flatmap(lambda v: _expressions([*v, "i", "2", *_EXTREMES])),
)


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(max_examples=60, deadline=None)
@given(
    text=_CONTRACT_TEXT,
    other=_CONTRACT_TEXT,
    kind=st.sampled_from(["eval", "tmap", "commutator", "equivalence"]),
)
@example(text=_DEEP_PARENS, other="x1", kind="eval")
@example(text=_DEEP_MINUS, other="x1", kind="eval")
@example(text=_LONG_SUM, other="x1", kind="tmap")
@example(text="exp(1e200i*x1) ** exp(1e200i*x2)", other="x1", kind="eval")
@example(text="exp(1e300i ** 1e200)", other="x1", kind="eval")
@example(text="exp(1e200i*x1)", other="exp(1e200i*x2)", kind="commutator")
def test_front_end_exits_0_or_2_and_never_raises(contract_dir, text, other, kind):
    scenario, out = contract_dir / "one.scn", contract_dir / "report.txt"
    if kind in ("eval", "tmap"):
        task = f"expr={shlex.quote(text)}"
    else:
        task = f"f={shlex.quote(text)} g={shlex.quote(other)}"
    for flags, header in _PARAM_SETS:
        assert main(["eval", *flags, "--", text]) in (0, 2)
        scenario.write_text(f"{header}\ntask {kind} {task}\n", encoding="utf-8")
        assert main(["run", str(scenario), "--format", "text", "--out", str(out)]) in (0, 2)
