"""Expression front end, scenario runner, report emitter, CLI."""

import cmath
import hashlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from genstar import Polynomial2, WaveSum, make_params, preset_params
from genstar.exprio import (
    ParseError,
    Report,
    ScenarioError,
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
)
from genstar.exprio.cli import main
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
    from genstar.exprio.parser import Add, Mul, Star

    assert isinstance(e.root, Add)
    assert isinstance(e.root.right, Star)
    assert isinstance(e.root.right.right, Mul)


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
        ("task verify-all suites=roi,bogus", "line 1: task verify-all option suites: unknown suite 'bogus'"),
        ("task coherent-roi grid=1:2", "line 1: task coherent-roi option grid: bad grid '1:2'"),
        ("task fock-check z=x1", "line 1: task fock-check option z: bad complex literal 'x1'"),
        ("task position-roi tol=abc", "line 1: task position-roi option tol: tol = 'abc' is not a valid float"),
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


def test_cli_eval_bad_expression(capsys):
    assert main(["eval", "x1 +"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_exit_codes_for_golden_scenarios(capsys):
    assert main(["run", str(SCENARIO_DIR / "moyal_position_pass.scn"), "--format", "text"]) == 0
    assert main(["run", str(SCENARIO_DIR / "voros_coherent_pass.scn"), "--format", "text"]) == 0
    assert main(["run", str(SCENARIO_DIR / "generic_phi_finding.scn"), "--format", "text"]) == 1
    capsys.readouterr()


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
    "expr", ["1e200*1e200", "1e300*1e300 - 1e300*1e300", "1e400", "exp(1000)", "(1e200)^2"]
)
def test_cli_eval_nonfinite_scalar_is_error(capsys, expr):
    code = main(["eval", expr])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
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
