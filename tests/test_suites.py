"""The shared verification suites run green and are reproducible."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from genstar import Polynomial2, ValidationError, polystar, star_commutator, star_poly
from genstar.polystar import poly_equivalence_residual
from genstar.suites import (
    SUITE_NAMES,
    _check,
    algebra_suite,
    equivalence_suite,
    fock_suite,
    random_params,
    random_polynomial,
    random_wavesum,
    roi_suite,
    run_suites,
)


def test_all_suites_pass_at_defaults():
    for suite in run_suites(SUITE_NAMES, seed=0):
        for check in suite.checks:
            assert check.passed, f"{suite.name}.{check.name}: {check.max_error} > {check.tolerance}"


def test_suites_are_deterministic_for_fixed_seed():
    runs = (
        lambda: algebra_suite(seed=3, trials=20),
        lambda: equivalence_suite(seed=3, trials=20),
        lambda: roi_suite(seed=3),
        lambda: fock_suite(seed=3, trials=5),
    )
    for run in runs:
        assert run() == run()


def test_different_seeds_change_draws():
    a = fock_suite(seed=0, trials=5)
    b = fock_suite(seed=1, trials=5)
    assert a.checks[0].max_error != b.checks[0].max_error


def test_trials_override():
    suite = equivalence_suite(seed=0, trials=5)
    assert "5 random" in suite.checks[0].detail


def test_roi_suite_reports_non_resolution_detail():
    suite = roi_suite(seed=0)
    by_name = {c.name: c for c in suite.checks}
    assert "non-resolution" in by_name["position-generic-amplitude"].detail
    assert by_name["coherent-voros-resolves"].passed


@pytest.mark.parametrize("kw", [{"seed": -1}, {"trials": 0}, {"trials": -3},
                                {"names": ("algebra", "nope")}])
def test_run_suites_rejects_negative_seed_and_empty_trials(kw, monkeypatch):
    # every argument is checked before any suite runs
    def fail(**_):
        raise AssertionError("a suite ran before the arguments were checked")

    for name in SUITE_NAMES:
        monkeypatch.setattr(f"genstar.suites.{name}_suite", fail)
    with pytest.raises(ValidationError):
        run_suites(**{"names": ("equivalence",), **kw})


def test_run_suites_trials_none_keeps_pinned_counts():
    (suite,) = run_suites(("equivalence",), seed=0, trials=None)
    assert "100 random" in suite.checks[0].detail


def test_run_suites_trials_sets_both_algebra_counts():
    (suite,) = run_suites(("algebra",), 0, trials=7)
    by_name = {c.name: c.detail for c in suite.checks}
    assert "over 7 random Phi" in by_name["commutator-invariance"]
    assert by_name["associativity"].startswith("7 random triples")


# -- per-triple oracle for the batched law checks ------------------------------
#
# algebra_suite checks the star-bracket laws on the stacks of batches of its
# triples.  This is the per-triple loop it replaced, on the public functions
# only, with the suite's draws and check texts written out again.


def _law_errors(params, f, g, h) -> tuple[float, float, float, float]:
    """Associativity, antisymmetry, Jacobi and Leibniz errors of one triple."""

    def star(a, b):
        return star_poly(a, b, params)

    def bracket(a, b):
        return star_commutator(a, b, params)

    zero = Polynomial2.zero()
    gh, f_g = star(g, h), bracket(f, g)
    return (
        star(star(f, g), h).max_diff(star(f, gh)),
        (f_g + bracket(g, f)).max_diff(zero),
        (bracket(f, bracket(g, h)) + bracket(g, bracket(h, f)) + bracket(h, f_g)).max_diff(zero),
        bracket(f, gh).max_diff(star(f_g, h) + star(g, bracket(f, h))),
    )


def _oracle_algebra(seed, trials):
    """(name, max_error, tolerance, detail) of each algebra check."""
    rng = np.random.default_rng(seed)
    thetas = (0.1, 1.0, 2.0)
    commutator_params = [random_params(rng, theta=thetas[k % 3]) for k in range(trials)]
    triples = [(random_params(rng), random_polynomial(rng), random_polynomial(rng), random_polynomial(rng))
               for _ in range(trials)]
    x1, x2 = Polynomial2.variable("x1"), Polynomial2.variable("x2")
    invariance = max(star_commutator(x1, x2, p).max_diff(Polynomial2.constant(1j * p.theta))
                     for p in commutator_params)
    laws = [max(errors) for errors in zip(*(_law_errors(*triple) for triple in triples))]
    return [
        ("commutator-invariance", invariance, 1e-12,
         f"[x1, x2] = i theta over {trials} random Phi, theta in {thetas}"),
        ("associativity", laws[0], 1e-10, f"{trials} random triples, degree <= 4"),
        ("antisymmetry", laws[1], 1e-10, ""),
        ("jacobi", laws[2], 1e-10, ""),
        ("leibniz", laws[3], 1e-10, ""),
    ]


@pytest.mark.parametrize("seed", [0, 4, 2027])
@pytest.mark.parametrize("trials", [1, 7, 10])
def test_batched_law_checks_match_the_per_triple_oracle(seed, trials):
    checks = algebra_suite(seed=seed, trials=trials).checks
    want = _oracle_algebra(seed, trials)
    assert [c.name for c in checks] == [name for name, *_ in want]
    for check, (name, error, tolerance, detail) in zip(checks, want):
        assert (check.tolerance, check.detail) == (tolerance, detail), name
        assert check.passed == (error <= tolerance), name
        assert abs(check.max_error - error) <= 1e-11, name


@pytest.mark.parametrize("batch, max_tensor", [(3, None), (16, 3 * 81 * 25)])
def test_law_checks_in_several_batches_match_the_per_triple_oracle(monkeypatch, batch, max_tensor):
    # degree-4 triples make tensors of up to 9 x 9 x 5 x 5 entries per triple;
    # a budget of three such triples, or three triples per batch, splits ten
    # triples into four batches, each of which must stay within the budget
    from genstar import polystar

    monkeypatch.setattr(polystar, "_BATCH", batch)
    if max_tensor is not None:
        monkeypatch.setattr(polystar, "_MAX_TENSOR", max_tensor)
    rng = np.random.default_rng(5)
    triples = [(random_params(rng), random_polynomial(rng), random_polynomial(rng), random_polynomial(rng))
               for _ in range(10)]
    want = list(zip(*(_law_errors(*triple) for triple in triples)))
    for errors, oracle in zip(polystar._law_errors(triples), want, strict=True):
        assert len(errors) == len(oracle)
        assert np.allclose(errors, oracle, rtol=0, atol=1e-11)


# -- per-trial oracle for the batched commutator and equivalence checks ---------
#
# The commutator-invariance and poly-equivalence checks run their first trial
# through star_commutator and poly_equivalence_residual and the rest as stacks.
# This is the per-trial loop they replaced, with the suites' draws written out
# again.  The residuals are relative to max(1, the largest coefficient), so an
# absolute 1e-13 is 1e-13 times that scale; the commutator coefficient is theta.


def _commutator_draws(seed, trials):
    rng = np.random.default_rng(seed)
    return [random_params(rng, theta=(0.1, 1.0, 2.0)[k % 3]) for k in range(trials)]


def _equivalence_draws(seed, trials):
    rng = np.random.default_rng(seed)
    for _ in range(trials):  # the suite draws its wave pairs first
        random_params(rng), random_wavesum(rng), random_wavesum(rng)
    return [(random_params(rng), random_polynomial(rng), random_polynomial(rng)) for _ in range(trials)]


def _commutator_oracle(params):
    x1, x2 = Polynomial2.variable("x1"), Polynomial2.variable("x2")
    return [star_commutator(x1, x2, p).max_diff(Polynomial2.constant(1j * p.theta)) for p in params]


def _assert_trials_match(params, pairs):
    for got, want, scale in (
        (polystar._commutator_errors(params), _commutator_oracle(params), [max(1.0, p.theta) for p in params]),
        (polystar._equivalence_errors(pairs), [poly_equivalence_residual(f, g, p) for p, f, g in pairs],
         [1.0] * len(pairs)),
    ):
        assert len(got) == len(want)
        assert got[:1] == want[:1]  # the first trial is the public function's, bit for bit
        for g, w, s in zip(got, want, scale):
            assert abs(g - w) <= 1e-13 * s


@pytest.mark.parametrize("seed", [0, 4, 2027])
@pytest.mark.parametrize("trials", [1, 7, 10])
def test_batched_commutator_and_equivalence_checks_match_the_per_trial_oracle(seed, trials):
    params, pairs = _commutator_draws(seed, trials), _equivalence_draws(seed, trials)
    _assert_trials_match(params, pairs)
    checks = {c.name: c for c in algebra_suite(seed=seed, trials=trials).checks
              + equivalence_suite(seed=seed, trials=trials).checks}
    for name, errors, scale, tolerance, detail in (
        ("commutator-invariance", _commutator_oracle(params), 2.0, 1e-12,
         f"[x1, x2] = i theta over {trials} random Phi, theta in (0.1, 1.0, 2.0)"),
        ("poly-equivalence", [poly_equivalence_residual(f, g, p) for p, f, g in pairs], 1.0, 1e-10,
         f"{trials} random polynomial pairs, degree <= 4"),
    ):
        check = checks[name]
        assert (check.tolerance, check.detail) == (tolerance, detail)
        assert check.passed == (max(errors) <= tolerance)
        assert abs(check.max_error - max(errors)) <= 1e-13 * scale


@pytest.mark.parametrize("batch, max_tensor", [(3, None), (16, 3 * 5**4)])
def test_commutator_and_equivalence_checks_in_several_batches_match_the_oracle(monkeypatch, batch, max_tensor):
    # degree-4 pairs have boxes of side <= 5, 5^4 entries per pair; a budget of
    # three pairs, or three items per batch, splits the nine trials after the
    # first into three batches, each within the budget
    monkeypatch.setattr(polystar, "_BATCH", batch)
    if max_tensor is not None:
        monkeypatch.setattr(polystar, "_MAX_TENSOR", max_tensor)
    sizes = []
    stack = polystar._stack
    monkeypatch.setattr(polystar, "_stack", lambda polys: sizes.append(len(polys)) or stack(polys))
    params, pairs = _commutator_draws(5, 10), _equivalence_draws(5, 10)
    assert max(max(p._c.shape) for _, *polys in pairs for p in polys) == 5
    _assert_trials_match(params, pairs)
    assert sizes[-6:] == [3] * 6  # the equivalence check's three batches of f and g
    if max_tensor is None:
        assert sizes[:6] == [3] * 6  # and the commutator check's


@pytest.mark.parametrize("errors", [[math.nan], [1e-13, math.nan], [math.nan, 1e-13], np.array([0.0, math.nan])])
def test_a_nan_error_fails_its_check_and_is_reported(errors):
    check = _check("x", errors, 1e-12)
    assert math.isnan(check.max_error) and not check.passed
    assert _check("x", [], 1e-12) == _check("x", [0.0], 1e-12)
    assert _check("x", [], 1e-12).passed


def test_a_nan_fock_overlap_fails_both_overlap_checks(monkeypatch):
    monkeypatch.setattr("genstar.suites.overlap_vs_closedform",
                        lambda *args: SimpleNamespace(abs_error=math.nan))
    suite = fock_suite(seed=0, trials=2)
    by_name = {c.name: c for c in suite.checks}
    for name in ("overlap-closedform", "overlap-convergence"):
        assert math.isnan(by_name[name].max_error) and not by_name[name].passed
    assert math.isnan(suite.max_error) and not suite.passed
