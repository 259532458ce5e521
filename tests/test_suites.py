"""The shared verification suites run green and are reproducible."""

import pytest

from genstar import ValidationError
from genstar.suites import (
    SUITE_NAMES,
    algebra_suite,
    equivalence_suite,
    fock_suite,
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
