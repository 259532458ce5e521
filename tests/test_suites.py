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
    a = algebra_suite(seed=3, commutator_trials=20, law_trials=20)
    b = algebra_suite(seed=3, commutator_trials=20, law_trials=20)
    assert [c.max_error for c in a.checks] == [c.max_error for c in b.checks]
    a = equivalence_suite(seed=3, trials=20)
    b = equivalence_suite(seed=3, trials=20)
    assert [c.max_error for c in a.checks] == [c.max_error for c in b.checks]


def test_different_seeds_change_draws():
    a = fock_suite(seed=0, trials=5)
    b = fock_suite(seed=1, trials=5)
    assert a.checks[0].max_error != b.checks[0].max_error


def test_trials_override():
    suite = equivalence_suite(seed=0, trials=5)
    assert "5 random" in suite.checks[0].detail


def test_roi_suite_reports_non_resolution_detail():
    suite = roi_suite(seed=0, grid_points=7)
    by_name = {c.name: c for c in suite.checks}
    assert "non-resolution" in by_name["position-generic-amplitude"].detail
    assert by_name["coherent-voros-resolves"].passed


@pytest.mark.parametrize("kw", [{"seed": -1}, {"trials": 0}, {"trials": -3}])
def test_run_suites_rejects_negative_seed_and_empty_trials(kw):
    with pytest.raises(ValidationError):
        run_suites(("equivalence",), **kw)


def test_run_suites_trials_none_keeps_pinned_counts():
    (suite,) = run_suites(("equivalence",), seed=0, trials=None)
    assert "100 random" in suite.checks[0].detail
