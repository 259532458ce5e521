"""Exact polynomial star algebra."""

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from genstar import (
    FrameMismatchError,
    Polynomial2,
    SingularParameterError,
    ValidationError,
    make_params,
    preset_params,
    star_commutator,
    star_poly,
    tmap_poly,
    to_cartesian_frame,
    to_complex_frame,
    xhat_apply,
)
from genstar.suites import random_params, random_polynomial

X1 = Polynomial2.variable("x1")
X2 = Polynomial2.variable("x2")
Z = Polynomial2.variable("z")
ZBAR = Polynomial2.variable("zbar")


# -- Polynomial2 basics ---------------------------------------------------


def test_constructor_prunes_small_coefficients():
    p = Polynomial2({(1, 0): 1.0, (0, 1): 1e-15})
    assert p.terms == {(1, 0): 1.0 + 0j}


def test_constructor_rejects_bad_exponents():
    with pytest.raises(ValidationError):
        Polynomial2({(-1, 0): 1.0})
    with pytest.raises(ValidationError):
        Polynomial2({(0.5, 0): 1.0})


def test_constructor_rejects_nonfinite_coefficients():
    with pytest.raises(ValidationError):
        Polynomial2({(0, 0): float("nan")})


def test_zero_polynomial_has_empty_terms():
    assert Polynomial2.zero().is_zero
    assert (X1 - X1).is_zero
    assert Polynomial2.zero().total_degree() == -1


def test_arithmetic_and_evaluate():
    p = (X1 + 2 * X2) * (X1 - 1j)
    assert p.evaluate(0.5, -1.0) == pytest.approx((0.5 - 2.0) * (0.5 - 1j))
    assert (p - p).is_zero
    q = X1**3
    assert q.terms == {(3, 0): 1.0 + 0j}
    assert (X1**0).terms == {(0, 0): 1.0 + 0j}


def test_pow_rejects_negative():
    with pytest.raises(ValidationError):
        X1 ** (-1)


def test_derivative():
    p = X1**2 * X2
    assert p.derivative(0).terms == {(1, 1): 2.0 + 0j}
    assert p.derivative(1).terms == {(2, 0): 1.0 + 0j}
    assert p.derivative(0, order=2).terms == {(0, 1): 2.0 + 0j}
    assert p.derivative(0, order=3).is_zero


def test_frame_mismatch_raises():
    with pytest.raises(FrameMismatchError):
        X1 + Z
    with pytest.raises(FrameMismatchError):
        star_poly(X1, Z, make_params(1.0))


def test_immutable():
    with pytest.raises(AttributeError):
        X1.frame = "complex"


# -- star product ---------------------------------------------------------


def test_star_x1_x2_first_order():
    params = make_params(1.0, phi12=0.5)
    got = star_poly(X1, X2, params)
    want = X1 * X2 + Polynomial2.constant(0.5j * (0.5 + 1.0))
    assert got.max_diff(want) < 1e-15


def test_star_with_one_is_identity():
    params = make_params(1.3, 0.2 + 1j, -0.7, 0.3j)
    one = Polynomial2.constant(1.0)
    rng = np.random.default_rng(0)
    for _ in range(10):
        f = random_polynomial(rng)
        assert star_poly(f, one, params).max_diff(f) < 1e-14
        assert star_poly(one, f, params).max_diff(f) < 1e-14


def test_star_x1_x1_diagonal_phi():
    params = make_params(1.0, phi11=2.0)
    got = star_poly(X1, X1, params)
    want = X1 * X1 + Polynomial2.constant(1j)
    assert got.max_diff(want) < 1e-15


def test_degenerate_parameters_reduce_to_pointwise_product():
    params = make_params(0.0)
    rng = np.random.default_rng(1)
    for _ in range(5):
        f = random_polynomial(rng)
        g = random_polynomial(rng)
        assert star_poly(f, g, params).max_diff(f * g) < 1e-14


def test_complex_frame_star_requires_nonzero_theta():
    with pytest.raises(SingularParameterError):
        star_poly(Z, ZBAR, make_params(0.0))


def test_complex_frame_star_voros():
    # z * zbar under Voros: kernel exp(dz dzbar) gives z*zbar + 1
    got = star_poly(Z, ZBAR, preset_params("voros", 1.0))
    want = Z * ZBAR + 1.0
    assert got.max_diff(want) < 1e-15


# -- commutator -----------------------------------------------------------


def test_commutator_x1_x2_is_i_theta():
    rng = np.random.default_rng(2)
    for _ in range(20):
        params = random_params(rng, theta=1.0)
        got = star_commutator(X1, X2, params)
        assert got.max_diff(Polynomial2.constant(1j)) < 1e-12


def test_commutator_self_vanishes():
    rng = np.random.default_rng(3)
    params = random_params(rng)
    f = random_polynomial(rng)
    assert star_commutator(f, f, params).is_zero


def test_commutator_x1sq_x2():
    got = star_commutator(X1**2, X2, preset_params("moyal", 1.0))
    assert got.max_diff(X1 * 2j) < 1e-14


# -- equivalence map ------------------------------------------------------


def test_tmap_degree_one_fixed_point():
    params = make_params(1.0, 1.0, 2.0, 3.0)
    assert tmap_poly(X1, params).max_diff(X1) == 0


def test_tmap_x1sq():
    got = tmap_poly(X1**2, make_params(1.0, phi11=2.0))
    assert got.max_diff(X1**2 + Polynomial2.constant(1j)) < 1e-15


def test_tmap_cross_term():
    got = tmap_poly(X1 * X2, make_params(1.0, phi12=4.0))
    assert got.max_diff(X1 * X2 + Polynomial2.constant(2j)) < 1e-15


def test_tmap_requires_cartesian():
    with pytest.raises(FrameMismatchError):
        tmap_poly(Z, make_params(1.0))


def test_poly_equivalence_identity():
    rng = np.random.default_rng(4)
    for _ in range(20):
        params = random_params(rng)
        f = random_polynomial(rng)
        g = random_polynomial(rng)
        lhs = tmap_poly(star_poly(f, g, params.moyal()), params)
        rhs = star_poly(tmap_poly(f, params), tmap_poly(g, params), params)
        assert lhs.max_diff(rhs) < 1e-10


# -- independent symbolic oracle ------------------------------------------
#
# sympy sums exp(K_ab d/dx_a d/dy_b) on x^m y^n and exp((i/4) Phi_ij d_i d_j)
# on x^m term by term, with symbolic K and Phi.  K = (i/2)(Phi + Theta) is
# written out here from the parameters, not read from the engine.

SX1, SX2, SY1, SY2 = sp.symbols("x1 x2 y1 y2")
SK = sp.symbols("k11 k12 k21 k22")
SPHI = sp.symbols("phi11 phi12 phi22")


def _symbolic_exp(expr, operator):
    """sum_k operator^k(expr) / k!; operator lowers the degree, so it ends."""
    total = term = expr
    k = 0
    while term != 0:
        k += 1
        term = sp.expand(operator(term) / k)
        total += term
    return total


def _coefficients(expr, symbols):
    """(monomial keys, function of the symbols giving their coefficients)."""
    poly = sp.Poly(expr, SX1, SX2)
    return poly.monoms(), sp.lambdify(symbols, poly.coeffs())


def _symbolic_star(m, n):
    k11, k12, k21, k22 = SK

    def bidiff(e):
        return (k11 * sp.diff(e, SX1, SY1) + k12 * sp.diff(e, SX1, SY2)
                + k21 * sp.diff(e, SX2, SY1) + k22 * sp.diff(e, SX2, SY2))

    expr = _symbolic_exp(SX1 ** m[0] * SX2 ** m[1] * SY1 ** n[0] * SY2 ** n[1], bidiff)
    return _coefficients(expr.subs({SY1: SX1, SY2: SX2}), SK)


def _symbolic_tmap(m):
    p11, p12, p22 = SPHI

    def quad(e):
        return sp.I / 4 * (p11 * sp.diff(e, SX1, 2) + 2 * p12 * sp.diff(e, SX1, SX2)
                           + p22 * sp.diff(e, SX2, 2))

    return _coefficients(_symbolic_exp(SX1 ** m[0] * SX2 ** m[1], quad), SPHI)


def _monomials(degree):
    return [(a, d - a) for d in range(degree + 1) for a in range(d + 1)]


def test_polynomial_tier_matches_symbolic_series():
    pairs = [(m, n) for m in _monomials(2) for n in _monomials(2)]
    stars = {pair: _symbolic_star(*pair) for pair in pairs}
    tmaps = {m: _symbolic_tmap(m) for m in _monomials(6)}

    def expected(oracle, args):
        keys, coefficients = oracle
        return Polynomial2(dict(zip(keys, coefficients(*args))))

    rng = np.random.default_rng(10)
    for params in [random_params(rng) for _ in range(6)]:
        t, phi = params.theta, (params.phi11, params.phi12, params.phi22)
        kernel = (0.5j * phi[0], 0.5j * (phi[1] + t), 0.5j * (phi[1] - t), 0.5j * phi[2])
        for m, n in pairs:
            f, g = Polynomial2({m: 1.0}), Polynomial2({n: 1.0})
            fg = expected(stars[m, n], kernel)
            gf = expected(stars[n, m], kernel)
            assert star_poly(f, g, params).max_diff(fg) < 1e-13
            assert star_commutator(f, g, params).max_diff(fg - gf) < 1e-13
        for m, oracle in tmaps.items():
            got = tmap_poly(Polynomial2({m: 1.0}), params)
            assert got.max_diff(expected(oracle, phi)) < 1e-13


# -- deformed coordinate operators ---------------------------------------


def test_xhat_on_constant():
    params = make_params(1.0, 0.4, -0.2, 0.9)
    got = xhat_apply(1, Polynomial2.constant(1.0), params)
    assert got.max_diff(X1) < 1e-15


def test_xhat_cross_derivative():
    got = xhat_apply(1, X2, make_params(1.0, phi12=3.0))
    assert got.max_diff(X1 * X2 + Polynomial2.constant(2j)) < 1e-15


def test_xhat_composition_commutator_is_i_theta():
    rng = np.random.default_rng(5)
    for _ in range(10):
        params = random_params(rng, theta=1.0)
        f = random_polynomial(rng)
        got = xhat_apply(1, xhat_apply(2, f, params), params) - xhat_apply(
            2, xhat_apply(1, f, params), params
        )
        assert got.max_diff(f * 1j) < 1e-12


def test_xhat_agrees_with_left_star_multiplication():
    rng = np.random.default_rng(6)
    for _ in range(20):
        params = random_params(rng)
        f = random_polynomial(rng)
        assert xhat_apply(1, f, params).max_diff(star_poly(X1, f, params)) < 1e-12
        assert xhat_apply(2, f, params).max_diff(star_poly(X2, f, params)) < 1e-12


def test_xhat_validates_mu():
    with pytest.raises(ValidationError):
        xhat_apply(3, X1, make_params(1.0))


# -- frame conversion ------------------------------------------------------


def test_frame_conversion_round_trip():
    rng = np.random.default_rng(7)
    for theta in (0.5, 1.0, 2.0):
        f = random_polynomial(rng)
        back = to_cartesian_frame(to_complex_frame(f, theta), theta)
        assert back.max_diff(f) < 1e-12


def test_frame_conversion_requires_positive_theta():
    with pytest.raises(SingularParameterError):
        to_complex_frame(X1, 0.0)
    with pytest.raises(SingularParameterError):
        to_cartesian_frame(Z, -1.0)


def test_moyal_star_reduces_in_complex_frame():
    # the cartesian kernel (i/2)(Phi + Theta) maps to the z-frame kernel
    # under z = (x1 + i x2)/sqrt(2 theta): for Moyal that is (0, 1/2, -1/2, 0),
    # and the two branches of star_kernel must agree for generic complex Phi
    rng = np.random.default_rng(8)
    cases = [preset_params("moyal", theta) for theta in (0.5, 1.0, 2.0)]
    cases += [random_params(rng) for _ in range(20)]
    for params in cases:
        theta = params.theta
        f = random_polynomial(rng, max_degree=3)
        g = random_polynomial(rng, max_degree=3)
        cart = to_complex_frame(star_poly(f, g, params), theta)
        cplx = star_poly(to_complex_frame(f, theta), to_complex_frame(g, theta), params)
        assert cart.max_diff(cplx) < 1e-10


# -- algebra laws (spot checks; the full counts run in the acceptance suite)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_star_associative(seed):
    rng = np.random.default_rng(seed)
    params = random_params(rng)
    f = random_polynomial(rng, max_degree=3)
    g = random_polynomial(rng, max_degree=3)
    h = random_polynomial(rng, max_degree=3)
    lhs = star_poly(star_poly(f, g, params), h, params)
    rhs = star_poly(f, star_poly(g, h, params), params)
    assert lhs.max_diff(rhs) < 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_commutator_jacobi_and_leibniz(seed):
    rng = np.random.default_rng(seed)
    params = random_params(rng)
    f = random_polynomial(rng, max_degree=3)
    g = random_polynomial(rng, max_degree=3)
    h = random_polynomial(rng, max_degree=3)
    jac = (
        star_commutator(f, star_commutator(g, h, params), params)
        + star_commutator(g, star_commutator(h, f, params), params)
        + star_commutator(h, star_commutator(f, g, params), params)
    )
    assert jac.max_diff(Polynomial2.zero()) < 1e-10
    lhs = star_commutator(f, star_poly(g, h, params), params)
    rhs = star_poly(star_commutator(f, g, params), h, params) + star_poly(
        g, star_commutator(f, h, params), params
    )
    assert lhs.max_diff(rhs) < 1e-10
