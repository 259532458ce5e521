"""Exact polynomial star algebra."""

import math
import warnings

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from genstar import (
    CARTESIAN,
    COMPLEX,
    FrameMismatchError,
    Polynomial2,
    SingularParameterError,
    ValidationError,
    WaveSum,
    make_params,
    preset_params,
    star_commutator,
    star_kernel,
    star_poly,
    tmap_poly,
    to_cartesian_frame,
    to_complex_frame,
    xhat_apply,
)
from genstar.polystar import PRUNE_TOL, _canonical, _commutator, _stack, _star
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


@pytest.mark.parametrize("build, text", [
    (lambda: Polynomial2({(0, 0): "x"}), "a polynomial coefficient needs complex numbers"),
    (lambda: Polynomial2({(0,): 1}), "exponents must be non-negative integers"),
    (lambda: Polynomial2.constant("x"), "a polynomial coefficient needs complex numbers"),
    (lambda: Polynomial2.constant(10**400), "a polynomial coefficient needs complex numbers"),
    (lambda: X1 * "x", "a polynomial coefficient needs complex numbers"),
    (lambda: X1 + None, "a polynomial coefficient needs complex numbers"),
    (lambda: WaveSum.plane_wave(0, 0) * "x", "a wave term needs complex numbers"),
    (lambda: WaveSum.plane_wave(10**400, 0), "a wave term needs complex numbers"),
])
def test_values_that_are_not_numbers_are_validation_errors(build, text):
    with pytest.raises(ValidationError, match=text):
        build()


def test_constructor_rejects_nonfinite_coefficients():
    with pytest.raises(ValidationError):
        Polynomial2({(0, 0): float("nan")})


def test_high_degree_operands_are_not_refused():
    # a dense box costs its whole size, but no degree is refused for it
    assert (X1**94 + 1).terms == {(94, 0): 1.0 + 0j, (0, 0): 1.0 + 0j}
    assert Polynomial2({(94, 0): 1.0}) == X1**94
    # (x1^2 - x2^2)^40, to the rounding of the sums that cancel in it
    exact = Polynomial2({(2 * j, 80 - 2 * j): (-1) ** j * math.comb(40, j) for j in range(41)})
    assert ((X1 + X2) ** 40 * (X1 - X2) ** 40).max_diff(exact) < 1e-15 * math.comb(80, 40)
    assert abs((X1**150).derivative(0, 140).coefficient(10, 0) / math.perm(150, 140) - 1) < 1e-13


def test_star_tensor_limit_raises_validation_error():
    big = Polynomial2({(45, 45): 1.0})  # a star tensor of 46^4 > 2^22 entries
    with pytest.raises(ValidationError):
        star_poly(big, big, make_params(1.0))
    with pytest.raises(ValidationError):
        star_commutator(big, big, make_params(1.0))


def test_overflow_raises_once_and_warns_nothing():
    # the tensor f(x) g(y) overflows to inf, the kernel then meets inf * 0 and
    # the commutator inf - inf; _store's finiteness check is the one report
    f, g = 1e200 * X1**2, 1e200 * X2**2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="must be finite"):
            star_poly(f, g, preset_params("moyal", 1.0))
        with pytest.raises(ValidationError, match="must be finite"):
            star_commutator(f, g, preset_params("moyal", 1.0))


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


def test_derivative_validates_order():
    p = X1 * X1
    assert p.derivative(0, order=0) == p
    for order in (-1, 1.5, "1", None):
        with pytest.raises(ValidationError):
            p.derivative(0, order)


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


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
def test_moyal_product_takes_normal_order_to_weyl_order(theta):
    # zbar^m *_Moyal z^n is the Weyl symbol of bdag^m b^n, whose closed form
    # is sum_k (-1/2)^k k! C(m,k) C(n,k) zbar^(m-k) z^(n-k); keys are (z, zbar)
    # powers, and z is dimensionless, so theta does not enter
    params = preset_params("moyal", theta)
    for m in range(7):
        for n in range(7):
            got = star_poly(ZBAR**m, Z**n, params)
            want = {(n - k, m - k): (-0.5) ** k * math.factorial(k) * math.comb(m, k) * math.comb(n, k)
                    for k in range(min(m, n) + 1)}
            assert got.frame == COMPLEX
            assert got.terms.keys() == want.keys(), (m, n)
            for key, c in want.items():
                assert abs(got.coefficient(*key) - c) <= 1e-15 * abs(c), (m, n, key)


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


@pytest.mark.parametrize("n, count", [(8, 45), (10, 66)])
def test_voros_product_has_exactly_the_monomials_of_the_series(n, count):
    # (x1 + x2)^n *_Voros (x1 - x2)^n at theta = 1: rounding that does not
    # cancel shows up as monomials the exact series does not have
    kernel = (sp.Rational(1, 2), sp.I / 2, -sp.I / 2, sp.Rational(1, 2))
    term = sp.Poly((SX1 + SX2) ** n * (SY1 - SY2) ** n, SX1, SX2, SY1, SY2, domain="QQ_I")
    total, k = term, 0
    while not term.is_zero:
        k += 1
        term = (term.diff(SX1).diff(SY1) * kernel[0] + term.diff(SX1).diff(SY2) * kernel[1]
                + term.diff(SX2).diff(SY1) * kernel[2] + term.diff(SX2).diff(SY2) * kernel[3]) * sp.Rational(1, k)
        total += term
    series = sp.Poly(total.as_expr().subs({SY1: SX1, SY2: SX2}), SX1, SX2)
    want = {m: complex(c) for m, c in zip(series.monoms(), series.coeffs())}
    got = star_poly((X1 + X2) ** n, (X1 - X2) ** n, preset_params("voros", 1.0)).terms
    assert len(want) == count
    assert set(got) == set(want)
    for m, c in want.items():
        assert abs(got[m] - c) <= 1e-15 * abs(c)


# -- dict oracle -------------------------------------------------------------
#
# The polynomial tier once held coefficients in dicts keyed by exponent
# tuples and applied each operator one key at a time.  That code is kept
# here, unchanged in its arithmetic, as an independent oracle for the
# array kernel: the two share only star_kernel's weights.


def _dict_exp_operator(terms: dict, weights) -> dict:
    """sum_k B^k(terms) / k! for B = sum of w d_i d_j over the (w, i, j) in
    weights; the loop stops at the first step that comes out empty."""
    ops = [(w, i, j, int(i == j)) for w, i, j in weights if w != 0j]
    out = dict(terms)
    cur = terms
    k = 0
    while cur and ops:
        k += 1
        nxt: dict = {}
        for w, i, j, same in ops:
            w = w / k
            for key, c in cur.items():
                m = key[i] * (key[j] - same)  # 0 once d_i d_j kills the monomial
                if m > 0:
                    new = list(key)
                    new[i] -= 1
                    new[j] -= 1
                    new = tuple(new)
                    nxt[new] = nxt.get(new, 0j) + w * m * c
        for key, c in nxt.items():
            out[key] = out.get(key, 0j) + c
        cur = nxt
    return out


def _dict_contract(tensor: dict) -> dict:
    """Set y = x: (a1, a2, b1, b2) -> (a1 + b1, a2 + b2)."""
    out: dict = {}
    for (a1, a2, b1, b2), c in tensor.items():
        key = (a1 + b1, a2 + b2)
        out[key] = out.get(key, 0j) + c
    return out


def _dict_tensor(f: dict, g: dict) -> dict:
    return {(a1, a2, b1, b2): cf * cg for (a1, a2), cf in f.items() for (b1, b2), cg in g.items()}


def _dict_star(f: dict, g: dict, k11, k12, k21, k22) -> dict:
    weights = ((k11, 0, 2), (k12, 0, 3), (k21, 1, 2), (k22, 1, 3))
    return _dict_contract(_dict_exp_operator(_dict_tensor(f, g), weights))


def _dict_sum(*parts) -> dict:
    out: dict = {}
    for scale, terms in parts:
        for key, c in terms.items():
            out[key] = out.get(key, 0j) + scale * c
    return out


def _dict_product(f: dict, g: dict) -> dict:
    return _dict_contract(_dict_tensor(f, g))


def _dict_substitute(f: dict, sub1: dict, sub2: dict) -> dict:
    """f(sub1, sub2) from the powers of the substituted polynomials."""
    pow1, pow2 = [{(0, 0): 1 + 0j}], [{(0, 0): 1 + 0j}]
    for _ in range(max((n1 for n1, _ in f), default=0)):
        pow1.append(_dict_product(pow1[-1], sub1))
    for _ in range(max((n2 for _, n2 in f), default=0)):
        pow2.append(_dict_product(pow2[-1], sub2))
    return _dict_sum(*((c, _dict_product(pow1[n1], pow2[n2])) for (n1, n2), c in f.items()))


def _assert_matches(got: Polynomial2, want: dict, frame: str, *parts: dict):
    # 1e-12 of the largest coefficient of want, or of the parts whose
    # difference it is; a coefficient within PRUNE_TOL of 0 may be
    # dropped on one side only
    assert got.frame == frame
    scale = max((abs(c) for terms in (want, *parts) for c in terms.values()), default=0.0)
    mine = got.terms
    for key in mine.keys() | want.keys():
        assert abs(mine.get(key, 0j) - want.get(key, 0j)) <= 1e-12 * scale + PRUNE_TOL, key


@st.composite
def _operand(draw, frame):
    """A sparse (up to 6 monomials) or dense coefficient dict, each
    exponent <= 12."""
    d1, d2 = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    box = [(n1, n2) for n1 in range(d1 + 1) for n2 in range(d2 + 1)]
    if draw(st.booleans()):
        box = [box[int(i)] for i in rng.choice(len(box), size=min(len(box), 6), replace=False)]
    terms = {key: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for key in box}
    return Polynomial2(terms, frame)


@st.composite
def _family(draw):
    theta = 10.0 ** draw(st.floats(-3.0, 2.0))
    kind = draw(st.sampled_from(["moyal", "voros", "random"]))
    if kind != "random":
        return preset_params(kind, theta)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phi = (theta * complex(*rng.standard_normal(2)) for _ in range(3))
    return make_params(theta, *phi)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), frame=st.sampled_from([CARTESIAN, COMPLEX]), params=_family())
def test_array_tier_matches_dict_oracle(data, frame, params):
    f = data.draw(_operand(frame))
    g = data.draw(_operand(frame))
    fd, gd = f.terms, g.terms
    kernel = star_kernel(frame, params)
    k11, k12, k21, k22 = kernel
    fg, gf = _dict_star(fd, gd, *kernel), _dict_star(fd, gd, k11, k21, k12, k22)
    _assert_matches(star_poly(f, g, params), fg, frame)
    _assert_matches(star_commutator(f, g, params), _dict_sum((1, fg), (-1, gf)), frame, fg, gf)
    _assert_matches(f * g, _dict_product(fd, gd), frame)
    t = params.theta
    if frame == CARTESIAN:
        weights = ((0.25j * params.phi11, 0, 0), (0.5j * params.phi12, 0, 1), (0.25j * params.phi22, 1, 1))
        _assert_matches(tmap_poly(f, params), _dict_exp_operator(fd, weights), frame)
        s = np.sqrt(t / 2)
        sub = ({(1, 0): s, (0, 1): s}, {(1, 0): -1j * s, (0, 1): 1j * s})
        _assert_matches(to_complex_frame(f, t), _dict_substitute(fd, *sub), COMPLEX)
    else:
        s = 1 / np.sqrt(2 * t)
        sub = ({(1, 0): s, (0, 1): 1j * s}, {(1, 0): s, (0, 1): -1j * s})
        _assert_matches(to_cartesian_frame(f, t), _dict_substitute(fd, *sub), CARTESIAN)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), frame=st.sampled_from([CARTESIAN, COMPLEX]), size=st.integers(3, 5))
def test_batched_kernel_matches_each_element(data, frame, size):
    # ragged boxes padded into one stack; element 1 is Moyal, whose cartesian
    # kernel has zero diagonal weights, and the last f is the zero polynomial.
    # An element that read another element's kernel would fail this
    params = [data.draw(_family()) for _ in range(size)]
    params[1] = preset_params("moyal", params[1].theta)
    fs = [data.draw(_operand(frame)) for _ in range(size - 1)] + [Polynomial2.zero(frame)]
    gs = [data.draw(_operand(frame)) for _ in range(size)]
    kernel = list(zip(*(star_kernel(frame, p) for p in params)))
    stars = _canonical(_star(_stack(fs), _stack(gs), kernel))
    brackets = _canonical(_commutator(_stack(fs), _stack(gs), kernel))
    for b, (f, g, p) in enumerate(zip(fs, gs, params)):
        k11, k12, k21, k22 = star_kernel(frame, p)
        fg = _dict_star(f.terms, g.terms, k11, k12, k21, k22)
        gf = _dict_star(f.terms, g.terms, k11, k21, k12, k22)
        for batch, single, want, parts in (
            (stars, star_poly(f, g, p), fg, ()),
            (brackets, star_commutator(f, g, p), _dict_sum((1, fg), (-1, gf)), (fg, gf)),
        ):
            # relative to the largest coefficient of the result or, for a
            # commutator, of the two products whose difference it is
            got = Polynomial2._from_array(batch[..., b], frame)
            scale = max((abs(c) for terms in (want, *parts) for c in terms.values()), default=0.0)
            assert got.max_diff(single) <= 1e-13 * scale + PRUNE_TOL, b
            _assert_matches(got, want, frame, *parts)


def _assert_each_matches(got: Polynomial2, want: dict):
    # every coefficient of want at or above PRUNE_TOL, each to 1e-13 of itself
    want = {key: c for key, c in want.items() if abs(c) >= PRUNE_TOL}
    mine = got.terms
    assert set(mine) == set(want)
    for key, c in want.items():
        assert abs(mine[key] - c) <= 1e-13 * abs(c), key


def test_high_degree_series_keep_every_coefficient():
    # at theta = 0.02, w^k / k! falls below the double range well before
    # k = 127 while (127)_k^2 passes 10^400, and (200)_2k reaches
    # 200! > 10^374 in T; their products are in range and must survive
    params = make_params(0.02)
    want = _dict_star({(127, 0): 1 + 0j}, {(0, 127): 1 + 0j}, *star_kernel(CARTESIAN, params))
    _assert_each_matches(star_poly(X1**127, X2**127, params), want)
    params = make_params(0.5, 0.01, -0.02, 0.03)
    weights = ((0.25j * params.phi11, 0, 0), (0.5j * params.phi12, 0, 1), (0.25j * params.phi22, 1, 1))
    want = _dict_exp_operator({(200, 3): 1 + 0j}, weights)
    _assert_each_matches(tmap_poly(X1**200 * X2**3, params), want)


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


def test_conj_f_star_f_is_nonnegative_exactly_for_gaussian_covariances():
    # conj(f) * f >= 0 for every f when Phi = -iM with M > 0 and det M >= theta^2,
    # the Gaussian covariance conditions (Simon, Mukunda and Dutta, 1994).  Off
    # them it fails: on M = lambda theta Id, f = x1 + i x2 vanishes at 0 and
    # conj(f) * f takes -(1 - lambda) theta there
    theta = 0.8
    x1, x2 = Polynomial2.variable("x1"), Polynomial2.variable("x2")
    for lam in (0.0, 0.5, 0.9, 1.0, 1.5):
        params = make_params(theta, phi11=-1j * lam * theta, phi22=-1j * lam * theta)
        product = star_poly(x1 - 1j * x2, x1 + 1j * x2, params)
        assert product.coefficient(0, 0) == pytest.approx(-(1 - lam) * theta, abs=1e-15)

    # M = nu theta R diag(e^r, e^-r) R^T has det M = (nu theta)^2; every third
    # M lies on the boundary nu = 1
    rng = np.random.default_rng(11)
    monomials = [(n1, n2) for n1 in range(4) for n2 in range(4 - n1)]
    for k in range(30):
        nu = 1.0 if k % 3 == 0 else rng.uniform(1.0, 1.6)
        r, angle = rng.uniform(-0.8, 0.8), rng.uniform(0.0, math.pi)
        rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        m = nu * theta * rot @ np.diag([math.exp(r), math.exp(-r)]) @ rot.T
        params = make_params(theta, phi11=-1j * m[0, 0], phi12=-1j * m[0, 1], phi22=-1j * m[1, 1])
        coeffs = rng.uniform(-1, 1, (len(monomials), 2)) @ (1, 1j)
        f = Polynomial2(dict(zip(monomials, coeffs)))
        fbar = Polynomial2(dict(zip(monomials, coeffs.conj())))
        product = star_poly(fbar, f, params)
        values = np.array([product.evaluate(*point) for point in rng.uniform(-2, 2, (50, 2))])
        scale = np.max(np.abs(values))
        assert values.real.min() >= -1e-12 * scale, (k, values.real.min() / scale)
        assert np.abs(values.imag).max() <= 1e-12 * scale, k
