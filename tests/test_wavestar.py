"""Plane-wave star algebra, equivalence map, and identity-resolution kernels."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genstar import (
    DivergentIntegralError,
    ExpLinearTerm,
    FrameMismatchError,
    Polynomial2,
    SingularParameterError,
    ValidationError,
    WaveSum,
    coherent_momentum_overlap,
    coherent_roi_amplitude,
    coherent_roi_kernel,
    equivalence_residual,
    make_params,
    max_amplitude_diff,
    overlap_px,
    plane_integral_cartesian,
    plane_integral_z,
    position_roi_amplitude,
    position_roi_kernel,
    preset_params,
    star_poly,
    star_wave,
    tmap_wave,
)
from genstar import wavestar
from genstar.deformation import star_kernel
from genstar.exprio import evaluate_expression, parse_expression
from genstar.suites import random_params, random_wavesum
from genstar.wavestar import (
    WVEC_TOL,
    _ARRAY_PAIRS,
    _array_product,
    _cells,
    _scalar_product,
    roi_diagonal,
)

TWO_PI = 2.0 * math.pi


# -- WaveSum basics ---------------------------------------------------------


def test_equal_wavevectors_merge():
    w = WaveSum.plane_wave(1.0, 2.0, 0.5) + WaveSum.plane_wave(1.0, 2.0, 0.25j)
    assert len(w.terms) == 1
    assert w.terms[0].amplitude == 0.5 + 0.25j
    # near the float limit the cells neither overflow nor join neighbouring floats
    huge, below = 1.7e308, math.nextafter(1.7e308, 0.0)
    w = WaveSum.plane_wave(huge, -huge) + WaveSum.plane_wave(huge, -huge)
    assert [(t.amplitude, t.wavevector) for t in w.terms] == [(2, (huge, -huge))]
    w = WaveSum.plane_wave(huge, 0.0) + WaveSum.plane_wave(below, 0.0)
    assert [t.wavevector[0] for t in w.terms] == [below, huge]


def test_sums_store_rows_and_build_terms_on_demand():
    # a list wavevector is stored as a row like a tuple one, so the sum hashes
    listed = WaveSum((ExpLinearTerm(1j, "cartesian", [1j, 2j]),))
    assert hash(listed) == hash(WaveSum((ExpLinearTerm(1j, "cartesian", (1j, 2j)),)))
    assert listed == WaveSum((ExpLinearTerm(1j, "cartesian", (1j, 2j)),))
    assert listed.rows == ((1j, 1j, 2j),) and listed.terms[0].wavevector == (1j, 2j)
    # the constructor reads its terms once: a generator gives the same sum as a tuple
    ws = random_wavesum(np.random.default_rng(6)) + WaveSum.plane_wave(0.5, -1.5, 2j)
    assert WaveSum(t for t in ws.terms) == WaveSum(tuple(ws.terms)) == ws
    assert WaveSum(ws.terms, ws.frame) == ws
    z = WaveSum.z_exponential(1j, 2.0)
    assert WaveSum(z.terms, z.frame) == z
    with pytest.raises(FrameMismatchError):
        max_amplitude_diff(ws, z)
    with pytest.raises(FrameMismatchError):
        max_amplitude_diff(ws, WaveSum.zero("complex"))


def test_cancelling_terms_leave_zero():
    w = WaveSum.plane_wave(1.0, 0.0, 1.0) - WaveSum.plane_wave(1.0, 0.0, 1.0)
    assert w.is_zero


def test_near_degenerate_wavevectors_merge_by_cell_in_any_order():
    # 0, 0.9e-9 and 1.8e-9 sit in three WVEC_TOL cells, whatever the order
    ks = (0.0, 0.9e-9, 1.8e-9)
    forward = sum((WaveSum.plane_wave(k, 0.0) for k in ks), WaveSum.zero())
    reverse = sum((WaveSum.plane_wave(k, 0.0) for k in reversed(ks)), WaveSum.zero())
    assert forward.terms == reverse.terms
    assert [t.wavevector[0] for t in forward.terms] == list(ks)


#: few components, so wavevectors repeat; signed zeros and near-degenerate
#: neighbours; amplitudes that cancel exactly or whose sum depends on order
_COMPONENTS = st.sampled_from((0.0, -0.0, 0.9e-9, 1.8e-9, 1.0, 1.0 + 1e-12))
_AMPLITUDES = st.sampled_from((1.0, -1.0, 0.1, 0.2, 0.3, 1e-20, 0.5j, -0.5j))
_TERMS = st.lists(st.tuples(_AMPLITUDES, _COMPONENTS, _COMPONENTS), min_size=1, max_size=8)


@settings(max_examples=100, deadline=None)
@given(_TERMS, _TERMS, st.randoms(use_true_random=False), st.sampled_from(("moyal", "voros")))
def test_star_wave_does_not_depend_on_term_order(fterms, gterms, rnd, preset):
    def build(terms):
        return WaveSum(tuple(ExpLinearTerm(a, "cartesian", (k1, k2)) for a, k1, k2 in terms))

    params = preset_params(preset, 0.8)
    want = star_wave(build(fterms), build(gterms), params)
    rnd.shuffle(fterms)
    rnd.shuffle(gterms)
    got = star_wave(build(fterms), build(gterms), params)
    assert repr(got.terms) == repr(want.terms)
    order = [(k1.real, k1.imag, k2.real, k2.imag) for k1, k2 in (t.wavevector for t in got.terms)]
    assert order == sorted(order)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_nonfinite_wave_terms_are_validation_errors(bad):
    for build in (
        lambda: WaveSum.plane_wave(1.0, 0.0, amplitude=bad),
        lambda: WaveSum.plane_wave(bad, 0.0),
        lambda: WaveSum.z_exponential(0.0, bad),
        lambda: WaveSum.z_exponential(1.0, 0.0, amplitude=bad),
        lambda: WaveSum((ExpLinearTerm(bad, "cartesian", (0j, 0j)),)),
        lambda: WaveSum((ExpLinearTerm(1 + 0j, "complex", (0j, complex(bad))),), "complex"),
    ):
        with pytest.raises(ValidationError, match="not finite"):
            build()
    for build in (
        lambda: WaveSum((ExpLinearTerm("x", "cartesian", (0j, 0j)),)),
        lambda: WaveSum.plane_wave("x", 0),
        lambda: WaveSum.plane_wave(0, 0, amplitude=None),
        lambda: WaveSum.z_exponential(0, "x"),
    ):
        with pytest.raises(ValidationError, match="complex numbers"):
            build()


def test_frame_mismatch():
    with pytest.raises(FrameMismatchError):
        WaveSum.plane_wave(1, 0) + WaveSum.z_exponential(1, 0)
    with pytest.raises(FrameMismatchError):
        star_wave(WaveSum.plane_wave(1, 0), WaveSum.z_exponential(1, 0), make_params(1.0))


def test_evaluate_matches_exponentials():
    w = WaveSum.plane_wave(1.5, -0.5, 2.0)
    x = (0.3, 0.7)
    assert w.evaluate(*x) == pytest.approx(2.0 * cmath.exp(1j * (1.5 * x[0] - 0.5 * x[1])))


# -- star product -----------------------------------------------------------


def test_star_wave_moyal_cross():
    got = star_wave(WaveSum.plane_wave(1, 0), WaveSum.plane_wave(0, 1), preset_params("moyal", 1.0))
    assert len(got.terms) == 1
    term = got.terms[0]
    assert term.wavevector == (1 + 0j, 1 + 0j)
    assert term.amplitude == pytest.approx(cmath.exp(-0.5j))


def test_star_wave_voros_same_wave():
    got = star_wave(WaveSum.plane_wave(1, 0), WaveSum.plane_wave(1, 0), preset_params("voros", 1.0))
    term = got.terms[0]
    assert term.wavevector == (2 + 0j, 0j)
    assert term.amplitude == pytest.approx(math.exp(-0.5))


def test_star_wave_zero_absorbs():
    f = random_wavesum(np.random.default_rng(0))
    assert star_wave(f, WaveSum.zero(), make_params(1.0)).is_zero
    assert star_wave(WaveSum.zero(), f, make_params(1.0)).is_zero


def test_star_wave_associative_random():
    rng = np.random.default_rng(1)
    for _ in range(30):
        params = random_params(rng)
        f, g, h = (random_wavesum(rng) for _ in range(3))
        lhs = star_wave(star_wave(f, g, params), h, params)
        rhs = star_wave(f, star_wave(g, h, params), params)
        assert max_amplitude_diff(lhs, rhs) < 1e-12


def test_moyal_kernel_is_pure_phase():
    params = preset_params("moyal", 1.3)
    rng = np.random.default_rng(2)
    for _ in range(25):
        p = rng.uniform(-3, 3, 2)
        q = rng.uniform(-3, 3, 2)
        (term,) = star_wave(WaveSum.plane_wave(*p), WaveSum.plane_wave(*q), params).terms
        assert abs(abs(term.amplitude) - 1.0) < 1e-12


def _taylor_poly(k1, k2, order):
    terms = {}
    for n1 in range(order + 1):
        for n2 in range(order + 1 - n1):
            terms[(n1, n2)] = (1j * k1) ** n1 * (1j * k2) ** n2 / (
                math.factorial(n1) * math.factorial(n2)
            )
    return Polynomial2(terms)


def test_star_wave_agrees_with_star_poly_on_taylor_expansions():
    # compare coefficients up to total degree 3; Taylor order 12 keeps the
    # input-truncation leakage well below the 1e-8 bound for |k|, |q| <= 1
    rng = np.random.default_rng(3)
    for _ in range(10):
        params = random_params(rng)
        r1, a1 = rng.uniform(0, 1), rng.uniform(0, TWO_PI)
        r2, a2 = rng.uniform(0, 1), rng.uniform(0, TWO_PI)
        k = (r1 * math.cos(a1), r1 * math.sin(a1))
        q = (r2 * math.cos(a2), r2 * math.sin(a2))
        wave = star_wave(WaveSum.plane_wave(*k), WaveSum.plane_wave(*q), params)
        amp = wave.terms[0].amplitude
        kk = wave.terms[0].wavevector
        want = _taylor_poly(kk[0], kk[1], 12) * amp
        got = star_poly(_taylor_poly(*k, 12), _taylor_poly(*q, 12), params)
        worst = max(
            abs(got.coefficient(n1, n2) - want.coefficient(n1, n2))
            for n1 in range(4)
            for n2 in range(4 - n1)
        )
        assert worst < 1e-8


def test_star_wave_and_tmap_wave_overflow_is_a_validation_error():
    # Voros: exp(40 x1) * exp(41 x1) picks up exp(820), and T multiplies
    # exp(81 x1) by exp(1640.25); both overflow cmath.exp
    voros = preset_params("voros", 1.0)
    f, g = WaveSum.plane_wave(-40j, 0), WaveSum.plane_wave(-41j, 0)
    with pytest.raises(ValidationError) as exc:
        star_wave(f, g, voros)
    assert str(exc.value) == "star_wave: the pair factor exp(820+0j) overflows"
    with pytest.raises(ValidationError) as exc:
        tmap_wave(f.pointwise_mul(g), voros)
    assert str(exc.value) == "tmap_wave: the factor exp(1640.25-0j) overflows"
    # the factor is finite but the amplitude product 1e200 * 1e200 is not
    big = WaveSum.plane_wave(0.0, 0.0, amplitude=1e200)
    with pytest.raises(ValidationError, match="not finite"):
        star_wave(big, big, voros)


# -- the array path of star_wave and pointwise_mul ---------------------------------

#: floats at odd multiples of WVEC_TOL / 2, the IEEE-remainder ties (exactly
#: so at +-WVEC_TOL / 2, within an ulp elsewhere), beside cell interiors
_TIE_COMPONENTS = [s * j * (WVEC_TOL / 2) for j in (1, 3, 5, 7, 0.8, 1.2) for s in (1.0, -1.0)]


#: components whose cells lie past 2^40 * WVEC_TOL, and beside that bound
_HUGE_COMPONENTS = [1e300, 1.5e300, -1e300, 3e5 + 0.4e-9, 3e5 + 0.6e-9, 1099.5, 1099.52, 0.0]


def test_cell_keys_match_the_ieee_remainder():
    # odd multiples of WVEC_TOL / 2 and their neighbours, where x / WVEC_TOL
    # rounds onto a half-integer that the exact quotient misses; cells at and
    # past 2^40; huge and subnormal values
    odd = [j * (WVEC_TOL / 2) for j in range(-41, 42, 2)]
    xs = odd + [math.nextafter(x, d) for x in odd for d in (-math.inf, math.inf)]
    xs += [1099.5, 1099.52, 3e5 + 0.4e-9, 3e5 + 0.6e-9, 1e300, -1.7e308, 5e-324, 0.0, -0.0]
    with np.errstate(over="ignore", invalid="ignore"):  # as on the array path
        keys = _cells(np.array(xs))
    assert keys.tolist() == [x - math.remainder(x, WVEC_TOL) for x in xs]


def _wave(rng, n, frame, kind):
    """n terms: an integer lattice with signed zeros and amplitudes that
    cancel exactly, tie components, huge components or random complex
    wavevectors."""
    terms = []
    for _ in range(n):
        if kind == "lattice":
            k = rng.choice([0.0, -0.0, 1.0, -1.0, 2.0, -2.0], 2)
            k1, k2 = complex(k[0], rng.choice([0.0, -0.0])), complex(k[1], rng.choice([0.0, -0.0]))
            a = complex(rng.choice([1.0, -1.0, 0.5, -0.5, 2.0]), rng.choice([0.0, -0.0, 1.0]))
        else:
            pool = {"ties": _TIE_COMPONENTS + [0.0, -0.0], "huge": _HUGE_COMPONENTS}.get(
                kind, rng.uniform(-2, 2, 8).tolist())
            k1, k2 = (complex(*rng.choice(pool, 2)) for _ in range(2))
            a = complex(*rng.uniform(-1, 1, 2))
        terms.append(ExpLinearTerm(a, frame, (k1, k2)))
    return terms


def _array_cases():
    """(f's terms, g's terms, frame, kernel or None for pointwise_mul), at
    _ARRAY_PAIRS pairs or more, for Moyal, Voros and a complex generic Phi."""
    rng = np.random.default_rng(29)
    params = (preset_params("moyal", 0.8), preset_params("voros", 0.8),
              make_params(0.7, 0.3 + 0.2j, -0.1j, 0.5))
    for frame in ("cartesian", "complex"):
        for kind in ("lattice", "ties", "random"):
            for _ in range(3):
                f, g = (_wave(rng, int(rng.integers(10, 30)), frame, kind) for _ in range(2))
                yield f, g, frame, None
                for p in params:
                    yield f, g, frame, star_kernel(frame, p)
    # pointwise only: the star pair exponent of a huge wavevector overflows
    yield (*(_wave(rng, 12, "cartesian", "huge") for _ in range(2)), "cartesian", None)
    line = [ExpLinearTerm(1 + 0j, "cartesian", (complex(k), 0j))
            for k in _HUGE_COMPONENTS + [1.0, 2.0, 3.0]]
    yield line, line, "cartesian", None
    # an interior lattice point meets +1 and -1 twice each: it cancels exactly
    square = [ExpLinearTerm(1 + 0j, "cartesian", (complex(a), complex(b)))
              for a in range(5) for b in range(5)]
    steps = [ExpLinearTerm(complex(s), "cartesian", (complex(a), complex(b)))
             for s, a, b in ((1, 1, 0), (-1, -1, 0), (1, 0, 1), (-1, 0, -1))]
    yield square, steps, "cartesian", None


def test_array_path_matches_the_scalar_loop_bit_for_bit():
    rnd = np.random.default_rng(31)
    for fterms, gterms, frame, kernel in _array_cases():
        f, g = WaveSum(tuple(fterms), frame), WaveSum(tuple(gterms), frame)
        assert len(f.terms) * len(g.terms) >= _ARRAY_PAIRS
        want = repr(_scalar_product(f, g, kernel).terms)
        got = _array_product(f, g, kernel)
        assert got is not None and repr(got.terms) == want
        # the public entry points take the array path, in any term order
        rnd.shuffle(fterms)
        rnd.shuffle(gterms)
        f, g = WaveSum(tuple(fterms), frame), WaveSum(tuple(gterms), frame)
        assert repr(_array_product(f, g, kernel).terms) == want
    # a pair exponent of 709 takes cmath.exp's scaled branch, which np.exp
    # does not match: the array path takes cmath.exp there
    voros = preset_params("voros", 1.0)
    rest = sum((WaveSum.plane_wave(k, 0.0, 0.5) for k in range(10, 20)), WaveSum.zero())
    f, g = WaveSum.plane_wave(-2j, 0) + rest, WaveSum.plane_wave(-709j, 0) + rest
    kernel = star_kernel("cartesian", voros)
    assert repr(_array_product(f, g, kernel).terms) == repr(_scalar_product(f, g, kernel).terms)
    assert repr(star_wave(f, g, voros).terms) == repr(_scalar_product(f, g, kernel).terms)
    # a term built with ints is stored as complex, so both paths take complex arithmetic
    ints = WaveSum(tuple(ExpLinearTerm(1, "cartesian", (k, 0)) for k in range(10)))
    assert all(type(v) is complex for t in ints.terms for v in (t.amplitude, *t.wavevector))
    assert repr(_array_product(ints, ints).terms) == repr(_scalar_product(ints, ints).terms)
    assert repr(ints.pointwise_mul(ints).terms) == repr(_scalar_product(ints, ints).terms)
    # the last case: where +1 and -1 meet equally often, a cell cancels and goes
    cells = {(s.wavevector[0] + t.wavevector[0], s.wavevector[1] + t.wavevector[1])
             for s in fterms for t in gterms}
    assert len(_array_product(WaveSum(tuple(fterms)), WaveSum(tuple(gterms))).terms) < len(cells)


def test_array_path_raises_the_scalar_loop_error():
    voros = preset_params("voros", 1.0)
    kernel = star_kernel("cartesian", voros)
    rest = sum((WaveSum.plane_wave(k, 0.0, 0.5) for k in range(10, 20)), WaveSum.zero())
    origin, one = WaveSum.plane_wave(0, 0), WaveSum.plane_wave(1, 0)
    big = 1.5e308 + 1.5e308j
    cases = [
        # the pair factor exp(820) overflows cmath.exp
        (WaveSum.plane_wave(-40j, 0), WaveSum.plane_wave(-41j, 0), kernel, "overflows"),
        # finite factors, but the amplitude product 1e200 * 1e200 is not
        (origin * 1e200, origin * 1e200, kernel, "not finite"),
        # nor is the wavevector sum 1.7e308 + 1.7e308
        (WaveSum.plane_wave(1.7e308, 0), WaveSum.plane_wave(1.7e308, 0), None, "not finite"),
        # (0, 0) + (1, 0) and (1, 0) + (0, 0) meet: 1e308 + 1e308 overflows fsum
        (origin * 1e308 + one * 1e308, origin + one, None, "amplitudes overflow"),
        # they cancel, but each part's magnitude overflows
        (origin * big - one * big, origin + one, None, "amplitudes overflow"),
        # the parts of cell (20, 7) overflow fsum in the loop's order (f outermost);
        # sorted by wavevector they would sum, and abs of the sum would overflow
        (WaveSum.plane_wave(0, 0, 1.3e308 + 1.3e308j) + WaveSum.plane_wave(10, 5, 1.3e308)
         + WaveSum.plane_wave(20, 7, -1.3e308),
         WaveSum.plane_wave(-3e-10, 0) + WaveSum.plane_wave(10 + 3e-10, 2) + WaveSum.plane_wave(20, 7),
         None, "overflow: intermediate overflow in fsum"),
        # cells (2100, 100) and (1200, 100) overflow, differently: the loop meets
        # (2100, 100) first, at the pair (0, 100) + (2100, 0)
        (WaveSum.plane_wave(0, 100, 1.7e308) + WaveSum.plane_wave(1000, 100, 1.3e308)
         + WaveSum.plane_wave(1100, 100, 1.3e308j),
         WaveSum.plane_wave(100, 0) + WaveSum.plane_wave(200, 0) + WaveSum.plane_wave(1100, 0, 0.1)
         + WaveSum.plane_wave(2100, 0),
         None, "overflow: intermediate overflow in fsum"),
    ]
    for f, g, k, text in cases:
        f, g = f + rest, g + rest
        assert len(f.terms) * len(g.terms) >= _ARRAY_PAIRS
        with pytest.raises(ValidationError) as array:
            _array_product(f, g, k)
        with pytest.raises(ValidationError, match=text) as want:
            _scalar_product(f, g, k)
        assert str(array.value) == str(want.value)
        with pytest.raises(ValidationError) as got:
            star_wave(f, g, voros) if k is not None else f.pointwise_mul(g)
        assert str(got.value) == str(want.value)


#: per kind, the (real, imaginary) pools of the amplitudes and of the
#: wavevector components of the edge-case sums
_EDGE_POOLS = {
    # amplitudes near 1e154 square to near the float limit: merged cells overflow,
    # some only in the order in which the loop meets their parts
    "huge": (([1.2e154, -1.2e154, 1e154, -1e154, 1e100, 1.0], [0.0, -0.0, 1.0, 1e154]),
             ([0.0, -0.0, 1.0, 1.0 + 3e-10, 1.0 - 3e-10, -1.0, 2.0], [0.0, -0.0])),
    # at theta = 1 the pair exponents of these components land on both sides of 708-710
    "edge": (([1.0, -0.5, 0.0], [0.0, -0.0, 0.5]),
             ([0.0, -0.0, 1.0, 37.66, -37.7], [0.0, -0.0, -37.62, -37.64, -37.67, -37.7, -37.73, -26.6])),
    # wavevectors near 1e154: pair exponents with an infinite part and a finite one
    "wide": (([1.0, -1.0, 0.5], [0.0, -0.0, 1.0]),
             ([1.3e154, -1.3e154, 1e153, 2.0, 0.0, -0.0], [0.0, -0.0, 1e153])),
}


def _edge_value(rng, pools):
    """A value from the (real, imaginary) pools: a complex, an int or a
    numeric string."""
    x, y = (float(rng.choice(pool)) for pool in pools)
    r = rng.random()
    if r < 0.1 and x.is_integer() and y == 0.0:
        return int(x)
    if r < 0.15:
        return repr(complex(x, y))
    return complex(x, y)


def _edge_sum(rng, frame, kind):
    """A sum of 1-12 terms of one _EDGE_POOLS kind."""
    amplitudes, components = _EDGE_POOLS[kind]
    terms = [ExpLinearTerm(_edge_value(rng, amplitudes), frame,
                           (_edge_value(rng, components), _edge_value(rng, components)))
             for _ in range(int(rng.integers(1, 13)))]
    return WaveSum(tuple(terms), frame)


#: the loop's three errors, in the order it raises them
_ERRORS = ("the pair factor", "is not finite", "merged wave amplitudes overflow")


def _outcome(thunk):
    try:
        return repr(thunk().terms)
    except ValidationError as exc:
        return f"error: {exc}"


def test_array_path_gives_the_scalar_loops_terms_or_first_error():
    """The array path against the loop, which stays its oracle, on huge
    amplitudes whose merged cells overflow, pair exponents in (708, 709.78]
    and past it, infinite exponent parts, signed zeros, ints and numeric
    strings; test_array_path_raises_the_scalar_loop_error has the cases
    where the loop's order of groups and of parts decides the error."""
    rng = np.random.default_rng(30)
    seen = set()
    for case in range(1500):
        frame = ("cartesian", "complex")[case % 2]
        kind = tuple(_EDGE_POOLS)[case // 2 % 3]
        try:
            f, g = _edge_sum(rng, frame, kind), _edge_sum(rng, frame, kind)
        except ValidationError:  # a sum's own terms merge past the float range
            continue
        if f.is_zero or g.is_zero:  # 0 pairs are below _ARRAY_PAIRS: the array path never sees them
            continue
        params = (preset_params("voros", 1.0), preset_params("moyal", 40.0),
                  make_params(float(rng.uniform(0.5, 40.0)), 0.3 + 0.2j, -0.1j, 0.5))[case // 6 % 3]
        for kernel in (None, star_kernel(frame, params)):
            want = _outcome(lambda: _scalar_product(f, g, kernel))
            assert _outcome(lambda: _array_product(f, g, kernel)) == want
            seen.add(next((e for e in _ERRORS if e in want), "terms"))
    assert seen == {"terms", *_ERRORS}


def test_scaling_and_the_equivalence_map_give_the_merged_rows_or_first_error():
    """f * c and tmap_wave change amplitudes only and do not merge again:
    against _merge of the same rows, on the edge-case sums, with scalars and
    maps that keep, zero, underflow or overflow amplitudes."""
    rng = np.random.default_rng(32)
    seen = set()

    def merged(frame, rows):
        return lambda: WaveSum._canonical(wavestar._merge(list(rows)), frame)

    for case in range(300):
        frame = ("cartesian", "complex")[case % 2]
        try:
            f = _edge_sum(rng, frame, tuple(_EDGE_POOLS)[case // 2 % 3])
        except ValidationError:
            continue
        params = make_params(1.0, *(complex(*rng.uniform(-3, 3, 2)) for _ in range(3)))
        outcomes = [(_outcome(lambda: f * c), _outcome(merged(frame, ((a * c, k1, k2) for a, k1, k2 in f.rows))))
                    for c in (1.0, -0.5 + 2j, 0.0, 5e-324, 1e300, math.inf)]
        if frame == "cartesian":
            factor = lambda k1, k2: wavestar._exp(-0.25j * params.phi_quadratic(k1, k2), "tmap_wave: the factor")
            outcomes.append((_outcome(lambda: tmap_wave(f, params)),
                             _outcome(merged(frame, ((a * factor(k1, k2), k1, k2) for a, k1, k2 in f.rows)))))
        for got, want in outcomes:
            assert got == want
            dropped = not want.startswith("error") and want.count("ExpLinearTerm(") < len(f.rows)
            seen.add("dropped" if dropped else next((e for e in _ERRORS + ("the factor",) if e in want), "terms"))
    assert seen == {"terms", "dropped", "is not finite", "the factor"}


def test_pointwise_power_has_the_multinomial_amplitudes():
    # by squaring, the last product has 15 x 153 = 2,295 pairs; every
    # multinomial 20!/(a! b! c!) is an integer below 2^53, exact in doubles
    value = evaluate_expression(parse_expression("(exp(i*x1)+exp(i*x2)+1)^20"),
                                preset_params("moyal", 1.0))
    assert len(value.terms) == math.comb(22, 2)
    for t in value.terms:
        a, b = (int(k.real) for k in t.wavevector)
        assert t.wavevector == (a, b)
        c = 20 - a - b
        assert c >= 0
        assert t.amplitude == math.factorial(20) // (
            math.factorial(a) * math.factorial(b) * math.factorial(c))


def test_wave_product_past_the_pair_bound_is_refused_before_any_pair():
    # the square of (..)^64's 2,145 terms needs 4,601,025 pairs, above _MAX_TENSOR
    text = "(exp(i*x1)+exp(i*x2)+1)^200"
    with pytest.raises(ValidationError) as exc:
        evaluate_expression(parse_expression(text), preset_params("moyal", 1.0))
    assert str(exc.value) == "a product of 2145 and 2145 terms needs more than 4194304 pairs"


# -- equivalence map ---------------------------------------------------------


def test_tmap_wave_voros_gaussian():
    got = tmap_wave(WaveSum.plane_wave(1, 1), preset_params("voros", 1.0))
    assert got.terms[0].amplitude == pytest.approx(math.exp(-0.5))
    assert got.terms[0].wavevector == (1 + 0j, 1 + 0j)


def test_tmap_wave_moyal_is_identity():
    f = random_wavesum(np.random.default_rng(4))
    got = tmap_wave(f, preset_params("moyal", 0.7))
    assert max_amplitude_diff(got, f) == 0


def test_tmap_wave_phi11_phase():
    got = tmap_wave(WaveSum.plane_wave(1, 0), make_params(1.0, phi11=4.0))
    assert got.terms[0].amplitude == pytest.approx(cmath.exp(-1j))


def test_equivalence_residual_zero_for_moyal():
    rng = np.random.default_rng(5)
    f, g = random_wavesum(rng), random_wavesum(rng)
    assert equivalence_residual(f, g, preset_params("moyal", 1.0)) == 0


def test_equivalence_residual_voros_pair():
    f = WaveSum.plane_wave(1, 0)
    g = WaveSum.plane_wave(0, 1)
    assert equivalence_residual(f, g, preset_params("voros", 1.0)) < 1e-15


def test_equivalence_residual_generic_phi():
    f = WaveSum.plane_wave(1, 1)
    g = WaveSum.plane_wave(2, -1)
    params = make_params(1.0, 0.3 - 0.8j, 0.2 + 0.5j, -0.6 + 0.1j)
    assert equivalence_residual(f, g, params) < 1e-12


# -- plane integrals ----------------------------------------------------------


def test_plane_integral_cartesian_records_delta_weight():
    out = plane_integral_cartesian(WaveSum.plane_wave(0.5, -1.0, 2.0))
    assert out.amplitude == pytest.approx(2.0 * TWO_PI**2)
    assert out.freq == (0.5, -1.0)


def test_plane_integral_cartesian_rejects_complex_wavevector():
    with pytest.raises(DivergentIntegralError):
        plane_integral_cartesian(WaveSum.plane_wave(0.5 + 0.1j, 0.0))


def test_plane_integral_z_oscillatory_and_divergent():
    # exp(a z + b zbar) with b = -conj(a) is oscillatory
    a = 0.4 + 0.9j
    out = plane_integral_z(WaveSum.z_exponential(a, -a.conjugate(), 1.5))
    assert out.amplitude == pytest.approx(1.5 * 4.0 * math.pi)
    with pytest.raises(DivergentIntegralError):
        plane_integral_z(WaveSum.z_exponential(1.0, 0.0))


@pytest.mark.parametrize(
    "integral, wave",
    [(plane_integral_cartesian, WaveSum.plane_wave), (plane_integral_z, WaveSum.z_exponential)],
)
def test_plane_integrals_take_exactly_one_term(integral, wave):
    # an amplitude of exactly 0 is dropped on construction: zero terms
    empty = wave(0.5j, 0.5j, amplitude=0.0)
    assert empty.is_zero
    with pytest.raises(ValidationError, match="got 0 terms.*exactly 0"):
        integral(empty)
    with pytest.raises(ValidationError, match="got 2 terms"):
        integral(wave(0.5j, 0.5j) + wave(1j, -1j))


def test_roi_amplitude_underflow_is_a_validation_error():
    # at |p| = 20 the state Gaussians exp(-theta |p|^2 / 4) are tiny but not 0,
    # so they survive: the Voros kernel cancels them to 1, Moyal keeps
    # exp(-theta |p|^2 / 2)
    for preset, theta, p, want in (
        ("voros", 1.0, 20 + 20j, 1.0),
        ("moyal", 2.0, 10 + 10j, math.exp(-200.0)),
    ):
        got = coherent_roi_amplitude(preset_params(preset, theta), p, p)
        assert abs(got - want) <= 1e-12 * want
    # at theta = 2, |p|^2 = 1800 the Gaussian exp(-900) is exactly 0
    with pytest.raises(ValidationError, match="got 0 terms.*exactly 0"):
        coherent_roi_amplitude(preset_params("voros", 2.0), 30 + 30j, 30 + 30j)


# -- overlaps -----------------------------------------------------------------


def test_overlap_px_values():
    assert overlap_px((0, 0), (3.7, -1)) == pytest.approx(1 / TWO_PI)
    assert overlap_px((math.pi, 0), (1, 0)) == pytest.approx(-1 / TWO_PI)
    assert overlap_px((1, 1), (1, -1)) == pytest.approx(1 / TWO_PI)


def test_coherent_momentum_overlap_values():
    assert coherent_momentum_overlap(0, 0, 1.0) == pytest.approx(math.sqrt(1 / TWO_PI))
    assert coherent_momentum_overlap(0, 2.0, 1.0) == pytest.approx(math.sqrt(1 / TWO_PI) * math.exp(-1.0))
    with pytest.raises(SingularParameterError):
        coherent_momentum_overlap(0, 1.0, 0.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: overlap_px((1j, 0), (0, 0)), r"p\[0\] must be real"),
        (lambda: overlap_px((0, 0), (0, "y")), r"x\[1\] must be a real number"),
        (lambda: overlap_px((math.inf, 0), (1, 0)), r"p\[0\] must be finite"),
        (lambda: position_roi_amplitude(make_params(1.0), (1j, 0), (0, 0)), r"p\[0\] must be real"),
        (lambda: position_roi_amplitude(make_params(1.0), (0, 0), (0, math.nan)),
         r"pprime\[1\] must be finite"),
        (lambda: coherent_roi_amplitude(make_params(1.0), "x", 1), "p must be a complex number"),
        (lambda: coherent_roi_amplitude(make_params(1.0), 1, complex(0, math.inf)),
         "pprime must be finite"),
        (lambda: coherent_momentum_overlap(math.inf, 1, 1), "z must be finite"),
        (lambda: coherent_momentum_overlap(0, None, 1), "p must be a complex number"),
        (lambda: overlap_px(5, (0, 0)), "p must be a sequence of two numbers, got 5"),
        (lambda: position_roi_amplitude(make_params(1.0), 5, (0, 0)),
         "p must be a sequence of two numbers, got 5"),
        (lambda: overlap_px((1, 0, 7), (0, 0)), r"p must be a sequence of two numbers, got \(1, 0, 7\)"),
    ],
    ids=["overlap_px-complex", "overlap_px-str", "overlap_px-inf", "position-complex",
         "position-nan", "coherent-str", "coherent-inf", "overlap-inf", "overlap-None",
         "overlap_px-int", "position-int", "overlap_px-three"],
)
def test_state_overlaps_and_roi_amplitudes_refuse_bad_momenta(call, message):
    # each used to raise a raw TypeError or ValueError, or return nan+nanj or a
    # value that ignored a third coordinate
    with pytest.raises(ValidationError, match=message):
        call()


# -- position-state kernel ----------------------------------------------------


def test_position_roi_moyal_resolves():
    params = preset_params("moyal", 1.0)
    rng = np.random.default_rng(6)
    for _ in range(20):
        p = rng.uniform(-2, 2, 2)
        assert abs(position_roi_amplitude(params, p, p) - 1.0) < 1e-12


def test_position_roi_diagonal_phi():
    params = make_params(1.0, phi11=0.2, phi22=0.2)
    got = position_roi_amplitude(params, (1, 1), (1, 1))
    assert got == pytest.approx(cmath.exp(0.2j))


def test_position_roi_voros_diagonal_growth():
    params = preset_params("voros", 1.0)
    got = position_roi_amplitude(params, (1, 0), (1, 0))
    assert got == pytest.approx(math.exp(0.5))
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = rng.uniform(-2, 2, 2)
        want = math.exp(params.theta * float(p @ p) / 2.0)
        assert position_roi_amplitude(params, p, p) == pytest.approx(want)


def _mai_formula(params, p, q):
    """Full closed form of the position-state sandwich, including the
    factors that cancel identically on the delta support."""
    t = params.theta
    first = 0.5j * (
        params.phi11 * p[0] * q[0]
        + (params.phi12 + t) * p[0] * q[1]
        + (params.phi12 - t) * p[1] * q[0]
        + params.phi22 * p[1] * q[1]
    )
    extra = 0.5j * t * (p[0] * p[1] + q[0] * q[1]) - 1j * t * p[1] * q[0]
    return cmath.exp(first + extra)


def test_position_roi_matches_full_formula_on_diagonal():
    rng = np.random.default_rng(8)
    for _ in range(30):
        params = random_params(rng)
        p = rng.uniform(-2, 2, 2)
        engine = position_roi_amplitude(params, p, p)
        assert abs(engine - _mai_formula(params, p, p)) < 1e-12


def test_position_roi_kernel_matches_amplitude():
    rng = np.random.default_rng(9)
    for _ in range(20):
        params = random_params(rng)
        kern = position_roi_kernel(params)
        p = rng.uniform(-2, 2, 2)
        q = rng.uniform(-2, 2, 2)
        assert abs(kern.evaluate(p, q) - position_roi_amplitude(params, p, q)) < 1e-12
    assert kern.diagonal_only


def test_roi_diagonal_walks_the_grid_p1_outermost():
    params = make_params(1.0, 0.2, 0.1 - 0.3j, 0.4j)
    values = [-1.0, 0.5, 2.0]
    p1, p2, amp = roi_diagonal("position", params, values)
    assert list(zip(p1.tolist(), p2.tolist())) == [(a, b) for a in values for b in values]
    for x, y, a in zip(p1.tolist(), p2.tolist(), amp.tolist()):
        assert a == position_roi_amplitude(params, (x, y), (x, y))
    p1, p2, amp = roi_diagonal("coherent", params, values)
    assert list(zip(p1.tolist(), p2.tolist())) == [(a, b) for a in values for b in values]
    for x, y, a in zip(p1.tolist(), p2.tolist(), amp.tolist()):
        p = complex(x, y)
        assert a == coherent_roi_amplitude(params, p, p)
    with pytest.raises(ValidationError, match="state family"):
        roi_diagonal("momentum", params, values)


def _bits(z: complex) -> tuple[str, float, float]:
    """repr and the signs of both parts (repr alone shows no sign of a nan)."""
    return repr(z), math.copysign(1.0, z.real), math.copysign(1.0, z.imag)


def _scalar_walk(which, params, values):
    """The per-point amplitudes in p1-outer order, or the text of the first
    error the scalar function raises on that walk."""
    out = []
    for x in values:
        for y in values:
            try:
                if which == "position":
                    out.append(position_roi_amplitude(params, (x, y), (x, y)))
                else:
                    out.append(coherent_roi_amplitude(params, complex(x, y), complex(x, y)))
            except ValidationError as exc:
                return str(exc)
    return out


def _roi_bit_cases():
    """Moyal, Voros and random complex Phi at theta from 1e-3 to 1e2, on
    grids whose reach runs from inside the float range out to |p| = 40."""
    rng = np.random.default_rng(17)
    for theta in (1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0):
        random_phi = random_params(rng)
        families = (
            preset_params("moyal", theta),
            preset_params("voros", theta),
            make_params(theta, random_phi.phi11, random_phi.phi12, random_phi.phi22),
        )
        for params in families:
            # theta |p|^2 up to about 1400 keeps most grids in range; 40 crosses it
            reach = min(40.0, math.sqrt(1400.0 / theta)) * rng.uniform(0.3, 1.0)
            for r, n in ((reach, int(rng.integers(20, 51))), (40.0, int(rng.integers(5, 16)))):
                # random axis values: a symmetric grid repeats each |p| up to 8 times
                yield params, np.sort(rng.uniform(-r, r, n)).tolist()


@pytest.mark.parametrize("which", ["position", "coherent"])
def test_roi_diagonal_matches_the_scalar_amplitudes_bit_for_bit(which):
    points = errors = 0
    for params, values in _roi_bit_cases():
        want = _scalar_walk(which, params, values)
        if isinstance(want, str):
            with pytest.raises(ValidationError) as info:
                roi_diagonal(which, params, values)
            assert str(info.value) == want
            errors += 1
            continue
        p1, p2, amp = roi_diagonal(which, params, values)
        assert list(zip(p1.tolist(), p2.tolist())) == [(x, y) for x in values for y in values]
        assert [_bits(a) for a in amp.tolist()] == [_bits(a) for a in want]
        points += len(want)
    assert points > 10000 and errors > 3  # both the batched walk and the range edge ran


def test_roi_diagonal_raises_the_scalar_error_at_the_first_failing_point():
    voros = preset_params("voros", 1.0)
    # the pair factor exp(theta |p|^2 / 2) overflows from |p| = 37.7, first at (0, 38)
    with pytest.raises(ValidationError) as info:
        roi_diagonal("coherent", voros, [0.0, 37.0, 38.0])
    assert str(info.value) == "star_wave: the pair factor exp(722+0j) overflows"
    with pytest.raises(ValidationError, match="overflows") as scalar:
        coherent_roi_amplitude(voros, 38j, 38j)
    assert str(scalar.value) == str(info.value)
    # at theta = 2 the state Gaussians round to exactly 0 at the first corner
    with pytest.raises(ValidationError, match="got 0 terms .* exactly 0"):
        roi_diagonal("coherent", preset_params("voros", 2.0), np.linspace(-30, 30, 3))
    # a momentum whose |p|^2 overflows is named as the scalar walk meets it
    with pytest.raises(ValidationError, match=r"overflows at \|p\| = 1\.41e\+200"):
        roi_diagonal("coherent", voros, [-1e200, 0.0, 1e300])
    # so is a finite momentum whose |p| itself passes the float range
    for call in (lambda: roi_diagonal("coherent", voros, [1.7e308]),
                 lambda: coherent_roi_amplitude(voros, 1.7e308 + 1.7e308j, 1.7e308 + 1.7e308j),
                 lambda: coherent_momentum_overlap(0, 1.7e308 + 1.7e308j, 1.0)):
        with pytest.raises(ValidationError, match=r"overflows at \|p\| = inf"):
            call()


def test_roi_diagonal_calls_the_scalar_function_only_where_it_must(monkeypatch):
    # the Voros pair factor exp(theta |p|^2 / 2) overflows from |p| = 37.68: the
    # batch leaves it nan there, and only the first such point is rerun
    calls = []
    scalar = wavestar.coherent_roi_amplitude

    def counted(params, p, pprime):
        calls.append(p)
        return scalar(params, p, pprime)

    monkeypatch.setattr(wavestar, "coherent_roi_amplitude", counted)
    with pytest.raises(ValidationError) as info:
        roi_diagonal("coherent", preset_params("voros", 1.0), np.linspace(0, 30, 300))
    assert str(info.value) == "star_wave: the pair factor exp(711.662+0j) overflows"
    assert len(calls) == 2 and calls[0] == 0 and abs(calls[1]) > 37.68


def test_roi_diagonal_raises_the_first_points_scalar_error_before_the_batch():
    # at theta = -1 the batch would raise the theta error; the scalar walk
    # refuses the non-finite momentum first
    params = make_params(-1.0)
    with pytest.raises(ValidationError) as info:
        roi_diagonal("coherent", params, [math.nan])
    with pytest.raises(ValidationError, match="p must be finite") as scalar:
        coherent_roi_amplitude(params, complex(math.nan, math.nan), complex(math.nan, math.nan))
    assert str(info.value) == str(scalar.value)
    # like a scalar walk over no points, an empty grid checks nothing
    assert [c.size for c in roi_diagonal("coherent", params, [])] == [0, 0, 0]


# -- coherent-state kernel ----------------------------------------------------


def test_coherent_roi_voros_resolves():
    params = preset_params("voros", 1.0)
    rng = np.random.default_rng(10)
    for _ in range(20):
        p = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert abs(coherent_roi_amplitude(params, p, p) - 1.0) < 1e-12


def test_coherent_roi_moyal_gaussian():
    params = preset_params("moyal", 1.0)
    p = 1 + 1j  # |p|^2 = 2
    assert coherent_roi_amplitude(params, p, p) == pytest.approx(math.exp(-1.0))


def _hope_formula(params, p, q):
    t = params.theta
    c1 = params.phi11 - params.phi22 + 2j * params.phi12
    c2 = params.phi11 + params.phi22 - 2j * t
    c3 = params.phi11 + params.phi22 + 2j * t
    c4 = params.phi11 - params.phi22 - 2j * params.phi12
    pb, qb = p.conjugate(), q.conjugate()
    gauss = cmath.exp(-t * (abs(p) ** 2 + abs(q) ** 2) / 4.0)
    return gauss * cmath.exp((1j / 8) * (c1 * qb * pb + c2 * pb * q + c3 * p * qb + c4 * q * p))


def test_coherent_roi_generic_phi_matches_closed_form():
    params = make_params(1.0, phi11=-1j, phi12=1.0, phi22=-1j)
    for p in (1 + 0j, 0.7 + 0.3j, -1.2 + 0.8j):
        engine = coherent_roi_amplitude(params, p, p)
        assert abs(engine - _hope_formula(params, p, p)) < 1e-12


def test_coherent_roi_random_phi_matches_closed_form_on_diagonal():
    rng = np.random.default_rng(11)
    for _ in range(30):
        params = random_params(rng)
        p = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert abs(coherent_roi_amplitude(params, p, p) - _hope_formula(params, p, p)) < 1e-12


def test_coherent_roi_hermitian_for_voros():
    params = preset_params("voros", 1.4)
    rng = np.random.default_rng(12)
    for _ in range(20):
        p = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        q = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lhs = coherent_roi_amplitude(params, p, q)
        rhs = coherent_roi_amplitude(params, q, p).conjugate()
        assert abs(lhs - rhs) < 1e-12


def test_coherent_roi_requires_positive_theta():
    with pytest.raises(SingularParameterError):
        coherent_roi_amplitude(make_params(0.0), 1.0, 1.0)
    with pytest.raises(SingularParameterError):
        coherent_roi_amplitude(make_params(-1.0), 1.0, 1.0)
    with pytest.raises(SingularParameterError):
        coherent_roi_kernel(make_params(0.0))


def test_coherent_roi_kernel_matches_amplitude():
    rng = np.random.default_rng(13)
    for _ in range(20):
        params = random_params(rng)
        kern = coherent_roi_kernel(params)
        p = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        q = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        got = kern.evaluate((p.real, p.imag), (q.real, q.imag))
        assert abs(got - coherent_roi_amplitude(params, p, q)) < 1e-12


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e3])
def test_transported_position_states_resolve_the_identity(scale):
    # T-images of position states resolve the identity under *_Phi: on the
    # diagonal the pair factor exp((i/2) Phi(p, p)) meets the two T factors
    # exp(-(i/4) Phi(p, p)); theta and Phi scale by s, momenta by 1/sqrt(s)
    rng = np.random.default_rng(20)
    for _ in range(100):
        theta = rng.uniform(0.2, 3.0)
        phi = rng.normal(size=3) + 1j * rng.normal(size=3)
        params = make_params(scale * theta, *(scale * phi))
        p1, p2 = rng.normal(size=2) / math.sqrt(scale)
        bra = tmap_wave(WaveSum.plane_wave(-p1, -p2, amplitude=1.0 / TWO_PI), params)
        ket = tmap_wave(WaveSum.plane_wave(p1, p2, amplitude=1.0 / TWO_PI), params)
        delta = plane_integral_cartesian(star_wave(bra, ket, params))
        assert delta.freq == (0.0, 0.0)
        assert abs(delta.amplitude - 1.0) < 1e-12


def test_kernel_json_shape():
    d = position_roi_kernel(make_params(1.0, 0.1, 0.2, 0.3)).to_json_dict()
    assert set(d) == {"Q", "constant", "diagonal_only"}
    assert len(d["Q"]) == 4 and all(len(row) == 4 for row in d["Q"])
    assert all(len(entry) == 2 for row in d["Q"] for entry in row)
    assert d["diagonal_only"] is True
