"""Plane-wave star algebra, equivalence map, and identity-resolution kernels."""

import cmath
import math

import numpy as np
import pytest

from genstar import (
    DivergentIntegralError,
    FrameMismatchError,
    Polynomial2,
    SingularParameterError,
    ValidationError,
    WaveSum,
    coherent_momentum_overlap,
    coherent_roi_amplitude,
    coherent_roi_kernel,
    equivalence_residual,
    kernel_phase,
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
from genstar.suites import random_params, random_wavesum
from genstar.wavestar import AMP_TOL, roi_diagonal

TWO_PI = 2.0 * math.pi


# -- WaveSum basics ---------------------------------------------------------


def test_equal_wavevectors_merge():
    w = WaveSum.plane_wave(1.0, 2.0, 0.5) + WaveSum.plane_wave(1.0, 2.0, 0.25j)
    assert len(w.terms) == 1
    assert w.terms[0].amplitude == 0.5 + 0.25j


def test_cancelling_terms_leave_zero():
    w = WaveSum.plane_wave(1.0, 0.0, 1.0) - WaveSum.plane_wave(1.0, 0.0, 1.0)
    assert w.is_zero


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
        assert abs(abs(cmath.exp(kernel_phase(p, q, params))) - 1.0) < 1e-12


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
    # an amplitude at or below AMP_TOL is dropped on construction: zero terms
    underflowed = wave(0.5j, 0.5j, amplitude=AMP_TOL / 2)
    assert underflowed.is_zero
    with pytest.raises(ValidationError, match="got 0 terms.*AMP_TOL"):
        integral(underflowed)
    with pytest.raises(ValidationError, match="got 2 terms"):
        integral(wave(0.5j, 0.5j) + wave(1j, -1j))


def test_roi_amplitude_underflow_is_a_validation_error():
    # exp(-theta |p|^2 / 4) at |p| = 20 is far below AMP_TOL
    with pytest.raises(ValidationError, match="AMP_TOL"):
        coherent_roi_amplitude(preset_params("voros", 1.0), 20 + 0j, 20 + 0j)


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
    got = roi_diagonal("position", params, values)
    assert [(p1, p2) for p1, p2, _ in got] == [(a, b) for a in values for b in values]
    for p1, p2, amp in got:
        assert amp == position_roi_amplitude(params, (p1, p2), (p1, p2))
    for p1, p2, amp in roi_diagonal("coherent", params, values):
        p = complex(p1, p2)
        assert amp == coherent_roi_amplitude(params, p, p)
    with pytest.raises(ValidationError, match="state family"):
        roi_diagonal("momentum", params, values)


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


def test_coherent_roi_kernel_matches_amplitude():
    rng = np.random.default_rng(13)
    for _ in range(20):
        params = random_params(rng)
        kern = coherent_roi_kernel(params)
        p = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        q = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        got = kern.evaluate((p.real, p.imag), (q.real, q.imag))
        assert abs(got - coherent_roi_amplitude(params, p, q)) < 1e-12


def test_kernel_json_shape():
    d = position_roi_kernel(make_params(1.0, 0.1, 0.2, 0.3)).to_json_dict()
    assert set(d) == {"Q", "constant", "diagonal_only"}
    assert len(d["Q"]) == 4 and all(len(row) == 4 for row in d["Q"])
    assert all(len(entry) == 2 for row in d["Q"] for entry in row)
    assert d["diagonal_only"] is True
