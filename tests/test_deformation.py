"""Parameter bundles and the star kernel."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genstar import (
    CARTESIAN,
    COMPLEX,
    DeformationParams,
    ExpLinearTerm,
    Polynomial2,
    SingularParameterError,
    ValidationError,
    WaveSum,
    coherent_momentum_overlap,
    coherent_roi_amplitude,
    coherent_vector,
    make_params,
    momentum_state_op,
    overlap_px,
    preset_params,
    quantum_ops,
    star_kernel,
    star_wave,
    to_cartesian_frame,
    to_complex_frame,
)
from genstar.fockspace import QuantumOps

small_complex = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


def test_make_params_moyal_trivial():
    p = make_params(1.0, 0, 0, 0)
    assert p.theta == 1.0
    assert p.phi11 == p.phi12 == p.phi22 == 0


def test_make_params_voros_entries():
    p = make_params(1.0, -1j, 0, -1j)
    assert p.phi11 == -1j and p.phi22 == -1j and p.phi12 == 0


def test_make_params_rejects_nonfinite():
    with pytest.raises(ValidationError, match="phi11"):
        make_params(1.0, float("nan"), 0, 0)
    with pytest.raises(ValidationError, match="theta"):
        make_params(float("inf"))
    with pytest.raises(ValidationError, match="theta"):
        make_params(1 + 1j)


@pytest.mark.parametrize(
    "args, message",
    [
        (("a", 0j, 0j, 0j), "theta must be a real number"),
        ((float("nan"), 0j, 0j, 0j), "theta must be finite"),
        ((1.0, "a", 0j, 0j), "phi11 must be a complex number"),
        ((1.0, 0j, None, 0j), "phi12 must be a complex number"),
        ((1.0, 0j, 0j, complex(0, float("inf"))), "phi22 must be finite"),
    ],
    ids=["theta-str", "theta-nan", "phi11-str", "phi12-none", "phi22-inf"],
)
def test_deformation_params_built_directly_check_theta_and_phi(args, message):
    # a direct build is checked as make_params checks it, not later by star_wave or star_poly
    with pytest.raises(ValidationError, match=message):
        DeformationParams(*args)


def test_deformation_params_store_float_theta_and_complex_phi():
    params = DeformationParams(2, 1, 0.5, 0j)
    assert params == make_params(2.0, 1 + 0j, 0.5 + 0j, 0j)
    assert type(params.theta) is float and type(params.phi11) is complex


def test_preset_moyal():
    p = preset_params("moyal", 0.5)
    assert p.theta == 0.5
    assert p.is_moyal()


def test_preset_voros():
    p = preset_params("voros", 0.5)
    assert p.phi11 == -0.5j
    assert p.phi12 == 0
    assert p.phi22 == -0.5j


def test_preset_voros_theta_zero_degenerates():
    p = preset_params("voros", 0.0)
    assert p.theta == 0.0
    assert p.is_moyal()


def test_preset_unknown_kind():
    with pytest.raises(ValidationError, match="preset"):
        preset_params("weyl", 1.0)


def _matrix(kernel):
    k11, k12, k21, k22 = kernel
    return np.array([[k11, k12], [k21, k22]], dtype=complex)


def _pair_amplitude(p, q, params):
    """exp of the exponent that two unit plane waves pick up under the star
    product, read from star_wave."""
    (term,) = star_wave(WaveSum.plane_wave(*p), WaveSum.plane_wave(*q), params).terms
    return term.amplitude


def test_kernel_phase_moyal_cross():
    for theta in (0.5, 1.0, 1.7):
        k11, k12, k21, k22 = star_kernel(CARTESIAN, preset_params("moyal", theta))
        assert k12 == pytest.approx(0.5j * theta)
        assert (k11, k21, k22) == (0, -k12, 0)


def test_kernel_phase_voros_damping():
    for theta in (0.5, 1.0, 1.7):
        k11, _, _, k22 = star_kernel(CARTESIAN, preset_params("voros", theta))
        assert k11 == pytest.approx(theta / 2.0)
        assert k22 == pytest.approx(theta / 2.0)


def test_kernel_phase_zero_vector():
    # the zero wavevector is the unit: its exponent vanishes exactly
    p = make_params(0.7, 0.1 + 0.2j, -0.3j, 1.0)
    assert _pair_amplitude((2.0, -1.0), (0.0, 0.0), p) == 1
    assert _pair_amplitude((0.0, 0.0), (2.0, -1.0), p) == 1


@settings(max_examples=50, deadline=None)
@given(a=small_complex, b=small_complex, p1=small_complex, p2=small_complex,
       q1=small_complex, q2=small_complex)
def test_kernel_phase_bilinear(a, b, p1, p2, q1, q2):
    # |exponent| <= sum |K_ab| < pi here, so the principal log recovers it
    params = make_params(1.3, 0.2 - 0.1j, 0.4j, -0.6)
    exponent = cmath.log(_pair_amplitude((p1, p2), (q1, q2), params))
    lhs = _pair_amplitude((a * p1, a * p2), (b * q1, b * q2), params)
    rhs = cmath.exp(a * b * exponent)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_kernel_phase_swap_leaves_phi_part():
    # K + K^T = i Phi for every member of the family
    rng = np.random.default_rng(3)
    for _ in range(25):
        params = make_params(rng.uniform(0.1, 2.0), *(complex(*rng.uniform(-1, 1, 2)) for _ in range(3)))
        k = _matrix(star_kernel(CARTESIAN, params))
        phi = np.array([[params.phi11, params.phi12], [params.phi12, params.phi22]])
        assert np.max(np.abs(k + k.T - 1j * phi)) < 1e-15


def test_kernel_phase_antisymmetric_for_moyal():
    # K = -K^T at Phi = 0, so the Moyal exponent is odd under swapping waves
    for theta in (0.1, 1.7, 40.0):
        k = _matrix(star_kernel(CARTESIAN, preset_params("moyal", theta)))
        assert np.array_equal(k, -k.T)


def test_complex_coefficients_moyal():
    c = star_kernel(COMPLEX, preset_params("moyal", 1.0))
    assert c == (0j, 0.5 + 0j, -0.5 + 0j, 0j)


def test_complex_coefficients_voros():
    c = star_kernel(COMPLEX, preset_params("voros", 1.0))
    assert c == (0j, 1.0 + 0j, 0j, 0j)


def test_complex_coefficients_derived_point():
    # direct substitution oracle: theta=2, phi11=4i gives
    # (i/8)(4i, 4i-4i, 4i+4i, 4i) = (-1/2, 0, -1, -1/2)
    c = star_kernel(COMPLEX, make_params(2.0, 4j, 0, 0))
    expected = (-0.5 + 0j, 0j, -1.0 + 0j, -0.5 + 0j)
    assert max(abs(a - b) for a, b in zip(c, expected)) < 1e-15


def test_complex_coefficients_theta_zero_raises():
    with pytest.raises(SingularParameterError):
        star_kernel(COMPLEX, make_params(0.0, 1.0, 0, 0))


def test_coefficient_difference_is_unity():
    # czzbar - czbarz = (i/4theta)(-4i theta) = 1 for every parameter set
    rng = np.random.default_rng(5)
    for _ in range(20):
        params = make_params(
            rng.uniform(0.1, 2.0),
            complex(*rng.uniform(-1, 1, 2)),
            complex(*rng.uniform(-1, 1, 2)),
            complex(*rng.uniform(-1, 1, 2)),
        )
        _, c_zzbar, c_zbarz, _ = star_kernel(COMPLEX, params)
        assert abs((c_zzbar - c_zbarz) - 1.0) < 1e-12


def test_coefficients_invert_to_parameters():
    # The four coefficient equations are linear and homogeneous in
    # (phi11, phi12, phi22, theta), so the parameter vector spans the
    # null space; fixing the theta component recovers Phi.
    rng = np.random.default_rng(6)
    for _ in range(20):
        theta = rng.uniform(0.1, 2.0)
        phi = [complex(*rng.uniform(-1, 1, 2)) for _ in range(3)]
        params = make_params(theta, *phi)
        g = star_kernel(COMPLEX, params)
        rows = [
            [1j, -2.0, -1j, -4.0 * g[0]],
            [1j, 0.0, 1j, 2.0 - 4.0 * g[1]],
            [1j, 0.0, 1j, -2.0 - 4.0 * g[2]],
            [1j, 2.0, -1j, -4.0 * g[3]],
        ]
        a = np.array(rows, dtype=complex)
        _, s, vh = np.linalg.svd(a)
        assert s[-1] < 1e-12  # the parameter direction is annihilated
        assert s[-2] > 1e-6  # and it is the only one
        v = vh[-1].conj()
        v = v * (theta / v[3])
        assert abs(v[0] - params.phi11) < 1e-12
        assert abs(v[1] - params.phi12) < 1e-12
        assert abs(v[2] - params.phi22) < 1e-12
        assert abs(v[3].imag) < 1e-12


def test_kernel_matrix_entries():
    params = make_params(2.0, 1.0, 3.0, -1.0)
    k11, k12, k21, k22 = star_kernel(CARTESIAN, params)
    assert k11 == 0.5j * 1.0
    assert k12 == 0.5j * 5.0
    assert k21 == 0.5j * 1.0
    assert k22 == 0.5j * -1.0


def test_params_are_frozen():
    params = make_params(1.0)
    with pytest.raises(AttributeError):
        params.theta = 2.0


def test_moyal_twin():
    params = make_params(1.5, 1j, 2, 3)
    twin = params.moyal()
    assert twin.theta == 1.5 and twin.is_moyal()


#: every entry point that needs theta > 0, as a function of theta
THETA_GATED = {
    "coherent_momentum_overlap": lambda t: coherent_momentum_overlap(0.1, 0.2, t),
    "quantum_ops": lambda t: quantum_ops(DeformationParams(t, 0j, 0j, 0j), 4),
    "momentum_state_op": lambda t: momentum_state_op(0.2, t, 4),
    "to_complex_frame": lambda t: to_complex_frame(Polynomial2.variable("x1"), t),
    "to_cartesian_frame": lambda t: to_cartesian_frame(Polynomial2.variable("z"), t),
}


@pytest.mark.parametrize("name", sorted(THETA_GATED))
@pytest.mark.parametrize(
    "theta, error",
    [
        (0, SingularParameterError),
        (-1, SingularParameterError),
        (float("nan"), ValidationError),
        ("abc", ValidationError),
    ],
)
def test_theta_gate_rejects_nonpositive_and_non_numbers(name, theta, error):
    with pytest.raises(error, match="theta"):
        THETA_GATED[name](theta)


#: an int past the float range, a term whose wavevector is not a pair, a
#: coefficient box past _MAX_TENSOR or a point that is not a finite number, as
#: the argument of each entry point that converts it
_HUGE = 2**1100
_BAD_NUMBERS = {
    "make_params": (lambda: make_params(_HUGE), "theta must be finite, got an int past the float range"),
    "make_params-phi11": (lambda: make_params(1.0, phi11=_HUGE), "phi11 must be finite, got an int"),
    "preset_params": (lambda: preset_params("voros", _HUGE), "theta must be finite, got an int"),
    "coherent_roi_amplitude": (lambda: coherent_roi_amplitude(preset_params("voros", 1.0), _HUGE, 0),
                               "p must be finite, got an int"),
    "momentum_state_op": (lambda: momentum_state_op(_HUGE, 1.0, 8), "p must be finite, got an int"),
    "overlap_px": (lambda: overlap_px((_HUGE, 0), (0, 0)), r"p\[0\] must be finite, got an int"),
    "coherent_vector": (lambda: coherent_vector(_HUGE, 8), "z must be finite, got an int"),
    "QuantumOps": (lambda: QuantumOps(_HUGE, 8), "theta must be finite, got an int"),
    **{f"wavevector-{v!r}": ((lambda v=v: WaveSum((ExpLinearTerm(1.0, CARTESIAN, v),))),
                             "wavevector must be a pair")
       for v in [(1,), (1, 2, 3), 5, None]},
    "Polynomial2-box": (lambda: Polynomial2({(10**6, 10**6): 1}), "a box of more than 4194304 coefficients"),
    "Polynomial2-huge-exponent": (lambda: Polynomial2({(_HUGE, 0): 1}), "a box of more than"),
    "Polynomial2.variable": (lambda: Polynomial2.variable([1, 2]), r"unknown variable \[1, 2\]"),
    **{f"{kind}.evaluate-{name}": ((lambda f=f, v=v: f.evaluate(0, v)), f"v2 must be {text}")
       for kind, f in (("Polynomial2", Polynomial2.variable("x2")), ("WaveSum", WaveSum.plane_wave(0, 1)))
       for name, v, text in (("inf", float("inf"), "finite, got inf"), ("huge", _HUGE, "finite, got an int"),
                             ("None", None, "a complex number, got None"),
                             ("str", "x", "a complex number, got 'x'"))},
}


@pytest.mark.parametrize("name", sorted(_BAD_NUMBERS))
def test_huge_ints_and_bad_wavevectors_are_validation_errors(name):
    call, message = _BAD_NUMBERS[name]
    with pytest.raises(ValidationError, match=message) as exc:
        call()
    assert len(str(exc.value)) < 200  # the int's 332 digits are not printed
