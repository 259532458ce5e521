"""Closed-form star algebra on exponential-linear functions.

Plane waves are closed under the star product: amplitudes pick up the
exact pairwise kernel and wavevectors add.  That closure is what this
module exploits to check the equivalence map in momentum space and to
evaluate the resolution-of-identity amplitudes for position-like and
coherent states.  Plane integrals are distributional bookkeeping (deltas),
never quadrature.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .deformation import DeformationParams, _finite_complex, complex_coefficients, kernel_phase
from .errors import (
    DivergentIntegralError,
    FrameMismatchError,
    SingularParameterError,
    ValidationError,
)
from .polystar import CARTESIAN, COMPLEX, FRAMES

TWO_PI = 2.0 * math.pi

#: amplitudes below this magnitude are treated as zero when merging terms
AMP_TOL = 1e-14

#: wavevectors closer than this are considered equal when merging/matching
WVEC_TOL = 1e-9


@dataclass(frozen=True)
class ExpLinearTerm:
    """One term A * exp(linear form).

    Cartesian frame: A * exp(i(k1 x1 + k2 x2)) with wavevector (k1, k2).
    Complex frame:   A * exp(a z + b zbar) with wavevector (a, b).
    Complex wavevector components are allowed; they encode Gaussian
    damping factors and the z-frame exponents of state overlaps.
    """

    amplitude: complex
    frame: str
    wavevector: tuple[complex, complex]

    def __post_init__(self):
        if self.frame not in FRAMES:
            raise ValidationError(f"unknown frame {self.frame!r}")
        amp = _finite_complex("amplitude", self.amplitude)
        k = (
            _finite_complex("wavevector[0]", self.wavevector[0]),
            _finite_complex("wavevector[1]", self.wavevector[1]),
        )
        object.__setattr__(self, "amplitude", amp)
        object.__setattr__(self, "wavevector", k)

    def evaluate(self, v1, v2) -> complex:
        a, b = self.wavevector
        if self.frame == CARTESIAN:
            return self.amplitude * cmath.exp(1j * (a * v1 + b * v2))
        return self.amplitude * cmath.exp(a * v1 + b * v2)


@dataclass(frozen=True)
class WaveSum:
    """Finite sum of exponential-linear terms sharing one frame.

    Terms with (numerically) equal wavevectors are merged on construction
    and zero-amplitude terms are dropped; the empty sum is the zero
    function.
    """

    terms: tuple[ExpLinearTerm, ...]
    frame: str = CARTESIAN

    def __post_init__(self):
        if self.frame not in FRAMES:
            raise ValidationError(f"unknown frame {self.frame!r}")
        for t in self.terms:
            if t.frame != self.frame:
                raise FrameMismatchError(
                    f"term frame {t.frame!r} does not match sum frame {self.frame!r}"
                )
        object.__setattr__(self, "terms", _merge_terms(self.terms, self.frame))

    @classmethod
    def zero(cls, frame: str = CARTESIAN) -> "WaveSum":
        return cls((), frame)

    @classmethod
    def plane_wave(cls, k1, k2, amplitude=1.0) -> "WaveSum":
        """amplitude * exp(i(k1 x1 + k2 x2))."""
        term = ExpLinearTerm(complex(amplitude), CARTESIAN, (complex(k1), complex(k2)))
        return cls((term,), CARTESIAN)

    @classmethod
    def z_exponential(cls, a, b, amplitude=1.0) -> "WaveSum":
        """amplitude * exp(a z + b zbar)."""
        term = ExpLinearTerm(complex(amplitude), COMPLEX, (complex(a), complex(b)))
        return cls((term,), COMPLEX)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "WaveSum") -> "WaveSum":
        if not isinstance(other, WaveSum):
            return NotImplemented
        if other.frame != self.frame:
            raise FrameMismatchError(f"cannot add {self.frame!r} and {other.frame!r} sums")
        return WaveSum(self.terms + other.terms, self.frame)

    def __mul__(self, scalar) -> "WaveSum":
        c = complex(scalar)
        return WaveSum(
            tuple(ExpLinearTerm(t.amplitude * c, t.frame, t.wavevector) for t in self.terms),
            self.frame,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "WaveSum":
        return self * (-1.0)

    def __sub__(self, other: "WaveSum") -> "WaveSum":
        return self + (-other)

    def pointwise_mul(self, other: "WaveSum") -> "WaveSum":
        """Ordinary (commutative) product; exponents add termwise."""
        if other.frame != self.frame:
            raise FrameMismatchError(f"cannot multiply {self.frame!r} and {other.frame!r} sums")
        out = []
        for s in self.terms:
            for t in other.terms:
                out.append(
                    ExpLinearTerm(
                        s.amplitude * t.amplitude,
                        self.frame,
                        (s.wavevector[0] + t.wavevector[0], s.wavevector[1] + t.wavevector[1]),
                    )
                )
        return WaveSum(tuple(out), self.frame)

    def evaluate(self, v1, v2) -> complex:
        return sum((t.evaluate(v1, v2) for t in self.terms), 0j)


def _merge_terms(terms, frame) -> tuple[ExpLinearTerm, ...]:
    merged: list[list] = []  # [k1, k2, amplitude]
    for t in terms:
        k1, k2 = t.wavevector
        for slot in merged:
            if abs(slot[0] - k1) <= WVEC_TOL and abs(slot[1] - k2) <= WVEC_TOL:
                slot[2] += t.amplitude
                break
        else:
            merged.append([k1, k2, t.amplitude])
    return tuple(
        ExpLinearTerm(amp, frame, (k1, k2)) for k1, k2, amp in merged if abs(amp) > AMP_TOL
    )


def star_wave(f: WaveSum, g: WaveSum, params: DeformationParams) -> WaveSum:
    """Star product of two exponential-linear sums; exact and closed.

    Cartesian terms pick up exp(kernel_phase(k, q)); complex-frame terms
    pick up exp(czz a1 a2 + czzbar a1 b2 + czbarz b1 a2 + czbarzbar b1 b2).
    """
    if f.frame != g.frame:
        raise FrameMismatchError(f"cannot star {f.frame!r} with {g.frame!r}")
    if f.is_zero or g.is_zero:
        return WaveSum.zero(f.frame)
    coeffs = None
    if f.frame == COMPLEX:
        coeffs = complex_coefficients(params).astuple()
    out = []
    for s in f.terms:
        for t in g.terms:
            if f.frame == CARTESIAN:
                phase = kernel_phase(s.wavevector, t.wavevector, params)
            else:
                a1, b1 = s.wavevector
                a2, b2 = t.wavevector
                czz, czzbar, czbarz, czbarzbar = coeffs
                phase = czz * a1 * a2 + czzbar * a1 * b2 + czbarz * b1 * a2 + czbarzbar * b1 * b2
            out.append(
                ExpLinearTerm(
                    s.amplitude * t.amplitude * cmath.exp(phase),
                    f.frame,
                    (s.wavevector[0] + t.wavevector[0], s.wavevector[1] + t.wavevector[1]),
                )
            )
    return WaveSum(tuple(out), f.frame)


def tmap_wave(f: WaveSum, params: DeformationParams) -> WaveSum:
    """Equivalence map on plane waves: each term's amplitude multiplies by
    exp(-(i/4) Phi_ij k_i k_j); wavevectors are unchanged."""
    if f.frame != CARTESIAN:
        raise FrameMismatchError("the equivalence map acts on cartesian plane waves")
    out = tuple(
        ExpLinearTerm(
            t.amplitude * cmath.exp(-0.25j * params.phi_quadratic(*t.wavevector)),
            CARTESIAN,
            t.wavevector,
        )
        for t in f.terms
    )
    return WaveSum(out, CARTESIAN)


def max_amplitude_diff(f: WaveSum, g: WaveSum, ktol: float = WVEC_TOL) -> float:
    """Largest termwise amplitude difference after matching wavevectors;
    unmatched terms contribute their full magnitude."""
    if f.frame != g.frame:
        raise FrameMismatchError("cannot compare sums in different frames")
    rest = list(g.terms)
    worst = 0.0
    for s in f.terms:
        for j, t in enumerate(rest):
            if (
                abs(s.wavevector[0] - t.wavevector[0]) <= ktol
                and abs(s.wavevector[1] - t.wavevector[1]) <= ktol
            ):
                worst = max(worst, abs(s.amplitude - t.amplitude))
                rest.pop(j)
                break
        else:
            worst = max(worst, abs(s.amplitude))
    for t in rest:
        worst = max(worst, abs(t.amplitude))
    return worst


def equivalence_residual(f: WaveSum, g: WaveSum, params: DeformationParams) -> float:
    """max |T(f *_M g) - T(f) * T(g)| over matched terms.

    Identically zero for every symmetric Phi; returning the residual lets
    callers verify the identity at a stated tolerance.
    """
    if f.frame != CARTESIAN or g.frame != CARTESIAN:
        raise FrameMismatchError("the equivalence identity is checked on cartesian waves")
    moyal = params.moyal()
    lhs = tmap_wave(star_wave(f, g, moyal), params)
    rhs = star_wave(tmap_wave(f, params), tmap_wave(g, params), params)
    return max_amplitude_diff(lhs, rhs)


# -- distributional plane integrals -------------------------------------


@dataclass(frozen=True)
class DeltaTerm:
    """amplitude * delta(freq[0]) * delta(freq[1]) produced by a plane
    integral; freq components are real."""

    amplitude: complex
    freq: tuple[float, float]


def _single_term(f: WaveSum, name: str) -> ExpLinearTerm:
    if len(f.terms) != 1:
        raise ValidationError(
            f"{name} needs a one-term sum, got {len(f.terms)} terms (an amplitude that "
            f"underflows to |amplitude| <= AMP_TOL = {AMP_TOL:g} is dropped)"
        )
    return f.terms[0]


def plane_integral_cartesian(f: WaveSum, imag_tol: float = 1e-10) -> DeltaTerm:
    """Integral over the (x1, x2) plane of a one-term sum:
    A exp(i k.x) -> (2 pi)^2 A delta2(k).

    A wavevector with a nonzero imaginary part makes the integral divergent
    and raises, never silently limits.
    """
    if f.frame != CARTESIAN:
        raise FrameMismatchError("plane_integral_cartesian expects a cartesian sum")
    t = _single_term(f, "plane_integral_cartesian")
    k1, k2 = t.wavevector
    if abs(k1.imag) > imag_tol or abs(k2.imag) > imag_tol:
        raise DivergentIntegralError(
            f"plane integral of exp(i k.x) diverges for complex k = {t.wavevector!r}"
        )
    return DeltaTerm(t.amplitude * TWO_PI**2, (k1.real, k2.real))


def plane_integral_z(f: WaveSum, imag_tol: float = 1e-10) -> DeltaTerm:
    """Integral (1/pi) d(Re z) d(Im z) of a one-term sum A exp(a z + b zbar).

    Writing z = u + iv the exponent is (a+b)u + i(a-b)v, which is
    oscillatory only when a+b is purely imaginary and a-b is real; the
    result is then 4 pi A delta(-i(a+b)) delta(a-b).
    """
    if f.frame != COMPLEX:
        raise FrameMismatchError("plane_integral_z expects a complex-frame sum")
    t = _single_term(f, "plane_integral_z")
    a, b = t.wavevector
    u_freq = -1j * (a + b)  # exponent along Re z is i * u_freq
    v_freq = a - b  # exponent along Im z is i * v_freq
    if abs(u_freq.imag) > imag_tol or abs(v_freq.imag) > imag_tol:
        raise DivergentIntegralError(
            f"plane integral of exp(a z + b zbar) diverges for (a, b) = {t.wavevector!r}"
        )
    return DeltaTerm(t.amplitude * 4.0 * math.pi, (u_freq.real, v_freq.real))


# -- state overlaps and resolution-of-identity amplitudes ----------------


def overlap_px(p, x) -> complex:
    """Momentum/position-state overlap (1/2 pi) exp(-i p.x)."""
    p1, p2 = float(p[0]), float(p[1])
    x1, x2 = float(x[0]), float(x[1])
    return cmath.exp(-1j * (p1 * x1 + p2 * x2)) / TWO_PI


def position_roi_amplitude(params: DeformationParams, p, pprime) -> complex:
    """Amplitude multiplying delta2(p - p') in the star-sandwiched
    position-state identity integral, canonicalized on the delta support.

    Built from the engine's own pieces: (p|x) star (x|p') integrated over
    the plane.  The closed form is exp((i/2)[Phi_ij p_i p'_j
    + theta(p1 p2' - p2 p1')]); the identity is resolved iff the diagonal
    amplitude is 1, which happens exactly at Phi = 0.
    """
    p1, p2 = float(p[0]), float(p[1])
    q1, q2 = float(pprime[0]), float(pprime[1])
    bra = WaveSum.plane_wave(-p1, -p2, amplitude=1.0 / TWO_PI)  # (p|x) as a function of x
    ket = WaveSum.plane_wave(q1, q2, amplitude=1.0 / TWO_PI)  # (x|p')
    delta = plane_integral_cartesian(star_wave(bra, ket, params))
    return delta.amplitude  # the (2 pi)^2 delta weight cancels the 1/(2 pi)^2 prefactors


def coherent_momentum_overlap(z, p, theta) -> complex:
    """Closed-form coherent/momentum-state overlap:
    sqrt(theta/2 pi) exp(-theta |p|^2 / 4) exp(i sqrt(theta/2)(p zbar + pbar z))."""
    t = float(theta)
    if t <= 0.0:
        raise SingularParameterError(f"coherent states need theta > 0, got {theta!r}")
    z = complex(z)
    p = complex(p)
    s = math.sqrt(t / 2.0)
    return (
        math.sqrt(t / TWO_PI)
        * cmath.exp(-t * abs(p) ** 2 / 4.0)
        * cmath.exp(1j * s * (p * z.conjugate() + p.conjugate() * z))
    )


def coherent_roi_amplitude(params: DeformationParams, p, pprime) -> complex:
    """Amplitude multiplying delta(p1-p1') delta(p2-p2') in the
    star-sandwiched coherent-state identity integral (1/pi) dz dzbar.

    The integrand is built with star_wave on z-frame exponentials and then
    integrated distributionally; only the diagonal p = p' carries the
    identity-resolution verdict.  Voros parameters give exactly 1.
    """
    t = params.theta
    if t <= 0.0:
        raise SingularParameterError(f"coherent states need theta > 0, got {params.theta!r}")
    p = complex(p)
    q = complex(pprime)
    s = math.sqrt(t / 2.0)
    pref = math.sqrt(t / TWO_PI)
    # (p'|z,zbar) = conj[(z,zbar|p')] and (z,zbar|p), as functions of (z, zbar)
    bra = WaveSum.z_exponential(
        -1j * s * q.conjugate(), -1j * s * q, amplitude=pref * cmath.exp(-t * abs(q) ** 2 / 4.0)
    )
    ket = WaveSum.z_exponential(
        1j * s * p.conjugate(), 1j * s * p, amplitude=pref * cmath.exp(-t * abs(p) ** 2 / 4.0)
    )
    delta = plane_integral_z(star_wave(bra, ket, params))
    # delta(2s(p1-p1')) delta(2s(p2-p2')) = delta2(p - p') / (2 theta)
    return delta.amplitude / (2.0 * t)


def roi_diagonal(which: str, params: DeformationParams, values) -> list[tuple]:
    """(p1, p2, amp) over the grid values x values, p1 outermost: amp is the
    diagonal (p = p') RoI amplitude of the states that which names, position
    or coherent; the identity is resolved where amp = 1."""
    if which == "position":
        def amplitude(p1, p2):
            return position_roi_amplitude(params, (p1, p2), (p1, p2))
    elif which == "coherent":
        def amplitude(p1, p2):
            p = complex(p1, p2)
            return coherent_roi_amplitude(params, p, p)
    else:
        raise ValidationError(f"unknown state family {which!r}; expected position or coherent")
    return [(p1, p2, amplitude(p1, p2)) for p1 in values for p2 in values]


# -- quadratic-form kernel amplitudes ------------------------------------


@dataclass(frozen=True)
class KernelAmplitude:
    """exp((u, v) . Q . (u, v) + c) on u = (p1, p2), v = (p1', p2').

    The amplitude multiplies delta2(p - p'); when diagonal_only is set the
    off-diagonal values are bookkeeping only and every identity-resolution
    verdict is read on the support p = p'.
    """

    quad: np.ndarray
    constant: complex = 0j
    diagonal_only: bool = True

    def __post_init__(self):
        q = np.asarray(self.quad, dtype=complex)
        if q.shape != (4, 4):
            raise ValidationError(f"quad must be 4x4, got shape {q.shape}")
        if not np.allclose(q, q.T, atol=1e-12):
            raise ValidationError("quad must be symmetric")
        q = 0.5 * (q + q.T)
        q.setflags(write=False)
        object.__setattr__(self, "quad", q)
        object.__setattr__(self, "constant", _finite_complex("constant", self.constant))

    def evaluate(self, p, pprime) -> complex:
        x = np.array([p[0], p[1], pprime[0], pprime[1]], dtype=complex)
        return complex(cmath.exp(complex(x @ self.quad @ x) + self.constant))

    def diagonal(self, p) -> complex:
        return self.evaluate(p, p)

    def to_json_dict(self) -> dict:
        return {
            "Q": [[[float(v.real), float(v.imag)] for v in row] for row in self.quad],
            "constant": [float(self.constant.real), float(self.constant.imag)],
            "diagonal_only": bool(self.diagonal_only),
        }


def position_roi_kernel(params: DeformationParams) -> KernelAmplitude:
    """The position-state identity-resolution amplitude as a quadratic
    form: exponent (i/2)(Phi + Theta)_ij p_i p'_j."""
    t = params.theta
    bil = 0.5j * np.array(
        [
            [params.phi11, params.phi12 + t],
            [params.phi12 - t, params.phi22],
        ],
        dtype=complex,
    )
    q = np.zeros((4, 4), dtype=complex)
    q[:2, 2:] = bil / 2.0
    q[2:, :2] = bil.T / 2.0
    return KernelAmplitude(q, 0j, diagonal_only=True)


def coherent_roi_kernel(params: DeformationParams) -> KernelAmplitude:
    """The coherent-state identity-resolution amplitude as a quadratic
    form: Gaussian -theta(|p|^2 + |p'|^2)/4 plus the z-frame kernel
    bilinear (theta/2)[czz pbar' pbar + czzbar pbar' p + czbarz p' pbar
    + czbarzbar p' p] expanded over real momentum components."""
    t = params.theta
    if t <= 0.0:
        raise SingularParameterError(f"coherent states need theta > 0, got {params.theta!r}")
    czz, czzbar, czbarz, czbarzbar = complex_coefficients(params).astuple()
    w = t / 2.0
    bil = np.zeros((2, 2), dtype=complex)  # indexed [unprimed axis, primed axis]
    for coeff, sp, su in ((czz, -1, -1), (czzbar, -1, +1), (czbarz, +1, -1), (czbarzbar, +1, +1)):
        # coeff * (p1' + sp*i*p2') * (p1 + su*i*p2)
        bil[0, 0] += w * coeff
        bil[1, 0] += w * coeff * (su * 1j)
        bil[0, 1] += w * coeff * (sp * 1j)
        bil[1, 1] += w * coeff * (su * 1j) * (sp * 1j)
    q = np.zeros((4, 4), dtype=complex)
    q[0, 0] = q[1, 1] = q[2, 2] = q[3, 3] = -t / 4.0
    q[:2, 2:] += bil / 2.0
    q[2:, :2] += bil.T / 2.0
    return KernelAmplitude(q, 0j, diagonal_only=True)
