"""Deformation parameters and the pairwise star kernels.

Everything happens in two spatial dimensions: the noncommutativity matrix
is the fixed antisymmetric block ``[[0, theta], [-theta, 0]]`` and the
product family is parametrized on top of it by a complex symmetric matrix
``[[phi11, phi12], [phi12, phi22]]``.  ``phi21`` is never stored; symmetry
is structural.  Units with hbar = 1 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SingularParameterError, ValidationError

PRESETS = ("moyal", "voros")


def _finite_complex(name: str, value) -> complex:
    try:
        z = complex(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a complex number, got {value!r}") from exc
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return z


def _finite_real(name: str, value) -> float:
    if isinstance(value, complex):
        if value.imag != 0.0:
            raise ValidationError(f"{name} must be real, got {value!r}")
        value = value.real
    try:
        x = float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a real number, got {value!r}") from exc
    if not math.isfinite(x):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return x


@dataclass(frozen=True)
class DeformationParams:
    """The pair (theta, Phi) that fixes one member of the product family.

    theta is the real noncommutativity scale (dimension length^2); phi11,
    phi12, phi22 are the stored entries of the complex symmetric spatial
    block of Phi.
    """

    theta: float
    phi11: complex
    phi12: complex
    phi22: complex

    def is_moyal(self) -> bool:
        return self.phi11 == 0 and self.phi12 == 0 and self.phi22 == 0

    def moyal(self) -> "DeformationParams":
        """The Phi = 0 member at the same theta."""
        return DeformationParams(self.theta, 0j, 0j, 0j)

    def kernel_matrix(self) -> tuple[complex, complex, complex, complex]:
        """Entries (K11, K12, K21, K22) of (i/2)(Phi + Theta), the cartesian
        bidifferential kernel."""
        h = 0.5j
        return (
            h * self.phi11,
            h * (self.phi12 + self.theta),
            h * (self.phi12 - self.theta),
            h * self.phi22,
        )

    def phi_quadratic(self, k1: complex, k2: complex) -> complex:
        """Phi_ij k_i k_j = phi11 k1^2 + 2 phi12 k1 k2 + phi22 k2^2."""
        return self.phi11 * k1 * k1 + 2.0 * self.phi12 * k1 * k2 + self.phi22 * k2 * k2


@dataclass(frozen=True)
class ComplexStarCoefficients:
    """Exponent coefficients of the star kernel in the (z, zbar) frame.

    Order is (left dz * right dz, left dz * right dzbar,
    left dzbar * right dz, left dzbar * right dzbar).
    """

    c_zz: complex
    c_zzbar: complex
    c_zbarz: complex
    c_zbarzbar: complex

    def astuple(self) -> tuple[complex, complex, complex, complex]:
        return (self.c_zz, self.c_zzbar, self.c_zbarz, self.c_zbarzbar)


def make_params(theta, phi11=0j, phi12=0j, phi22=0j) -> DeformationParams:
    """Validate and package (theta, Phi).

    theta must be a finite real; the phi entries may be any finite complex
    numbers (the Voros member needs -i*theta on the diagonal).
    """
    return DeformationParams(
        theta=_finite_real("theta", theta),
        phi11=_finite_complex("phi11", phi11),
        phi12=_finite_complex("phi12", phi12),
        phi22=_finite_complex("phi22", phi22),
    )


def preset_params(kind: str, theta) -> DeformationParams:
    """The two named members of the family: 'moyal' (Phi = 0) and 'voros'
    (Phi = -i*theta on the diagonal)."""
    if kind not in PRESETS:
        raise ValidationError(f"unknown preset {kind!r}; expected one of {PRESETS}")
    t = _finite_real("theta", theta)
    if kind == "moyal":
        return make_params(t)
    return make_params(t, phi11=-1j * t, phi12=0j, phi22=-1j * t)


def kernel_phase(p, q, params: DeformationParams) -> complex:
    """Exponent picked up by a pair of plane waves under the star product:
    -(i/2)(Phi + Theta)_ij p_i q_j.

    The full kernel is exp of this value; it is exact, no series involved.
    """
    p1, p2 = complex(p[0]), complex(p[1])
    q1, q2 = complex(q[0]), complex(q[1])
    t = params.theta
    s = (
        params.phi11 * p1 * q1
        + (params.phi12 + t) * p1 * q2
        + (params.phi12 - t) * p2 * q1
        + params.phi22 * p2 * q2
    )
    return -0.5j * s


def complex_coefficients(params: DeformationParams) -> ComplexStarCoefficients:
    """The four exponent coefficients of the star kernel in the z frame:
    (i/4theta) * (phi11 - phi22 + 2i phi12,
                  phi11 + phi22 - 2i theta,
                  phi11 + phi22 + 2i theta,
                  phi11 - phi22 - 2i phi12).

    Moyal reduces to (0, 1/2, -1/2, 0) and Voros to (0, 1, 0, 0) for any
    theta != 0.
    """
    if params.theta == 0.0:
        raise SingularParameterError(
            "complex-frame star coefficients are singular at theta = 0"
        )
    s = 0.25j / params.theta
    p11, p12, p22 = params.phi11, params.phi12, params.phi22
    return ComplexStarCoefficients(
        c_zz=s * (p11 - p22 + 2j * p12),
        c_zzbar=s * (p11 + p22 - 2j * params.theta),
        c_zbarz=s * (p11 + p22 + 2j * params.theta),
        c_zbarzbar=s * (p11 - p22 - 2j * p12),
    )
