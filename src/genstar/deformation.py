"""Deformation parameters and the star kernel.

Everything happens in two spatial dimensions: the noncommutativity matrix
is the fixed antisymmetric block ``[[0, theta], [-theta, 0]]`` and the
product family is parametrized on top of it by a complex symmetric matrix
``[[phi11, phi12], [phi12, phi22]]``.  ``phi21`` is never stored; symmetry
is structural.  Units with hbar = 1 throughout.

The star product is the exponential of the bidifferential form
``K_ab d_a (x) d_b`` with ``K = (i/2)(Phi + Theta)``; ``star_kernel`` is
the one place that writes K, in cartesian (x1, x2) or complex (z, zbar)
coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SingularParameterError, ValidationError

PRESETS = ("moyal", "voros")

CARTESIAN = "cartesian"
COMPLEX = "complex"
FRAMES = (CARTESIAN, COMPLEX)
#: each frame's two variable names, in axis order
_FRAME_VARIABLES = {CARTESIAN: ("x1", "x2"), COMPLEX: ("z", "zbar")}

#: the most entries an array sized by its input may hold: 64 MiB of complex
#: doubles.  It bounds the polynomial star tensor and the Fock matrices
_MAX_TENSOR = 1 << 22


def _complex(what: str, value) -> complex:
    """value as a Python complex, or a ValidationError saying that `what`
    needs complex numbers."""
    try:
        return complex(value)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int past the float range
        raise ValidationError(f"{what} needs complex numbers: {exc}") from exc


def _finite_complex(name: str, value) -> complex:
    try:
        z = complex(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a complex number, got {value!r}") from exc
    except OverflowError as exc:  # an int past the float range, too long to print
        raise ValidationError(f"{name} must be finite, got an int past the float range") from exc
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
    except OverflowError as exc:  # an int past the float range, too long to print
        raise ValidationError(f"{name} must be finite, got an int past the float range") from exc
    if not math.isfinite(x):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return x


def _positive_theta(theta, needed_by: str) -> float:
    """theta as a finite float, for the constructions that need theta > 0:
    coherent and momentum states, the Fock operators and the frame change."""
    t = _finite_real("theta", theta)
    if t <= 0.0:
        raise SingularParameterError(f"{needed_by} theta > 0, got {theta!r}")
    return t


@dataclass(frozen=True)
class DeformationParams:
    """The pair (theta, Phi) that fixes one member of the product family.

    theta is the finite real noncommutativity scale (dimension length^2);
    phi11, phi12, phi22 are the finite complex stored entries of the
    symmetric spatial block of Phi (Voros has -i*theta on the diagonal).
    """

    theta: float
    phi11: complex
    phi12: complex
    phi22: complex

    def __post_init__(self):
        object.__setattr__(self, "theta", _finite_real("theta", self.theta))
        for name in ("phi11", "phi12", "phi22"):
            object.__setattr__(self, name, _finite_complex(name, getattr(self, name)))

    def is_moyal(self) -> bool:
        return self.phi11 == 0 and self.phi12 == 0 and self.phi22 == 0

    def moyal(self) -> "DeformationParams":
        """The Phi = 0 member at the same theta."""
        return DeformationParams(self.theta, 0j, 0j, 0j)

    def phi_quadratic(self, k1: complex, k2: complex) -> complex:
        """Phi_ij k_i k_j = phi11 k1^2 + 2 phi12 k1 k2 + phi22 k2^2."""
        return self.phi11 * k1 * k1 + 2.0 * self.phi12 * k1 * k2 + self.phi22 * k2 * k2


def make_params(theta, phi11=0j, phi12=0j, phi22=0j) -> DeformationParams:
    """Package (theta, Phi); DeformationParams checks them."""
    return DeformationParams(theta, phi11, phi12, phi22)


def preset_params(kind: str, theta) -> DeformationParams:
    """The two named members of the family: 'moyal' (Phi = 0) and 'voros'
    (Phi = -i*theta on the diagonal)."""
    if kind not in PRESETS:
        raise ValidationError(f"unknown preset {kind!r}; expected one of {PRESETS}")
    t = _finite_real("theta", theta)
    if kind == "moyal":
        return make_params(t)
    return make_params(t, phi11=-1j * t, phi12=0j, phi22=-1j * t)


def star_kernel(frame: str, params: DeformationParams) -> tuple[complex, complex, complex, complex]:
    """Entries (K11, K12, K21, K22) of the star kernel in the given frame.

    Every member of the family is f * g = exp(K_ab d_a (x) d_b) f g, the
    first derivative acting on f and the second on g.  In the cartesian
    frame K = (i/2)(Phi + Theta) on (d_x1, d_x2).  In the complex frame the
    same form on (d_z, d_zbar) is
    (i/4theta) * (phi11 - phi22 + 2i phi12,
                  phi11 + phi22 - 2i theta,
                  phi11 + phi22 + 2i theta,
                  phi11 - phi22 - 2i phi12),
    which is singular at theta = 0.  Moyal reduces to (0, 1/2, -1/2, 0)
    and Voros to (0, 1, 0, 0) for any theta != 0.
    """
    p11, p12, p22, t = params.phi11, params.phi12, params.phi22, params.theta
    if frame == CARTESIAN:
        h = 0.5j
        return (h * p11, h * (p12 + t), h * (p12 - t), h * p22)
    if frame != COMPLEX:
        raise ValidationError(f"unknown frame {frame!r}; expected one of {FRAMES}")
    if t == 0.0:
        raise SingularParameterError("complex-frame star coefficients are singular at theta = 0")
    s = 0.25j / t
    return (
        s * (p11 - p22 + 2j * p12),
        s * (p11 + p22 - 2j * t),
        s * (p11 + p22 + 2j * t),
        s * (p11 - p22 - 2j * p12),
    )
