"""Exact star-product algebra on sparse two-variable polynomials.

The star product f * g = exp(K_ab d_a e_b) f(x) g(y) at y = x and the
equivalence map T = exp((i/4) Phi_ij d_i d_j) are both exponentials of a
constant-coefficient second-order operator B.  One routine,
`_exp_operator`, sums B^k / k! on a sparse map from exponent tuples to
coefficients: the star product runs it on f(x) g(y), keyed
(a1, a2, b1, b2), and then sets y = x; T runs it on f itself.  B lowers
the degree, so the series ends on its own, after min(deg f, deg g) steps
for the star product and deg(f)//2 for T.
"""

from __future__ import annotations

import math
from typing import Iterator

from .deformation import CARTESIAN, COMPLEX, FRAMES, DeformationParams, star_kernel
from .errors import FrameMismatchError, SingularParameterError, ValidationError

#: coefficients smaller than this in magnitude are dropped after every
#: operation so that sparse maps stay canonical
PRUNE_TOL = 1e-14

_VARIABLES = {"x1": (CARTESIAN, 0), "x2": (CARTESIAN, 1), "z": (COMPLEX, 0), "zbar": (COMPLEX, 1)}


class Polynomial2:
    """Sparse complex-coefficient polynomial in two variables.

    The variables are (x1, x2) in the cartesian frame or (z, zbar) in the
    complex frame; binary operations require matching frames.  Instances
    are immutable values.
    """

    __slots__ = ("frame", "_terms")

    def __init__(self, terms=None, frame: str = CARTESIAN):
        if frame not in FRAMES:
            raise ValidationError(f"unknown frame {frame!r}; expected one of {FRAMES}")
        clean: dict[tuple[int, int], complex] = {}
        if terms:
            for key, coeff in terms.items():
                n1, n2 = key
                if not (isinstance(n1, int) and isinstance(n2, int)) or n1 < 0 or n2 < 0:
                    raise ValidationError(f"exponents must be non-negative integers, got {key!r}")
                c = complex(coeff)
                if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                    raise ValidationError(f"coefficient of {key!r} must be finite, got {coeff!r}")
                if abs(c) >= PRUNE_TOL:
                    clean[(n1, n2)] = clean.get((n1, n2), 0j) + c
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial2 is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, frame: str = CARTESIAN) -> "Polynomial2":
        return cls({}, frame)

    @classmethod
    def constant(cls, value, frame: str = CARTESIAN) -> "Polynomial2":
        return cls({(0, 0): complex(value)}, frame)

    @classmethod
    def variable(cls, name: str) -> "Polynomial2":
        if name not in _VARIABLES:
            raise ValidationError(f"unknown variable {name!r}; expected one of {sorted(_VARIABLES)}")
        frame, axis = _VARIABLES[name]
        key = (1, 0) if axis == 0 else (0, 1)
        return cls({key: 1.0 + 0j}, frame)

    # -- inspection -----------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, int], complex]:
        return dict(self._terms)

    def items(self) -> Iterator[tuple[tuple[int, int], complex]]:
        return iter(self._terms.items())

    def coefficient(self, n1: int, n2: int) -> complex:
        return self._terms.get((n1, n2), 0j)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(n1 + n2 for n1, n2 in self._terms)

    def evaluate(self, v1, v2) -> complex:
        v1, v2 = complex(v1), complex(v2)
        return sum((c * v1**n1 * v2**n2 for (n1, n2), c in self._terms.items()), 0j)

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other) -> "Polynomial2":
        if isinstance(other, Polynomial2):
            if other.frame != self.frame:
                raise FrameMismatchError(
                    f"cannot combine {self.frame!r} and {other.frame!r} polynomials"
                )
            return other
        return Polynomial2.constant(other, self.frame)

    def __add__(self, other) -> "Polynomial2":
        other = self._coerce(other)
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, 0j) + c
        return Polynomial2(out, self.frame)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial2":
        return Polynomial2({k: -c for k, c in self._terms.items()}, self.frame)

    def __sub__(self, other) -> "Polynomial2":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial2":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial2":
        if not isinstance(other, Polynomial2):
            c = complex(other)
            return Polynomial2({k: c * v for k, v in self._terms.items()}, self.frame)
        other = self._coerce(other)
        out: dict[tuple[int, int], complex] = {}
        for (a1, a2), ca in self._terms.items():
            for (b1, b2), cb in other._terms.items():
                key = (a1 + b1, a2 + b2)
                out[key] = out.get(key, 0j) + ca * cb
        return Polynomial2(out, self.frame)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial2":
        if not isinstance(n, int) or n < 0:
            raise ValidationError(f"polynomial powers take non-negative integers, got {n!r}")
        out = Polynomial2.constant(1.0, self.frame)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def derivative(self, axis: int, order: int = 1) -> "Polynomial2":
        """Partial derivative along variable 0 or 1, applied `order` times."""
        if axis not in (0, 1):
            raise ValidationError(f"axis must be 0 or 1, got {axis!r}")
        terms = self._terms
        for _ in range(order):
            terms = _deriv_terms(terms, axis)
        return Polynomial2(terms, self.frame)

    # -- comparison -----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial2):
            return NotImplemented
        return self.frame == other.frame and self._terms == other._terms

    def __hash__(self):
        return hash((self.frame, frozenset(self._terms.items())))

    def max_diff(self, other: "Polynomial2") -> float:
        """Largest coefficient-wise absolute difference."""
        other = self._coerce(other)
        keys = set(self._terms) | set(other._terms)
        if not keys:
            return 0.0
        return max(abs(self._terms.get(k, 0j) - other._terms.get(k, 0j)) for k in keys)

    def __repr__(self) -> str:
        body = ", ".join(
            f"({n1},{n2}): {c}" for (n1, n2), c in sorted(self._terms.items())
        )
        return f"Polynomial2({{{body}}}, frame={self.frame!r})"


def _deriv_terms(terms: dict, axis: int) -> dict:
    out: dict[tuple[int, int], complex] = {}
    for (n1, n2), c in terms.items():
        e = n1 if axis == 0 else n2
        if e == 0:
            continue
        key = (n1 - 1, n2) if axis == 0 else (n1, n2 - 1)
        out[key] = out.get(key, 0j) + c * e
    return out


def _check_frames(f: Polynomial2, g: Polynomial2) -> str:
    if f.frame != g.frame:
        raise FrameMismatchError(f"cannot star {f.frame!r} with {g.frame!r}")
    return f.frame


def _exp_operator(terms: dict, weights) -> dict:
    """sum_k B^k(terms) / k! for B = sum of w d_i d_j over the (w, i, j) in
    weights, with terms keyed by exponent tuples.

    B lowers the total degree by two, so the series ends on its own: the
    loop stops at the first step that comes out empty.
    """
    ops = [(w, i, j, int(i == j)) for w, i, j in weights if w != 0j]
    out = dict(terms)
    cur = terms
    k = 0
    while cur and ops:
        k += 1
        nxt: dict[tuple, complex] = {}
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


def _star_series(f: Polynomial2, g: Polynomial2, k11, k12, k21, k22) -> dict:
    """exp(K_ab d_a e_b) applied to f(x) g(y), keyed (a1, a2, b1, b2); d
    acts on x and e on y."""
    tensor = {
        (a1, a2, b1, b2): cf * cg
        for (a1, a2), cf in f._terms.items()
        for (b1, b2), cg in g._terms.items()
    }
    return _exp_operator(tensor, ((k11, 0, 2), (k12, 0, 3), (k21, 1, 2), (k22, 1, 3)))


def _contract(tensor: dict) -> dict:
    """Set y = x: (a1, a2, b1, b2) -> (a1 + b1, a2 + b2)."""
    out: dict[tuple[int, int], complex] = {}
    for (a1, a2, b1, b2), c in tensor.items():
        key = (a1 + b1, a2 + b2)
        out[key] = out.get(key, 0j) + c
    return out


def star_poly(f: Polynomial2, g: Polynomial2, params: DeformationParams) -> Polynomial2:
    """Star product of two polynomials, exact (the series terminates).

    The kernel is star_kernel(frame, params): (i/2)(Phi + Theta) in the
    cartesian frame, its z-frame image (which requires theta != 0) in the
    complex frame.
    """
    frame = _check_frames(f, g)
    return Polynomial2(_contract(_star_series(f, g, *star_kernel(frame, params))), frame)


def star_commutator(f: Polynomial2, g: Polynomial2, params: DeformationParams) -> Polynomial2:
    """f * g - g * f under the star product."""
    frame = _check_frames(f, g)
    k11, k12, k21, k22 = star_kernel(frame, params)
    fg = _star_series(f, g, k11, k12, k21, k22)
    # g * f is the same series with the kernel transposed
    for key, c in _star_series(f, g, k11, k21, k12, k22).items():
        fg[key] = fg.get(key, 0j) - c
    return Polynomial2(_contract(fg), frame)


def tmap_poly(f: Polynomial2, params: DeformationParams) -> Polynomial2:
    """The equivalence map exp((i/4) Phi_ij d_i d_j) applied to f; exact.

    Each application of the quadratic differential operator lowers the
    degree by two, so the exponential truncates after deg(f)//2 steps.
    """
    if f.frame != CARTESIAN:
        raise FrameMismatchError("the equivalence map acts on cartesian polynomials")
    weights = (
        (0.25j * params.phi11, 0, 0),
        (0.5j * params.phi12, 0, 1),
        (0.25j * params.phi22, 1, 1),
    )
    return Polynomial2(_exp_operator(f._terms, weights), CARTESIAN)


def poly_equivalence_residual(f: Polynomial2, g: Polynomial2, params: DeformationParams) -> float:
    """max |T(f *_M g) - T(f) * T(g)| over coefficients, relative to max(1,
    the largest coefficient on either side); the polynomial counterpart of
    wavestar.equivalence_residual, zero for every symmetric Phi up to
    rounding."""
    lhs = tmap_poly(star_poly(f, g, params.moyal()), params)
    rhs = star_poly(tmap_poly(f, params), tmap_poly(g, params), params)
    scale = max([1.0] + [abs(c) for c in (*lhs._terms.values(), *rhs._terms.values())])
    return lhs.max_diff(rhs) / scale


def xhat_apply(mu: int, f: Polynomial2, params: DeformationParams) -> Polynomial2:
    """Action of the deformed coordinate operator, x_mu * f:
    x_mu f + (i/2)(Theta + Phi)_{mu,alpha} d_alpha f."""
    if mu not in (1, 2):
        raise ValidationError(f"mu must be 1 or 2, got {mu!r}")
    if f.frame != CARTESIAN:
        raise FrameMismatchError("deformed coordinate operators act on cartesian polynomials")
    return star_poly(Polynomial2.variable(f"x{mu}"), f, params)


def _substitute(f: Polynomial2, sub1: Polynomial2, sub2: Polynomial2) -> Polynomial2:
    frame = sub1.frame
    deg1 = max((n1 for n1, _ in f._terms), default=0)
    deg2 = max((n2 for _, n2 in f._terms), default=0)
    pow1 = [Polynomial2.constant(1.0, frame)]
    for _ in range(deg1):
        pow1.append(pow1[-1] * sub1)
    pow2 = [Polynomial2.constant(1.0, frame)]
    for _ in range(deg2):
        pow2.append(pow2[-1] * sub2)
    out = Polynomial2.zero(frame)
    for (n1, n2), c in f._terms.items():
        out = out + pow1[n1] * pow2[n2] * c
    return out


def to_complex_frame(f: Polynomial2, theta) -> Polynomial2:
    """Change of variables x1 = sqrt(theta/2)(z + zbar),
    x2 = -i sqrt(theta/2)(z - zbar); requires theta > 0."""
    if f.frame != CARTESIAN:
        raise FrameMismatchError("to_complex_frame expects a cartesian polynomial")
    t = float(theta)
    if t <= 0.0:
        raise SingularParameterError(f"frame conversion needs theta > 0, got {theta!r}")
    s = math.sqrt(t / 2.0)
    z = Polynomial2.variable("z")
    zbar = Polynomial2.variable("zbar")
    return _substitute(f, (z + zbar) * s, (z - zbar) * (-1j * s))


def to_cartesian_frame(f: Polynomial2, theta) -> Polynomial2:
    """Change of variables z = (x1 + i x2)/sqrt(2 theta),
    zbar = (x1 - i x2)/sqrt(2 theta); requires theta > 0."""
    if f.frame != COMPLEX:
        raise FrameMismatchError("to_cartesian_frame expects a complex-frame polynomial")
    t = float(theta)
    if t <= 0.0:
        raise SingularParameterError(f"frame conversion needs theta > 0, got {theta!r}")
    s = 1.0 / math.sqrt(2.0 * t)
    x1 = Polynomial2.variable("x1")
    x2 = Polynomial2.variable("x2")
    return _substitute(f, (x1 + x2 * 1j) * s, (x1 - x2 * 1j) * s)
