"""Exact star-product algebra on two-variable polynomials held as arrays.

A Polynomial2 holds c[n1, n2], the coefficient of x1^n1 x2^n2 (or z^n1
zbar^n2), trimmed to the smallest box around its nonzero coefficients.
The star product f * g = exp(K_ab d_a e_b) f(x) g(y) at y = x and the map
T = exp((i/4) Phi_ij d_i d_j) exponentiate sums of commuting terms
w d_i d_j, which one kernel, `_exp_operator`, applies in turn: term k of
exp(w d_i d_j) is the array shifted by k along axes i and j, times
(w^k / k!) (a)_k (b)_k with the falling factorials (a)_k = a!/(a-k)!.  The
star product runs it on the tensor f(x) g(y) and sums that tensor into
(a1 + b1, a2 + b2) to set y = x (`_contract`).  The kernel works on stacks,
a last axis of polynomials zero-padded to one box, each with its own
weights; a single call is a batch of one.  The powers w^k / k! are
Python complex scalars, one run per weight and element (numpy's complex
product rounds differently), so a batch of one keeps its bits.

The falling factorials are integers, exact below 2^53, that meet w^k / k!
only in the scale, so all terms of one power k share its rounding and
cancel where the exact series cancels.  A Taylor basis (coefficients
times a!) or a scale built as one running product over k rounds each
monomial apart, and (x1 + x2)^10 *_Voros (x1 - x2)^10 then shows
monomials the series does not have.  A dense box costs its whole size
even for sparse operands; `_outer` bounds the star tensor.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator

import numpy as np

from .deformation import (
    CARTESIAN,
    COMPLEX,
    FRAMES,
    _FRAME_VARIABLES,
    _MAX_TENSOR,
    DeformationParams,
    _complex,
    _positive_theta,
    star_kernel,
)
from .errors import FrameMismatchError, ValidationError

#: coefficients smaller than this in magnitude are dropped after every
#: operation so that the arrays stay canonical
PRUNE_TOL = 1e-14


def _quiet(fn):
    """Run fn with numpy's overflow and invalid-value warnings off: a
    coefficient that leaves the double range is reported once, as the
    ValidationError of _store."""

    @functools.wraps(fn)
    def quiet(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(*args, **kwargs)

    return quiet


#: variable name -> (its frame, the key of its monomial)
_VARIABLES = {name: (frame, key) for frame, names in _FRAME_VARIABLES.items()
              for name, key in zip(names, ((1, 0), (0, 1)))}


class Polynomial2:
    """Complex-coefficient polynomial in two variables.

    The variables are (x1, x2) in the cartesian frame or (z, zbar) in the
    complex frame; binary operations require matching frames.  Instances
    are immutable values.
    """

    __slots__ = ("frame", "_c")

    def __init__(self, terms=None, frame: str = CARTESIAN):
        if frame not in FRAMES:
            raise ValidationError(f"unknown frame {frame!r}; expected one of {FRAMES}")
        clean: dict[tuple[int, int], complex] = {}
        for key, coeff in (terms or {}).items():
            n1, n2 = key if isinstance(key, tuple) and len(key) == 2 else (None, None)
            if not (isinstance(n1, int) and isinstance(n2, int)) or n1 < 0 or n2 < 0:
                raise ValidationError(f"exponents must be non-negative integers, got {key!r}")
            clean[int(n1), int(n2)] = _complex("a polynomial coefficient", coeff)
        c = np.zeros(tuple(max(n) + 1 for n in zip(*clean)) or (1, 1), dtype=complex)
        for key, value in clean.items():
            c[key] = value
        self._store(c, frame)

    @classmethod
    def _from_array(cls, c: np.ndarray, frame: str) -> "Polynomial2":
        """An engine result: no per-coefficient validation."""
        self = object.__new__(cls)
        self._store(c, frame)
        return self

    def _store(self, c: np.ndarray, frame: str) -> None:
        object.__setattr__(self, "_c", _canonical(c[..., None])[..., 0])
        object.__setattr__(self, "frame", frame)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial2 is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, frame: str = CARTESIAN) -> "Polynomial2":
        return cls({}, frame)

    @classmethod
    def constant(cls, value, frame: str = CARTESIAN) -> "Polynomial2":
        return cls({(0, 0): value}, frame)

    @classmethod
    def variable(cls, name: str) -> "Polynomial2":
        if name not in _VARIABLES:
            raise ValidationError(f"unknown variable {name!r}; expected one of {sorted(_VARIABLES)}")
        frame, key = _VARIABLES[name]
        return cls({key: 1.0 + 0j}, frame)

    # -- inspection -----------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, int], complex]:
        return dict(self.items())

    def items(self) -> Iterator[tuple[tuple[int, int], complex]]:
        n1, n2 = np.nonzero(self._c)
        return zip(zip(n1.tolist(), n2.tolist()), self._c[n1, n2].tolist())

    def coefficient(self, n1: int, n2: int) -> complex:
        d1, d2 = self._c.shape
        return complex(self._c[n1, n2]) if 0 <= n1 < d1 and 0 <= n2 < d2 else 0j

    @property
    def is_zero(self) -> bool:
        return not self._c.any()

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        n1, n2 = np.nonzero(self._c)
        return int((n1 + n2).max()) if n1.size else -1

    def evaluate(self, v1, v2) -> complex:
        v1, v2 = complex(v1), complex(v2)
        return sum((c * v1**n1 * v2**n2 for (n1, n2), c in self.items()), 0j)

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other) -> "Polynomial2":
        if isinstance(other, Polynomial2):
            if other.frame != self.frame:
                raise FrameMismatchError(
                    f"cannot combine {self.frame!r} and {other.frame!r} polynomials"
                )
            return other
        return Polynomial2.constant(other, self.frame)

    @_quiet
    def __add__(self, other) -> "Polynomial2":
        return Polynomial2._from_array(_sum(self._c, self._coerce(other)._c), self.frame)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial2":
        return Polynomial2._from_array(-self._c, self.frame)

    def __sub__(self, other) -> "Polynomial2":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial2":
        return (-self) + other

    @_quiet
    def __mul__(self, other) -> "Polynomial2":
        if not isinstance(other, Polynomial2):
            c = _complex("a polynomial coefficient", other)
            return Polynomial2._from_array(self._c * c, self.frame)
        return Polynomial2._from_array(_product(self._c, self._coerce(other)._c), self.frame)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial2":
        if not isinstance(n, int) or n < 0:
            raise ValidationError(f"polynomial powers take non-negative integers, got {n!r}")
        d1, d2 = self._c.shape
        if ((d1 - 1) * n + 1) * ((d2 - 1) * n + 1) > _MAX_TENSOR:
            raise ValidationError(f"this power of a {d1}x{d2} coefficient box needs more than "
                                  f"{_MAX_TENSOR} entries")  # n itself may have too many digits to print
        out = Polynomial2.constant(1.0, self.frame)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    @_quiet
    def derivative(self, axis: int, order: int = 1) -> "Polynomial2":
        """Partial derivative along variable 0 or 1, applied `order` times."""
        if axis not in (0, 1):
            raise ValidationError(f"axis must be 0 or 1, got {axis!r}")
        if not isinstance(order, int) or order < 0:
            raise ValidationError(f"order must be a non-negative integer, got {order!r}")
        c = np.moveaxis(self._c, axis, 0)
        if order >= len(c):
            return Polynomial2.zero(self.frame)
        a = np.arange(order, len(c), dtype=float)[:, None]
        out = c[order:] * np.prod(a - np.arange(order), axis=1, keepdims=True)  # (a)_order
        return Polynomial2._from_array(np.moveaxis(out, 0, axis), self.frame)

    # -- comparison -----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial2):
            return NotImplemented
        return self.frame == other.frame and np.array_equal(self._c, other._c)

    def __hash__(self):
        return hash((self.frame, frozenset(self.items())))

    def max_diff(self, other: "Polynomial2") -> float:
        """Largest coefficient-wise absolute difference."""
        return float(_max_diff(self._c, self._coerce(other)._c))

    def __repr__(self) -> str:
        body = ", ".join(f"({n1},{n2}): {c}" for (n1, n2), c in self.items())
        return f"Polynomial2({{{body}}}, frame={self.frame!r})"


def _canonical(c: np.ndarray) -> np.ndarray:
    """The stack c[n1, n2, :] checked finite, coefficients below PRUNE_TOL set
    to 0 and trailing rows and columns that are zero in every element cut, so
    that equal polynomials hold equal arrays."""
    if not np.isfinite(c).all():
        key = tuple(int(n[0]) for n in np.nonzero(~np.isfinite(c)))
        raise ValidationError(f"coefficient of {key[:2]!r} must be finite, got {complex(c[key])!r}")
    keep = np.abs(c) >= PRUNE_TOL
    n1, n2, _ = keep.nonzero()
    return np.where(keep, c, 0j)[: n1.max(initial=0) + 1, : n2.max(initial=0) + 1]


def _stack(polys) -> np.ndarray:
    """The polynomials' arrays along a last axis, zero-padded to one box."""
    box = np.zeros(tuple(np.max([p._c.shape for p in polys], axis=0)))
    return np.stack([_sum(p._c, box) for p in polys], axis=-1)


def _sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b, zero-padded to the larger box in the first two axes."""
    out = np.zeros(tuple(np.maximum(a.shape[:2], b.shape[:2])) + a.shape[2:], dtype=complex)
    out[: len(a), : a.shape[1]] += a
    out[: len(b), : b.shape[1]] += b
    return out


@_quiet
def _max_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The largest |a - b| over the first two axes."""
    return np.abs(_sum(a, -b)).max(axis=(0, 1))


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The ordinary product: b shifted to each nonzero exponent of a,
    scaled by its coefficient and added; a is the operand with fewer
    nonzero coefficients."""
    if np.count_nonzero(a) > np.count_nonzero(b):
        a, b = b, a
    out = np.zeros((len(a) + len(b) - 1, a.shape[1] + b.shape[1] - 1), dtype=complex)
    e1, e2 = b.shape
    for n1, n2 in zip(*np.nonzero(a)):
        out[n1 : n1 + e1, n2 : n2 + e2] += a[n1, n2] * b
    return out


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The tensors a(x) b(y) of two stacks, axes (a1, a2, b1, b2, batch).
    The kernel keeps about four such tensors alive at once."""
    if a.size * b.size > _MAX_TENSOR * a.shape[-1]:
        raise ValidationError(f"the star product of {a.shape[:2]} and {b.shape[:2]} coefficient boxes "
                              f"needs a tensor of more than {_MAX_TENSOR} entries")
    return a[:, :, None, None] * b


@functools.lru_cache(maxsize=8)
def _falling_table(n: int):
    """(F, E) with F[m, a] 2^E[m] = (a)_m for a, m < n.  Row m is row m - 1
    times max(a - m + 1, 0) over a power of two above n - m, which rounds
    nothing and keeps the rows in the double range up to n of about 500.
    Cached, since building it costs a tenth of a small star product."""
    m = np.arange(n, dtype=float)
    e = np.frexp(n - m)[1]
    e[0] = 0
    steps = np.maximum(np.subtract.outer(1.0 - m, -m), 0.0)
    steps[0] = 1.0
    table = np.cumprod(np.ldexp(steps, -e[:, None]), axis=0)
    table.flags.writeable = False
    return table, tuple(np.cumsum(e).tolist())


def _powers(w: complex, exponents) -> list[complex]:
    """w^k / k! times 2^exponents[k - 1] for k = 1, 2, ...  w^k / k! is kept
    as m 2^shift, and the exponents join shift before m is scaled, so no
    factor leaves the double range unless the product does."""
    s, m, shift = [], 1.0, 0
    try:
        for k, e in enumerate(exponents, 1):
            m = m * w / k
            e2 = math.frexp(abs(m))[1]
            m, shift = m / 2.0**e2, shift + e2
            s.append(complex(math.ldexp(m.real, shift + e), math.ldexp(m.imag, shift + e)))
    except OverflowError:
        raise ValidationError("a term of the operator exponential exceeds the double range") from None
    return s


def _exp_operator(c: np.ndarray, weights) -> np.ndarray:
    """exp(B) c for B = sum of w d_i d_j over the (w, i, j) in weights, one
    term after another, on each element of c's last axis with its own
    entry of the sequence w; axis n of c holds the exponent of variable n,
    and i <= j."""
    falling, binexp = _falling_table(max(c.shape[:-1]))
    for w, i, j in weights:
        step = 2 if i == j else 1
        top = (min(c.shape[i], c.shape[j]) - 1) // step  # the last power inside the box
        if not any(w) or top < 1:
            continue
        # scale[k - 1, ..., n] = (w_n^k / k!) (a)_(step k) along axis i, times (b)_k
        # along axis j; _powers takes the falling factorials' powers of two
        exponents = [binexp[step * k] + (binexp[k] if i != j else 0) for k in range(1, top + 1)]
        s = np.array([_powers(w_n, exponents) for w_n in w]).T
        scale = s[:, None] * falling[step : step * top + 1 : step, : c.shape[i], None]
        shape = [top] + [1] * c.ndim
        shape[1 + i], shape[-1] = scale.shape[1:]
        if i != j:
            scale = scale[:, :, None] * falling[1 : top + 1, None, : c.shape[j], None]
            shape[1 + j] = c.shape[j]
        scale = scale.reshape(shape)
        out = c.copy()
        for k in range(1, top + 1):
            src = [slice(None)] * c.ndim
            dst = [slice(None)] * c.ndim
            src[i], dst[i] = slice(step * k, None), slice(None, -step * k)
            src[j], dst[j] = (src[i], dst[i]) if i == j else (slice(k, None), slice(None, -k))
            src = tuple(src)
            out[tuple(dst)] += scale[k - 1][src] * c[src]
        c = out
    return c


def _skew_sum(t: np.ndarray) -> np.ndarray:
    """out[a + b, ...] = sum of t[a, b, ...]: read with rows one shorter, a
    zero-padded copy of t has row a shifted right by a.  The shorter of the
    two axes is taken as rows, so the copy is at most twice the size of t."""
    if len(t) > t.shape[1]:
        t = t.swapaxes(0, 1)
    n, m = t.shape[:2]
    rest = t.shape[2:]
    pad = np.zeros((n, n + m) + rest, dtype=complex)
    pad[:, :m] = t
    return pad.reshape((-1,) + rest)[: n * (n + m - 1)].reshape((n, n + m - 1) + rest).sum(axis=0)


def _contract(t: np.ndarray) -> np.ndarray:
    """Set y = x: t[a1, a2, b1, b2, :] summed into out[a1 + b1, a2 + b2, :]."""
    rows = _skew_sum(t.transpose(0, 2, 1, 3, 4))  # (a1 + b1, a2, b2, batch)
    return _skew_sum(rows.transpose(1, 2, 0, 3)).transpose(1, 0, 2)


@_quiet
def _star(a: np.ndarray, b: np.ndarray, kernel) -> np.ndarray:
    """The star products of two stacks, each under its kernel, before _canonical."""
    k11, k12, k21, k22 = kernel
    # exp(K_ab d_a e_b) on f(x) g(y), axes (a1, a2, b1, b2): d acts on x, e on y
    return _contract(_exp_operator(_outer(a, b), ((k11, 0, 2), (k12, 0, 3), (k21, 1, 2), (k22, 1, 3))))


@_quiet
def _commutator(a: np.ndarray, b: np.ndarray, kernel) -> np.ndarray:
    """a * b - b * a on two stacks, as _star does a * b."""
    k11, k12, k21, k22 = kernel
    # b * a is the same series with the kernel transposed; the diagonal terms of both run once
    tensor = _exp_operator(_outer(a, b), ((k11, 0, 2), (k22, 1, 3)))
    ab = _exp_operator(tensor, ((k12, 0, 3), (k21, 1, 2)))
    ba = _exp_operator(tensor, ((k21, 0, 3), (k12, 1, 2)))
    return _contract(ab - ba)


def _batch_of_one(f: Polynomial2, g: Polynomial2, params: DeformationParams):
    """f, g and their kernel as a batch of one."""
    if f.frame != g.frame:
        raise FrameMismatchError(f"cannot star {f.frame!r} with {g.frame!r}")
    return f._c[..., None], g._c[..., None], [(k,) for k in star_kernel(f.frame, params)]


def star_poly(f: Polynomial2, g: Polynomial2, params: DeformationParams) -> Polynomial2:
    """Star product of two polynomials, exact (the series terminates).

    The kernel is star_kernel(frame, params): (i/2)(Phi + Theta) in the
    cartesian frame, its z-frame image (which requires theta != 0) in the
    complex frame.
    """
    return Polynomial2._from_array(_star(*_batch_of_one(f, g, params))[..., 0], f.frame)


def star_commutator(f: Polynomial2, g: Polynomial2, params: DeformationParams) -> Polynomial2:
    """f * g - g * f under the star product."""
    return Polynomial2._from_array(_commutator(*_batch_of_one(f, g, params))[..., 0], f.frame)


_LAW_BATCH = 16  # most triples in one _law_errors batch: about 0.5 MiB per tensor at degree 4


def _law_errors(triples) -> tuple[list[float], ...]:
    """Associativity, antisymmetry, Jacobi and Leibniz errors of each cartesian
    (params, f, g, h), each law step run once per batch on zero-padded stacks.
    A step stars a product of two boxes of side <= d with a third, (2d - 1)^2 d^2
    entries per triple, so a batch stays within _MAX_TENSOR."""
    d = max((max(p._c.shape) for _, *polys in triples for p in polys), default=1)
    size = max(1, min(_LAW_BATCH, _MAX_TENSOR // ((2 * d - 1) ** 2 * d**2)))
    errors = ([], [], [], [])
    for n in range(0, len(triples), size):
        batch = triples[n : n + size]
        kernel = list(zip(*(star_kernel(CARTESIAN, params) for params, *_ in batch)))
        f, g, h = (_stack(polys) for polys in list(zip(*batch))[1:])

        def star(a, b, op=_star):
            return _canonical(op(a, b, kernel))

        bracket = functools.partial(star, op=_commutator)
        gh, f_g = star(g, h), bracket(f, g)  # [f, g] enters three laws
        for out, (lhs, rhs) in zip(errors, (
            (star(star(f, g), h), star(f, gh)),
            (f_g, -bracket(g, f)),
            (_sum(bracket(f, bracket(g, h)), bracket(g, bracket(h, f))), -bracket(h, f_g)),
            (bracket(f, gh), _sum(star(f_g, h), star(g, bracket(f, h)))),
        )):
            out.extend(_max_diff(lhs, rhs).tolist())
    return errors


@_quiet
def tmap_poly(f: Polynomial2, params: DeformationParams) -> Polynomial2:
    """The equivalence map exp((i/4) Phi_ij d_i d_j) applied to f; exact.

    Each application of the quadratic differential operator lowers the
    degree by two, so the exponential truncates after deg(f)//2 steps.
    """
    if f.frame != CARTESIAN:
        raise FrameMismatchError("the equivalence map acts on cartesian polynomials")
    weights = (((0.25j * params.phi11,), 0, 0), ((0.5j * params.phi12,), 0, 1),
               ((0.25j * params.phi22,), 1, 1))
    return Polynomial2._from_array(_exp_operator(f._c[..., None], weights)[..., 0], CARTESIAN)


def poly_equivalence_residual(f: Polynomial2, g: Polynomial2, params: DeformationParams) -> float:
    """max |T(f *_M g) - T(f) * T(g)| over coefficients, relative to max(1,
    the largest coefficient on either side); the polynomial counterpart of
    wavestar.equivalence_residual, zero for every symmetric Phi up to
    rounding."""
    lhs = tmap_poly(star_poly(f, g, params.moyal()), params)
    rhs = star_poly(tmap_poly(f, params), tmap_poly(g, params), params)
    scale = max(1.0, float(np.abs(lhs._c).max()), float(np.abs(rhs._c).max()))
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
    """f(sub1, sub2) by Horner's rule in each variable."""
    out = Polynomial2.zero(sub1.frame)
    for row in f._c[::-1]:
        inner = Polynomial2.zero(sub1.frame)
        for c in row[::-1]:
            inner = inner * sub2 + complex(c)
        out = out * sub1 + inner
    return out


def to_complex_frame(f: Polynomial2, theta) -> Polynomial2:
    """Change of variables x1 = sqrt(theta/2)(z + zbar),
    x2 = -i sqrt(theta/2)(z - zbar); requires theta > 0."""
    if f.frame != CARTESIAN:
        raise FrameMismatchError("to_complex_frame expects a cartesian polynomial")
    t = _positive_theta(theta, "frame conversion needs")
    s = math.sqrt(t / 2.0)
    z = Polynomial2.variable("z")
    zbar = Polynomial2.variable("zbar")
    return _substitute(f, (z + zbar) * s, (z - zbar) * (-1j * s))


def to_cartesian_frame(f: Polynomial2, theta) -> Polynomial2:
    """Change of variables z = (x1 + i x2)/sqrt(2 theta),
    zbar = (x1 - i x2)/sqrt(2 theta); requires theta > 0."""
    if f.frame != COMPLEX:
        raise FrameMismatchError("to_cartesian_frame expects a complex-frame polynomial")
    t = _positive_theta(theta, "frame conversion needs")
    s = 1.0 / math.sqrt(2.0 * t)
    x1 = Polynomial2.variable("x1")
    x2 = Polynomial2.variable("x2")
    return _substitute(f, (x1 + x2 * 1j) * s, (x1 - x2 * 1j) * s)
