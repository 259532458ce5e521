"""Closed-form star algebra on exponential-linear functions.

Plane waves are closed under the star product: amplitudes pick up the
exact pairwise kernel and wavevectors add.  That closure is what this
module exploits to check the equivalence map in momentum space and to
evaluate the resolution-of-identity amplitudes for position-like and
coherent states.  Plane integrals are distributional bookkeeping (deltas),
never quadrature.

The two state families are one family carried by the equivalence map: T
multiplies exp(i p.x) by exp(-(i/4) Phi(p, p)), and on the diagonal p = p'
the star pair factor exp((i/2) Phi(p, p)) meets the two T factors, so the
T_Phi-images of position states resolve the identity under *_Phi for
every Phi.  At Voros T is the coherent Gaussian exp(-theta |p|^2 / 4);
coherent_roi_kernel is the position kernel transported that way.

A private pair-array type, _Pairs, replays CPython's complex arithmetic
step by step on float64 real and imaginary arrays (products as real pairs,
a float widened to (x, 0.0), division as _Py_c_quot, and cmath.exp's
results and bits from _Pairs.exp), so the pair step written once (_pair:
the amplitude product and the star pair factor exp(K_ab d_a e_b)) has the
same bits on Python complex numbers and on arrays.  The scalar loop, the
array products and roi_diagonal's grid all take their pairs through it.
roi_diagonal writes the grid itself: it builds each family's bra and ket
for every diagonal point at once, with K from star_kernel and the state
weights from _coherent_state, and takes them through that step, so every
amplitude has the bits of the scalar *_roi_amplitude functions, which stay
the reference and handle the points where they raise or give 0.

Every WaveSum is canonical, by one rule (``_merge``): each term's amplitude
and wavevector are stored as Python complex numbers, terms whose
wavevector components fall in the same WVEC_TOL cells merge, each group's
amplitude is the exactly rounded sum of its parts, a group is dropped only
when it cancels to within AMP_TOL of the mass that went into it, and the
terms are sorted by wavevector.  The result does not depend on term order.

star_wave and pointwise_mul take one of two paths by the pair count n*m,
and both give the same bits and raise the same first error.  Below
_ARRAY_PAIRS a loop forms each pair on Python complex numbers and _merge
merges them; numpy's fixed cost per call makes that loop several times
faster on the few-pair products of the suites and RoI kernels.  From
_ARRAY_PAIRS on, every pair's exponent, factor and amplitude are formed at
once on _Pairs, and _merge_sorted groups the pairs by one sort on the same
cell keys, taking math.fsum over each group of more than one.  On a 2-CPU
x86 host (Python 3.11) the two cost the same at about 100-110 pairs when
the pairs merge (integer lattices) and about 125-140 when they do not.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .deformation import (
    CARTESIAN,
    COMPLEX,
    FRAMES,
    DeformationParams,
    _complex,
    _finite_complex,
    _finite_real,
    _positive_theta,
    star_kernel,
)
from .errors import DivergentIntegralError, EngineError, FrameMismatchError, ValidationError

TWO_PI = 2.0 * math.pi

#: a merged group is dropped when |sum| <= AMP_TOL * (sum of |parts|): exact
#: cancellations go, a lone amplitude stays however small unless it is 0
AMP_TOL = 1e-14

#: wavevector components are snapped to cells of this width; terms whose four
#: real components share cells merge
WVEC_TOL = 1e-9

#: pair count from which star_wave and pointwise_mul form their pairs as
#: arrays (see the module docstring for the crossover it sits at)
_ARRAY_PAIRS = 100

#: a plane integral whose frequency has an imaginary part above this diverges
IMAG_TOL = 1e-10


@dataclass(frozen=True)
class ExpLinearTerm:
    """One term A * exp(linear form).

    Cartesian frame: A * exp(i(k1 x1 + k2 x2)) with wavevector (k1, k2).
    Complex frame:   A * exp(a z + b zbar) with wavevector (a, b).
    Complex wavevector components are allowed; they encode Gaussian
    damping factors and the z-frame exponents of state overlaps.  A term is
    checked when a WaveSum is built from it.
    """

    amplitude: complex
    frame: str
    wavevector: tuple[complex, complex]

    def evaluate(self, v1, v2) -> complex:
        a, b = self.wavevector
        if self.frame == CARTESIAN:
            return self.amplitude * cmath.exp(1j * (a * v1 + b * v2))
        return self.amplitude * cmath.exp(a * v1 + b * v2)


@dataclass(frozen=True)
class WaveSum:
    """Finite sum of exponential-linear terms sharing one frame.

    The terms are merged, pruned and sorted on construction (see the module
    docstring); the empty sum is the zero function.
    """

    terms: tuple[ExpLinearTerm, ...]
    frame: str = CARTESIAN

    def __post_init__(self):
        if self.frame not in FRAMES:
            raise ValidationError(f"unknown frame {self.frame!r}")
        object.__setattr__(self, "terms", _merge(self.terms, self.frame))

    @classmethod
    def _canonical(cls, terms: tuple[ExpLinearTerm, ...], frame: str) -> "WaveSum":
        """A sum of terms that _merge_sorted has merged, pruned and sorted."""
        w = object.__new__(cls)
        object.__setattr__(w, "terms", terms)
        object.__setattr__(w, "frame", frame)
        return w

    @classmethod
    def zero(cls, frame: str = CARTESIAN) -> "WaveSum":
        return cls((), frame)

    @classmethod
    def plane_wave(cls, k1, k2, amplitude=1.0) -> "WaveSum":
        """amplitude * exp(i(k1 x1 + k2 x2))."""
        return cls((ExpLinearTerm(amplitude, CARTESIAN, (k1, k2)),), CARTESIAN)

    @classmethod
    def z_exponential(cls, a, b, amplitude=1.0) -> "WaveSum":
        """amplitude * exp(a z + b zbar)."""
        return cls((ExpLinearTerm(amplitude, COMPLEX, (a, b)),), COMPLEX)

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
        c = _complex("a wave term", scalar)
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
        return _product(self, other)

    def evaluate(self, v1, v2) -> complex:
        return sum((t.evaluate(v1, v2) for t in self.terms), 0j)


def _order(t: ExpLinearTerm) -> tuple[float, float, float, float]:
    k1, k2 = t.wavevector
    return (k1.real, k1.imag, k2.real, k2.imag)


def _merge(terms, frame: str, prune: bool = True) -> tuple[ExpLinearTerm, ...]:
    """The one place wave terms are checked, converted, matched, summed and
    pruned, by the rule in the module docstring (_merge_sorted applies the
    same rule to the array path's pairs); prune=False keeps every group.
    Terms must be in `frame` with finite amplitudes and wavevectors."""
    groups: dict[tuple, list[ExpLinearTerm]] = {}
    for t in terms:
        if t.frame != frame:
            raise FrameMismatchError(f"term frame {t.frame!r} does not match sum frame {frame!r}")
        a, (k1, k2) = t.amplitude, t.wavevector
        a, k1, k2 = _complex("a wave term", a), _complex("a wave term", k1), _complex("a wave term", k2)
        if not (cmath.isfinite(a) and cmath.isfinite(k1) and cmath.isfinite(k2)):
            raise ValidationError(f"wave term {a!r} at wavevector {(k1, k2)!r} is not finite")
        # x - remainder(x, WVEC_TOL) is x snapped to its cell n * WVEC_TOL; remainder is
        # exact, so the key depends on n alone, never overflows, and keeps distinct huge x apart
        x1, y1, x2, y2 = k1.real, k1.imag, k2.real, k2.imag
        key = (x1 - math.remainder(x1, WVEC_TOL), y1 - math.remainder(y1, WVEC_TOL),
               x2 - math.remainder(x2, WVEC_TOL), y2 - math.remainder(y2, WVEC_TOL))
        if a is not t.amplitude or k1 is not t.wavevector[0] or k2 is not t.wavevector[1]:
            t = ExpLinearTerm(a, frame, (k1, k2))  # complex(z) is z for a Python complex z
        groups.setdefault(key, []).append(t)
    out = [g[0] for g in groups.values() if len(g) == 1 and not (prune and g[0].amplitude == 0)]
    for group in (g for g in groups.values() if len(g) > 1):
        try:
            total = complex(math.fsum(t.amplitude.real for t in group),
                            math.fsum(t.amplitude.imag for t in group))
            if prune and abs(total) <= AMP_TOL * math.fsum(abs(t.amplitude) for t in group):
                continue
        except OverflowError as exc:
            raise ValidationError(f"merged wave amplitudes overflow: {exc}") from exc
        k1, k2 = min(group, key=_order).wavevector
        # + 0j: tied wavevectors may differ in the sign of a zero component
        out.append(ExpLinearTerm(total, frame, (k1 + 0j, k2 + 0j)))
    out.sort(key=_order)
    return tuple(out)


def _cells(x: np.ndarray) -> np.ndarray:
    """x - math.remainder(x, WVEC_TOL) elementwise: _merge's cell keys, the
    double nearest n * WVEC_TOL for n the integer nearest x / WVEC_TOL, ties
    to even.  Where x / WVEC_TOL rounds below 2^40 and more than 1e-4 from a
    tie, n is np.rint of it; elsewhere math.remainder itself gives the key
    (np.remainder is a floor-mod)."""
    q = x / WVEC_TOL
    n = np.rint(q)
    exact = np.abs(q) >= 2.0**40
    q -= n
    exact |= np.abs(q, out=q) >= 0.4999
    keys = np.multiply(n, WVEC_TOL, out=n)  # in place: fresh pages cost more than the arithmetic
    if exact.any():
        keys[exact] = [y - math.remainder(y, WVEC_TOL) for y in x[exact].tolist()]
    return keys


def _merge_sorted(re, im, wv, frame: str) -> tuple[ExpLinearTerm, ...]:
    """_merge on columns: finite amplitudes re + i im and wavevectors whose
    (x1, y1, x2, y2) are the rows of wv, in the order _merge would meet
    them.  One lexsort puts each cell's terms together, smallest wavevector
    first; a group of more than one takes math.fsum of its parts as _merge
    does.  A group's sum is exactly rounded, and whether a group overflows
    does not depend on the order of its parts, so only an error needs
    _merge's order."""
    keys = _cells(wv)
    order = np.lexsort((*wv[::-1], *keys[::-1]))
    keys = keys[:, order]
    first = np.flatnonzero(np.concatenate(([True], (keys[:, 1:] != keys[:, :-1]).any(axis=0))))
    size = np.diff(first, append=order.size)
    total_re, total_im, rep = re[order[first]], im[order[first]], wv[:, order[first]]
    keep = (total_re != 0.0) | (total_im != 0.0)
    many = np.flatnonzero(size > 1)
    if many.size:
        rep[:, many] += 0.0  # as _merge's + 0j: a tied zero component may carry either sign
        mag = np.hypot(re, im)  # Python's abs(complex) is hypot too
        re_l, im_l, mag_l = re[order].tolist(), im[order].tolist(), mag[order].tolist()
        overflow = np.zeros(first.size, dtype=bool)
        for g, a, b in zip(many.tolist(), first[many].tolist(), (first + size)[many].tolist()):
            try:
                total = complex(math.fsum(re_l[a:b]), math.fsum(im_l[a:b]))
                mass = math.fsum(mag_l[a:b])  # inf where a part's abs overflows
                keep[g] = abs(total) > AMP_TOL * mass
                total_re[g], total_im[g] = total.real, total.imag
            except OverflowError:
                mass = math.inf
            overflow[g] = mass == math.inf
        if overflow.any():  # _merge raises on the first of these groups that it meets
            parts = np.sort(order[np.repeat(overflow, size)])
            _merge(_terms(re[parts], im[parts], wv[:, parts], frame), frame)
    kept = np.flatnonzero(keep)
    kept = kept[np.lexsort(rep[::-1, kept])]
    return _terms(total_re[kept].tolist(), total_im[kept].tolist(), rep[:, kept].tolist(), frame)


def _terms(re, im, wv, frame: str) -> tuple[ExpLinearTerm, ...]:
    """The terms re + i im at wavevectors whose (x1, y1, x2, y2) are the
    rows of wv."""
    return tuple(ExpLinearTerm(complex(a, b), frame, (complex(x1, y1), complex(x2, y2)))
                 for a, b, x1, y1, x2, y2 in zip(re, im, *wv))


def _eigenvalues(frame: str, k1, k2):
    """The eigenvalues of (d_1, d_2) on a term with wavevector (k1, k2):
    (i k1, i k2) for a cartesian plane wave, (a, b) for exp(a z + b zbar);
    complex numbers or _Pairs."""
    if frame == CARTESIAN:
        return 1j * k1, 1j * k2
    return k1, k2


class _Pairs:
    """Complex values as float64 real and imaginary arrays whose arithmetic
    is CPython's complex arithmetic (up to 3.13) step by step, so each
    element has the bits that the same expression on Python complex numbers
    gives: products are taken as real pairs, a float or complex operand is
    widened to (re, im) first (a float to (x, 0.0)), and division by a float
    is _Py_c_quot's divide-by-b.real branch.  numpy's own complex product
    and abs round differently on a share of inputs."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re, self.im = re, im

    @staticmethod
    def _of(x) -> "_Pairs":
        if isinstance(x, _Pairs):
            return x
        x = complex(x)
        return _Pairs(x.real, x.imag)

    def __add__(self, other) -> "_Pairs":
        o = _Pairs._of(other)
        return _Pairs(self.re + o.re, self.im + o.im)

    def __mul__(self, other) -> "_Pairs":
        o = _Pairs._of(other)
        return _Pairs(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    # IEEE * and + commute, so a scalar on the left gives the same bits
    __rmul__ = __mul__

    def conjugate(self) -> "_Pairs":
        return _Pairs(self.re, -self.im)

    def __truediv__(self, x: float) -> "_Pairs":
        ratio = 0.0 / x
        denom = x + 0.0 * ratio
        return _Pairs((self.re + self.im * ratio) / denom, (self.im - self.re * ratio) / denom)

    def exp(self, what: str | None = None) -> "_Pairs":
        """_exp(phase, what) elementwise in C order, with its results and bits:
        np.exp where the exponent is finite with real part up to 708 (it has
        cmath.exp's bits on that unscaled branch, to about 708.4), _exp elsewhere."""
        z = np.empty(np.broadcast(self.re, self.im).shape, dtype=complex)
        z.real, z.imag = self.re, self.im
        w = np.exp(z)
        edge = np.flatnonzero(~(np.isfinite(z) & (z.real <= 708.0)))
        w.flat[edge] = [_exp(phase, what) for phase in z.flat[edge].tolist()]
        return _Pairs(w.real, w.imag)


def _exp(phase, what: str | None = None):
    """cmath.exp(phase); where that overflows, a ValidationError saying that
    `what` overflows, or nan without `what`."""
    try:
        return cmath.exp(phase)
    except (OverflowError, ValueError) as exc:  # ValueError: an infinite imaginary part
        if what is None:
            return complex(math.nan, math.nan)
        raise ValidationError(f"{what} exp({phase:.6g}) overflows") from exc


def _pair(kernel, frame: str, left, right, what: str | None = "star_wave: the pair factor"):
    """One pair step of a product, on terms (amplitude, k1, k2) given as
    complex numbers or as _Pairs that broadcast: the amplitude product times
    exp(K_ab d_a e_b) when kernel is K, taken by _exp(exponent, what), and
    the summed wavevector; d and e are the two terms' _eigenvalues.  The one
    writer of the pair step's operation order, and so of its bits."""
    (a, s1, s2), (b, t1, t2) = left, right
    amplitude = a * b
    if kernel is not None:
        k11, k12, k21, k22 = kernel
        (d1, d2), (e1, e2) = _eigenvalues(frame, s1, s2), _eigenvalues(frame, t1, t2)
        exponent = k11 * d1 * e1 + k12 * d1 * e2 + k21 * d2 * e1 + k22 * d2 * e2
        factor = exponent.exp(what) if isinstance(exponent, _Pairs) else _exp(exponent, what)
        amplitude = amplitude * factor
    return amplitude, (s1 + t1, s2 + t2)


def _columns(terms, shape):
    """The amplitudes and both wavevector components of terms as _Pairs of
    the given shape."""
    c = np.array([v for t in terms for v in (t.amplitude, *t.wavevector)], dtype=complex).reshape(-1, 3)
    return tuple(_Pairs(c[:, j].real.reshape(shape), c[:, j].imag.reshape(shape)) for j in range(3))


def _scalar_product(f: WaveSum, g: WaveSum, kernel=None) -> WaveSum:
    """_product one pair at a time, s in f outermost."""
    right = [(t.amplitude, *t.wavevector) for t in g.terms]
    out = []
    for s in f.terms:
        left = (s.amplitude, *s.wavevector)
        for t in right:
            amplitude, wavevector = _pair(kernel, f.frame, left, t)
            out.append(ExpLinearTerm(amplitude, f.frame, wavevector))
    return WaveSum(tuple(out), f.frame)


def _array_product(f: WaveSum, g: WaveSum, kernel=None) -> WaveSum:
    """_scalar_product's bits on _Pairs arrays (f along axis 0), merged by
    _merge_sorted, or the error the loop raises first: the first pair
    factor that overflows (C order, f outermost), then the first pair term
    that is not finite, then the first merged group that overflows."""
    left, right = _columns(f.terms, (-1, 1)), _columns(g.terms, (1, -1))
    with np.errstate(over="ignore", invalid="ignore"):
        amplitude, (k1, k2) = _pair(kernel, f.frame, left, right)
        wv = np.stack([k1.re, k1.im, k2.re, k2.im]).reshape(4, -1)
        re, im = amplitude.re.ravel(), amplitude.im.ravel()
        bad = np.flatnonzero(~(np.isfinite(wv).all(axis=0) & np.isfinite(re) & np.isfinite(im)))[:1]
        _merge(_terms(re[bad], im[bad], wv[:, bad], f.frame), f.frame)  # raises there, if anywhere
        return WaveSum._canonical(_merge_sorted(re, im, wv, f.frame), f.frame)


def _product(f: WaveSum, g: WaveSum, kernel=None) -> WaveSum:
    """Every pair of f's and g's terms, merged: amplitudes multiply, times
    the star pair factor exp(K_ab d_a e_b) when kernel is K, and wavevectors
    add.  From _ARRAY_PAIRS pairs on the pairs are formed as arrays."""
    if len(f.terms) * len(g.terms) >= _ARRAY_PAIRS:
        return _array_product(f, g, kernel)
    return _scalar_product(f, g, kernel)


def star_wave(f: WaveSum, g: WaveSum, params: DeformationParams) -> WaveSum:
    """Star product of two exponential-linear sums; exact and closed.

    Each pair of terms picks up exp(K_ab d_a e_b), where K is
    star_kernel(frame, params) and d, e are the two terms' derivative
    eigenvalues; wavevectors add.  A factor that overflows raises
    ValidationError.
    """
    if f.frame != g.frame:
        raise FrameMismatchError(f"cannot star {f.frame!r} with {g.frame!r}")
    if f.is_zero or g.is_zero:
        return WaveSum.zero(f.frame)
    return _product(f, g, star_kernel(f.frame, params))


def tmap_wave(f: WaveSum, params: DeformationParams) -> WaveSum:
    """Equivalence map on plane waves: each term's amplitude multiplies by
    exp(-(i/4) Phi_ij k_i k_j); wavevectors are unchanged.  A factor that
    overflows raises ValidationError."""
    if f.frame != CARTESIAN:
        raise FrameMismatchError("the equivalence map acts on cartesian plane waves")
    out = []
    for t in f.terms:
        factor = _exp(-0.25j * params.phi_quadratic(*t.wavevector), "tmap_wave: the factor")
        out.append(ExpLinearTerm(t.amplitude * factor, CARTESIAN, t.wavevector))
    return WaveSum(tuple(out), CARTESIAN)


def max_amplitude_diff(f: WaveSum, g: WaveSum) -> float:
    """Largest |amplitude| of f - g per wavevector cell, before pruning;
    a term without a partner contributes its full magnitude."""
    negated = tuple(ExpLinearTerm(-t.amplitude, t.frame, t.wavevector) for t in g.terms)
    merged = _merge(f.terms + negated, f.frame, prune=False)
    return max((abs(t.amplitude) for t in merged), default=0.0)


def equivalence_residual(f: WaveSum, g: WaveSum, params: DeformationParams) -> float:
    """max |T(f *_M g) - T(f) * T(g)| over matched terms, relative to
    max(1, the largest amplitude on either side).

    Identically zero for every symmetric Phi; returning the residual lets
    callers verify the identity at a stated tolerance.
    """
    if f.frame != CARTESIAN or g.frame != CARTESIAN:
        raise FrameMismatchError("the equivalence identity is checked on cartesian waves")
    moyal = params.moyal()
    lhs = tmap_wave(star_wave(f, g, moyal), params)
    rhs = star_wave(tmap_wave(f, params), tmap_wave(g, params), params)
    scale = max([1.0] + [abs(t.amplitude) for t in lhs.terms + rhs.terms])
    return max_amplitude_diff(lhs, rhs) / scale


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
            f"{name} needs a one-term sum, got {len(f.terms)} terms (a term whose "
            f"amplitude is exactly 0, for example after an underflow, is dropped)"
        )
    return f.terms[0]


def plane_integral_cartesian(f: WaveSum) -> DeltaTerm:
    """Integral over the (x1, x2) plane of a one-term sum:
    A exp(i k.x) -> (2 pi)^2 A delta2(k).

    A wavevector with a nonzero imaginary part makes the integral divergent
    and raises, never silently limits.
    """
    if f.frame != CARTESIAN:
        raise FrameMismatchError("plane_integral_cartesian expects a cartesian sum")
    t = _single_term(f, "plane_integral_cartesian")
    k1, k2 = t.wavevector
    if abs(k1.imag) > IMAG_TOL or abs(k2.imag) > IMAG_TOL:
        raise DivergentIntegralError(
            f"plane integral of exp(i k.x) diverges for complex k = {t.wavevector!r}"
        )
    return DeltaTerm(t.amplitude * TWO_PI**2, (k1.real, k2.real))


def plane_integral_z(f: WaveSum) -> DeltaTerm:
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
    if abs(u_freq.imag) > IMAG_TOL or abs(v_freq.imag) > IMAG_TOL:
        raise DivergentIntegralError(
            f"plane integral of exp(a z + b zbar) diverges for (a, b) = {t.wavevector!r}"
        )
    return DeltaTerm(t.amplitude * 4.0 * math.pi, (u_freq.real, v_freq.real))


# -- state overlaps and resolution-of-identity amplitudes ----------------


def _point(name: str, v) -> tuple[float, float]:
    """The two finite real coordinates of the point v, a sequence of two."""
    try:
        x, y = v
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a sequence of two numbers, got {v!r}") from None
    return _finite_real(f"{name}[0]", x), _finite_real(f"{name}[1]", y)


def overlap_px(p, x) -> complex:
    """Momentum/position-state overlap (1/2 pi) exp(-i p.x)."""
    (p1, p2), (x1, x2) = _point("p", p), _point("x", x)
    return cmath.exp(-1j * (p1 * x1 + p2 * x2)) / TWO_PI


def position_roi_amplitude(params: DeformationParams, p, pprime) -> complex:
    """Amplitude multiplying delta2(p - p') in the star-sandwiched
    position-state identity integral, canonicalized on the delta support.

    Built from the engine's own pieces: (p|x) star (x|p') integrated over
    the plane.  The closed form is exp((i/2)[Phi_ij p_i p'_j
    + theta(p1 p2' - p2 p1')]); the identity is resolved iff the diagonal
    amplitude is 1, which happens exactly at Phi = 0.
    """
    (p1, p2), (q1, q2) = _point("p", p), _point("pprime", pprime)
    bra = WaveSum.plane_wave(-p1, -p2, amplitude=1.0 / TWO_PI)  # (p|x) as a function of x
    ket = WaveSum.plane_wave(q1, q2, amplitude=1.0 / TWO_PI)  # (x|p')
    delta = plane_integral_cartesian(star_wave(bra, ket, params))
    return delta.amplitude  # the (2 pi)^2 delta weight cancels the 1/(2 pi)^2 prefactors


def _coherent_state(theta, p1, p2) -> tuple[float, float, np.ndarray]:
    """theta as a float, s = sqrt(theta/2) and, per momentum p = p1 + i p2,
    the weight sqrt(theta/2 pi) exp(-theta |p|^2 / 4) of the
    coherent/momentum overlap (z,zbar|p) = weight * exp(i s (p zbar + pbar z));
    coherent states need theta > 0.  The weights have the formula's bits on
    Python floats: np.hypot is abs, |p|^2 is float ** (libm pow; np.square
    differs), and the exp is numpy's complex one (the real one may not be)."""
    t = _positive_theta(theta, "coherent states need")
    with np.errstate(over="ignore"):  # as on floats: |p| or -t |p|^2 may pass the range
        mag = np.hypot(p1, p2)
        try:
            if np.isinf(mag).any():
                raise OverflowError("absolute value too large")
            sq = np.array([v ** 2 for v in mag.tolist()])
        except OverflowError as exc:
            raise ValidationError(f"coherent states: theta |p|^2 overflows at |p| = {mag.max():.3g}") from exc
        return t, math.sqrt(t / 2.0), math.sqrt(t / TWO_PI) * np.exp((-t * sq / 4.0).astype(complex))


def coherent_momentum_overlap(z, p, theta) -> complex:
    """Closed-form coherent/momentum-state overlap:
    sqrt(theta/2 pi) exp(-theta |p|^2 / 4) exp(i sqrt(theta/2)(p zbar + pbar z))."""
    z, p = _finite_complex("z", z), _finite_complex("p", p)
    _, s, weight = _coherent_state(theta, [p.real], [p.imag])
    return weight.item() * cmath.exp(1j * s * (p * z.conjugate() + p.conjugate() * z))


def coherent_roi_amplitude(params: DeformationParams, p, pprime) -> complex:
    """Amplitude multiplying delta(p1-p1') delta(p2-p2') in the
    star-sandwiched coherent-state identity integral (1/pi) dz dzbar.

    The integrand is built with star_wave on z-frame exponentials and then
    integrated distributionally; only the diagonal p = p' carries the
    identity-resolution verdict.  Voros parameters give exactly 1.
    """
    p, q = _finite_complex("p", p), _finite_complex("pprime", pprime)
    t, s, weights = _coherent_state(params.theta, [q.real, p.real], [q.imag, p.imag])
    # (p'|z,zbar) = conj[(z,zbar|p')] and (z,zbar|p), as functions of (z, zbar)
    bra = WaveSum.z_exponential(-1j * s * q.conjugate(), -1j * s * q, amplitude=weights.item(0))
    ket = WaveSum.z_exponential(1j * s * p.conjugate(), 1j * s * p, amplitude=weights.item(1))
    delta = plane_integral_z(star_wave(bra, ket, params))
    # delta(2s(p1-p1')) delta(2s(p2-p2')) = delta2(p - p') / (2 theta)
    return delta.amplitude / (2.0 * t)


def roi_diagonal(which: str, params: DeformationParams, values) -> tuple[np.ndarray, ...]:
    """Columns (p1, p2, amp) over the grid values x values, p1 outermost: amp
    is the diagonal (p = p') RoI amplitude of the states that which names,
    position or coherent; the identity is resolved where amp = 1.

    The grid is evaluated at once, as arrays, with the bits that
    position_roi_amplitude or coherent_roi_amplitude gives point by point.
    That scalar function runs at the first point before the batch, which
    must match it there, and wherever it may raise or take another branch
    (amp not finite, as where the pair factor overflows, or exactly 0), in
    grid order, so the first point that fails raises its error.
    An empty grid, like a scalar walk over no points, checks nothing.
    """
    if which not in ("position", "coherent"):
        raise ValidationError(f"unknown state family {which!r}; expected position or coherent")
    axis = np.asarray(values, dtype=float)
    p1, p2 = np.repeat(axis, axis.size), np.tile(axis, axis.size)
    amp = np.empty(p1.size, dtype=complex)
    if not amp.size:
        return p1, p2, amp
    if which == "position":
        scalar = lambda x, y: position_roi_amplitude(params, (x, y), (x, y))
    else:
        scalar = lambda x, y: coherent_roi_amplitude(params, complex(x, y), complex(x, y))
    first = scalar(p1[0], p2[0])
    with np.errstate(all="ignore"):
        try:
            # each family's states, step by step as its scalar function builds
            # them, and the weight of its plane integral
            if which == "position":
                amplitude, frame = complex(1.0 / TWO_PI), CARTESIAN  # each state's, as stored
                bra = (amplitude, _Pairs(-p1, 0.0), _Pairs(-p2, 0.0))
                ket = (amplitude, _Pairs(p1, 0.0), _Pairs(p2, 0.0))
                plane = lambda a: a * TWO_PI**2
            else:
                t, s, weights = _coherent_state(params.theta, p1, p2)
                weight, p, frame = _Pairs(weights.real, weights.imag), _Pairs(p1, p2), COMPLEX
                bra = (weight, -1j * s * p.conjugate(), -1j * s * p)
                ket = (weight, 1j * s * p.conjugate(), 1j * s * p)
                plane = lambda a: a * 4.0 * math.pi / (2.0 * t)
            value, _ = _pair(star_kernel(frame, params), frame, bra, ket, what=None)
            value = plane(value)
            amp.real, amp.imag = value.re, value.im
            rerun = ~np.isfinite(amp) | (amp == 0)
        except ValidationError:  # an input overflows: the scalar walk says where
            rerun = np.ones(amp.size, dtype=bool)
    if not rerun[0] and repr(first) != repr(complex(amp[0])):
        raise EngineError(
            f"roi_diagonal: the batched {which} amplitude {complex(amp[0])!r} at "
            f"({float(p1[0])!r}, {float(p2[0])!r}) differs from the scalar {first!r}"
        )
    amp[0], rerun[0] = first, False
    for i in np.flatnonzero(rerun).tolist():
        amp[i] = scalar(p1[i], p2[i])
    return p1, p2, amp


# -- quadratic-form kernel amplitudes ------------------------------------


@dataclass(frozen=True)
class KernelAmplitude:
    """exp((u, v) . Q . (u, v)) on u = (p1, p2), v = (p1', p2').

    The amplitude multiplies delta2(p - p'), so the off-diagonal values are
    bookkeeping only and every identity-resolution verdict is read on the
    support p = p' (diagonal_only).
    """

    quad: np.ndarray
    diagonal_only = True

    def __post_init__(self):
        q = np.asarray(self.quad, dtype=complex)
        if q.shape != (4, 4):
            raise ValidationError(f"quad must be 4x4, got shape {q.shape}")
        if not np.allclose(q, q.T, atol=1e-12):
            raise ValidationError("quad must be symmetric")
        q = 0.5 * (q + q.T)
        q.setflags(write=False)
        object.__setattr__(self, "quad", q)

    def evaluate(self, p, pprime) -> complex:
        x = np.array([p[0], p[1], pprime[0], pprime[1]], dtype=complex)
        return cmath.exp(complex(x @ self.quad @ x))

    def to_json_dict(self) -> dict:
        return {
            "Q": [[[float(v.real), float(v.imag)] for v in row] for row in self.quad],
            "constant": [0.0, 0.0],
            "diagonal_only": self.diagonal_only,
        }


def _position_form(params: DeformationParams) -> np.ndarray:
    """Q of the exponent (i/2)(Phi + Theta)_ij p_i p'_j on (p1, p2, p1', p2')."""
    bil = np.array(star_kernel(CARTESIAN, params), dtype=complex).reshape(2, 2)
    q = np.zeros((4, 4), dtype=complex)
    q[:2, 2:] = bil / 2.0
    q[2:, :2] = bil.T / 2.0
    return q


def position_roi_kernel(params: DeformationParams) -> KernelAmplitude:
    """The position-state identity-resolution amplitude as a quadratic
    form: exponent (i/2)(Phi + Theta)_ij p_i p'_j."""
    return KernelAmplitude(_position_form(params))


def coherent_roi_kernel(params: DeformationParams) -> KernelAmplitude:
    """The coherent-state identity-resolution amplitude as a quadratic
    form, derived by transport from the position form.

    At Voros, T multiplies exp(i p.x) by exp(-theta |p|^2 / 4), so
    coherent states are T-transported position states.  The star product
    is bilinear, so Q is the position form plus the Gaussian
    -theta(|p|^2 + |p'|^2)/4 on the diagonal, with p and p' swapped because
    the coherent bra carries p' where the position bra carries p.
    """
    t = _positive_theta(params.theta, "coherent states need")
    swap = [2, 3, 0, 1]
    q = _position_form(params)[np.ix_(swap, swap)]
    return KernelAmplitude(q + np.diag(np.full(4, -t / 4.0)))
