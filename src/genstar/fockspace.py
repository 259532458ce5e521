"""Truncated boson Fock-space numerics.

Physical states are Hilbert-Schmidt operators on the noncommutative
configuration space; here both live at a finite truncation dimension N.
Operators are compressed to the top-left N x N block, so the ladder
algebra holds exactly away from the top two levels and every check below
restricts to interior-supported states.

b is one scaled superdiagonal, so nothing here multiplies or diagonalises
a dense N x N matrix: the actions shift rows by one level (a right action
is the transposed left action), and the momentum state comes from the SVD
of an N/2 x N/2 block.  That SVD depends on N only: it is computed once
per N and kept for the 4 most recent N, at most 4 x 16 MiB at the largest
N (2048).
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .deformation import _MAX_TENSOR, DeformationParams, _finite_complex, _positive_theta
from .errors import DimensionMismatchError, ValidationError
from .wavestar import coherent_momentum_overlap

#: coherent-state truncation mass beyond the cutoff must stay below this
COHERENT_TAIL_TOL = 1e-12


def _as_dim(dim) -> int:
    """dim as a Python int >= 2; integers of any type, numpy's included."""
    try:
        dim = operator.index(dim)
    except TypeError:
        raise ValidationError(f"truncation dimension must be an integer, got {dim!r}") from None
    if dim < 2:
        raise ValidationError(f"truncation dimension must be >= 2, got {dim}")
    return dim


def _check_dim(dim) -> int:
    """_as_dim(dim), once a dim x dim matrix fits the array bound."""
    dim = _as_dim(dim)
    if dim * dim > _MAX_TENSOR:
        raise ValidationError(f"truncation dimension {dim} needs more than {_MAX_TENSOR} matrix entries")
    return dim


def _matrix_of(psi, dim: int) -> np.ndarray:
    if not isinstance(psi, FockOp):
        raise TypeError(f"expected FockOp, got {type(psi).__name__}")
    if psi.dim != dim:
        raise DimensionMismatchError(f"dim {dim} vs {psi.dim}")
    return psi.matrix


def _as_square(m: np.ndarray, dim: int) -> np.ndarray:
    """m, made read-only, once its shape and entries are checked."""
    if m.shape != (dim, dim):
        raise ValidationError(f"matrix shape {m.shape} does not match dim {dim}")
    if not np.isfinite(m).all():
        raise ValidationError("matrix entries must be finite")
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class FockOp:
    """Dense N x N complex matrix over the truncated Fock space."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dim", _as_dim(self.dim))
        # a copy: the caller keeps the array it passed, and may write to it
        matrix = np.array(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", _as_square(matrix, self.dim))

    @classmethod
    def _owned(cls, dim: int, matrix: np.ndarray) -> "FockOp":
        """FockOp(dim, matrix) for a complex array the engine has just
        allocated and holds no other reference to: checked, not copied."""
        op = object.__new__(cls)
        object.__setattr__(op, "dim", dim)
        object.__setattr__(op, "matrix", _as_square(np.asarray(matrix, dtype=complex), dim))
        return op

    def dagger(self) -> "FockOp":
        return FockOp._owned(self.dim, self.matrix.conj().T)

    def _check(self, other):
        _matrix_of(other, self.dim)

    def __matmul__(self, other):
        self._check(other)
        return FockOp._owned(self.dim, self.matrix @ other.matrix)

    def __add__(self, other):
        self._check(other)
        return FockOp._owned(self.dim, self.matrix + other.matrix)

    def __sub__(self, other):
        self._check(other)
        return FockOp._owned(self.dim, self.matrix - other.matrix)

    def __mul__(self, scalar):
        return FockOp._owned(self.dim, self.matrix * complex(scalar))

    __rmul__ = __mul__

    def commutator(self, other: "FockOp") -> "FockOp":
        self._check(other)
        return FockOp._owned(self.dim, self.matrix @ other.matrix - other.matrix @ self.matrix)


def ladder_ops(dim: int) -> tuple[FockOp, FockOp]:
    """Annihilation/creation pair (b, bdag) with b|n> = sqrt(n)|n-1>.

    At finite truncation [b, bdag] equals the identity except in the last
    diagonal entry, which is 1 - dim.
    """
    dim = _check_dim(dim)
    b = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)
    return FockOp._owned(dim, b), FockOp._owned(dim, b.conj().T)


def coherent_vector(z, dim: int) -> np.ndarray:
    """Normalized coherent state exp(-|z|^2/2) sum_n z^n/sqrt(n!) |n>, as a
    read-only vector of its dim components.

    Warns when the truncated tail mass exp(-|z|^2)|z|^(2 dim)/dim! is not
    below 1e-12.
    """
    dim = _check_dim(dim)
    z = _finite_complex("z", z)
    try:
        r2 = abs(z) ** 2  # below overflow, every component is finite
    except OverflowError as exc:
        raise ValidationError(f"coherent state |z|^2 overflows at |z| = {abs(z):.3g}") from exc
    if r2 > 0.0:
        log_tail = -r2 + 2 * dim * math.log(abs(z)) - math.lgamma(dim + 1)
        if log_tail > math.log(COHERENT_TAIL_TOL):
            warnings.warn(
                f"coherent state |z|={abs(z):.3g} poorly truncated at dim={dim} "
                f"(tail ~ {math.exp(log_tail):.2e})",
                RuntimeWarning,
                stacklevel=2,
            )
    v = np.zeros(dim, dtype=complex)
    v[0] = math.exp(-r2 / 2.0)
    for n in range(1, dim):
        v[n] = v[n - 1] * z / math.sqrt(n)
    v.setflags(write=False)
    return v


def coherent_projector(z, dim: int) -> FockOp:
    """Rank-1 operator |z><z|; the minimum-uncertainty element of the
    quantum Hilbert space."""
    v = coherent_vector(z, dim)
    return FockOp._owned(dim, np.outer(v, v.conj()))


def hs_inner(phi: FockOp, psi: FockOp) -> complex:
    """Hilbert-Schmidt inner product trace(phi^dag psi)."""
    if not isinstance(phi, FockOp):
        raise TypeError("hs_inner expects two FockOp operands")
    phi._check(psi)
    return complex(np.vdot(phi.matrix, psi.matrix))


#: rows per block of a ladder action's second shifted term
_LADDER_BLOCK = 64


def _ladder(m: np.ndarray, lower: complex, upper: complex) -> np.ndarray:
    """(lower b + upper bdag) m: b moves level n + 1 to level n with weight
    sqrt(n + 1), so each term is m shifted by one row and scaled.  The
    second term is added in blocks of _LADDER_BLOCK rows, so no temporary is
    as large as m.  b and bdag are each other's transposes, so the right
    action m (lower b + upper bdag) is _ladder(m.T, upper, lower).T."""
    s = np.sqrt(np.arange(1.0, len(m)))
    out = np.empty_like(m)
    # (b m)[n] = sqrt(n + 1) m[n + 1], (bdag m)[n] = sqrt(n) m[n - 1]
    np.multiply(m[1:], (lower * s)[:, None], out=out[:-1])
    out[-1] = 0.0
    w = upper * s
    for i in range(0, len(s), _LADDER_BLOCK):
        j = min(i + _LADDER_BLOCK, len(s))
        out[i + 1 : j + 1] += m[i:j] * w[i:j, None]
    return out


@dataclass(frozen=True)
class QuantumOps:
    """Position/momentum/ladder actions on the quantum Hilbert space.

    Every action is a left multiplication or a commutator: X1, X2 and B
    multiply by x1 = sqrt(theta/2)(b + bdag), x2 = -i sqrt(theta/2)(b - bdag)
    and b from the left; P1 psi = (1/theta)[x2, psi], P2 psi =
    -(1/theta)[x1, psi], and the complex combination acts as P psi =
    -i sqrt(2/theta)[b, psi].  hbar = 1.  Each product with a ladder
    combination is a one-level shift of psi's rows, O(N^2) work; a right
    action is the transposed left action, as b^T = bdag.  theta must be
    finite and > 0, and dim an integer >= 2 within the array bound.
    """

    theta: float
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "theta", _positive_theta(self.theta, "quantum operators need"))
        object.__setattr__(self, "dim", _check_dim(self.dim))

    def _act(self, psi: FockOp, lower: complex, upper: complex, commute: bool = False) -> FockOp:
        """A psi, or [A, psi] when commute, for A = lower b + upper bdag."""
        m = _matrix_of(psi, self.dim)
        out = _ladder(m, lower, upper)
        if commute:
            out -= _ladder(m.T, upper, lower).T
        return FockOp._owned(self.dim, out)

    def X1(self, psi: FockOp) -> FockOp:
        s = math.sqrt(self.theta / 2.0)
        return self._act(psi, s, s)

    def X2(self, psi: FockOp) -> FockOp:
        s = math.sqrt(self.theta / 2.0)
        return self._act(psi, -1j * s, 1j * s)

    def B(self, psi: FockOp) -> FockOp:
        return self._act(psi, 1.0, 0.0)

    def P1(self, psi: FockOp) -> FockOp:
        s = 1.0 / math.sqrt(2.0 * self.theta)  # sqrt(theta/2) / theta
        return self._act(psi, -1j * s, 1j * s, commute=True)

    def P2(self, psi: FockOp) -> FockOp:
        s = 1.0 / math.sqrt(2.0 * self.theta)
        return self._act(psi, -s, -s, commute=True)

    def P(self, psi: FockOp) -> FockOp:
        return self._act(psi, -1j * math.sqrt(2.0 / self.theta), 0.0, commute=True)


def quantum_ops(params: DeformationParams, dim: int) -> QuantumOps:
    """Build the operator set at truncation dim; needs theta > 0."""
    return QuantumOps(params.theta, dim)


@functools.lru_cache(maxsize=4)
def _even_odd_svd(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (U, S, V^T) of the block C = H[even, odd] of H = b + bdag at
    truncation dim, built directly: H[n - 1, n] = H[n, n - 1] = sqrt(n) is
    C[n // 2, (n - 1) // 2].  U and V^T are at most 1024 x 1024 each, so a
    cached dim holds at most 16 MiB."""
    n = np.arange(1, dim)
    block = np.zeros(((dim + 1) // 2, dim // 2))
    block[n // 2, (n - 1) // 2] = np.sqrt(n)
    factors = np.linalg.svd(block, full_matrices=False)
    for a in factors:
        a.flags.writeable = False
    return tuple(factors)


def momentum_state_op(p, theta, dim: int) -> FockOp:
    """Momentum eigenstate sqrt(theta/2 pi) exp(i sqrt(theta/2)(pbar b + p bdag))
    as a truncated matrix.

    With p = |p| e^(i phi) and L = diag(e^(i n phi)) the generator is
    mu L (b + bdag) L^dag, mu = sqrt(theta/2)|p|, so entry (m, n) of the
    exponential is e^(i (m - n) phi) exp(i mu H)[m, n] for the real
    H = b + bdag.  H only couples even levels to odd ones, through the
    block C = H[even, odd] = U S V^T (its SVD), so exp(i mu H) has even-even
    block 1 - 2 U sin^2(mu S/2) U^T, odd-odd block 1 - 2 V sin^2(mu S/2) V^T
    and off-diagonal blocks i U sin(mu S) V^T and its transpose.  At odd dim
    the even level left out of U keeps cos(0) = 1.  The result is unitary up
    to the truncation edge.  Warns when theta |p|^2 > dim/4.

    The SVD is computed once per dim and kept for the 4 most recent dims,
    at most 4 x 16 MiB at the largest dim (2048).
    """
    t = _positive_theta(theta, "momentum states need")
    p = _finite_complex("p", p)
    dim = _check_dim(dim)
    try:
        spread = t * abs(p) ** 2
    except OverflowError as exc:
        raise ValidationError(f"momentum state theta|p|^2 overflows at |p| = {abs(p):.3g}") from exc
    if spread > dim / 4.0:
        warnings.warn(
            f"momentum state theta|p|^2 = {spread:.3g} exceeds dim/4 = {dim / 4:.3g}; "
            "truncation may be inaccurate",
            RuntimeWarning,
            stacklevel=2,
        )
    mu = math.sqrt(t / 2.0) * abs(p)
    u, sigma, vt = _even_odd_svd(dim)
    half = 2.0 * np.sin(mu * sigma / 2.0) ** 2  # 1 - cos(mu sigma), without cancellation
    out = np.empty((dim, dim), dtype=complex)
    out[::2, ::2] = np.eye(len(u)) - (u * half) @ u.T
    out[1::2, 1::2] = np.eye(len(vt)) - (vt.T * half) @ vt
    out[::2, 1::2] = 1j * ((u * np.sin(mu * sigma)) @ vt)
    out[1::2, ::2] = out[::2, 1::2].T
    phase = np.exp(1j * math.atan2(p.imag, p.real) * np.arange(dim))
    out *= phase[:, None] * math.sqrt(t / (2.0 * math.pi))
    out *= phase.conj()
    return FockOp._owned(dim, out)


@dataclass(frozen=True)
class OverlapComparison:
    """Truncated-matrix overlap against the closed form, with their gap."""

    numeric: complex
    closed: complex
    abs_error: float


def overlap_vs_closedform(z, p, theta, dim: int) -> OverlapComparison:
    """Strongest independent cross-check in the package: the matrix value
    tr[(|z><z|)^dag |p)] against the closed-form coherent/momentum overlap."""
    numeric = hs_inner(coherent_projector(z, dim), momentum_state_op(p, theta, dim))
    closed = coherent_momentum_overlap(z, p, theta)
    return OverlapComparison(numeric, closed, abs(numeric - closed))
