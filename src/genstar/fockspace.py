"""Truncated boson Fock-space numerics.

Physical states are Hilbert-Schmidt operators on the noncommutative
configuration space; here both live at a finite truncation dimension N.
Operators are compressed to the top-left N x N block, so the ladder
algebra holds exactly away from the top two levels and every check below
restricts to interior-supported states.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .deformation import DeformationParams, _finite_complex, _positive_theta
from .errors import DimensionMismatchError, ValidationError
from .wavestar import coherent_momentum_overlap

#: coherent-state truncation mass beyond the cutoff must stay below this
COHERENT_TAIL_TOL = 1e-12


def _as_square(matrix, dim: int) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (dim, dim):
        raise ValidationError(f"matrix shape {m.shape} does not match dim {dim}")
    if not np.isfinite(m).all():
        raise ValidationError("matrix entries must be finite")
    m = m.copy()
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class FockOp:
    """Dense N x N complex matrix over the truncated Fock space."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.dim < 2:
            raise ValidationError(f"truncation dimension must be >= 2, got {self.dim}")
        object.__setattr__(self, "matrix", _as_square(self.matrix, self.dim))

    def dagger(self) -> "FockOp":
        return FockOp(self.dim, self.matrix.conj().T)

    def _check(self, other):
        if not isinstance(other, FockOp):
            raise TypeError(f"expected FockOp, got {type(other).__name__}")
        if other.dim != self.dim:
            raise DimensionMismatchError(f"dim {self.dim} vs {other.dim}")

    def __matmul__(self, other):
        self._check(other)
        return FockOp(self.dim, self.matrix @ other.matrix)

    def __add__(self, other):
        self._check(other)
        return FockOp(self.dim, self.matrix + other.matrix)

    def __sub__(self, other):
        self._check(other)
        return FockOp(self.dim, self.matrix - other.matrix)

    def __mul__(self, scalar):
        return FockOp(self.dim, self.matrix * complex(scalar))

    __rmul__ = __mul__

    def commutator(self, other: "FockOp") -> "FockOp":
        self._check(other)
        return FockOp(self.dim, self.matrix @ other.matrix - other.matrix @ self.matrix)


def ladder_ops(dim: int) -> tuple[FockOp, FockOp]:
    """Annihilation/creation pair (b, bdag) with b|n> = sqrt(n)|n-1>.

    At finite truncation [b, bdag] equals the identity except in the last
    diagonal entry, which is 1 - dim.
    """
    b = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)
    return FockOp(dim, b), FockOp(dim, b.conj().T)


def coherent_vector(z, dim: int) -> np.ndarray:
    """Normalized coherent state exp(-|z|^2/2) sum_n z^n/sqrt(n!) |n>, as a
    read-only vector of its dim components.

    Warns when the truncated tail mass exp(-|z|^2)|z|^(2 dim)/dim! is not
    below 1e-12.
    """
    if dim < 2:
        raise ValidationError(f"truncation dimension must be >= 2, got {dim}")
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
    return FockOp(dim, np.outer(v, v.conj()))


def hs_inner(phi: FockOp, psi: FockOp) -> complex:
    """Hilbert-Schmidt inner product trace(phi^dag psi)."""
    if not isinstance(phi, FockOp):
        raise TypeError("hs_inner expects two FockOp operands")
    phi._check(psi)
    return complex(np.vdot(phi.matrix, psi.matrix))


@dataclass(frozen=True)
class QuantumOps:
    """Position/momentum/ladder actions on the quantum Hilbert space.

    Every action is a left multiplication or a commutator: X1, X2 and B
    multiply by x1, x2 and b from the left; P1 psi = (1/theta)[x2, psi],
    P2 psi = -(1/theta)[x1, psi], and the complex combination acts as
    P psi = -i sqrt(2/theta)[b, psi].  hbar = 1.
    """

    theta: float
    dim: int
    b: FockOp
    bdag: FockOp
    x1: FockOp
    x2: FockOp

    def X1(self, psi: FockOp) -> FockOp:
        return self.x1 @ psi

    def X2(self, psi: FockOp) -> FockOp:
        return self.x2 @ psi

    def B(self, psi: FockOp) -> FockOp:
        return self.b @ psi

    def P1(self, psi: FockOp) -> FockOp:
        return FockOp(self.dim, self.x2.commutator(psi).matrix / self.theta)

    def P2(self, psi: FockOp) -> FockOp:
        return FockOp(self.dim, -self.x1.commutator(psi).matrix / self.theta)

    def P(self, psi: FockOp) -> FockOp:
        return self.b.commutator(psi) * (-1j * math.sqrt(2.0 / self.theta))


def quantum_ops(params: DeformationParams, dim: int) -> QuantumOps:
    """Build the operator set at truncation dim; needs theta > 0."""
    t = _positive_theta(params.theta, "quantum operators need")
    b, bdag = ladder_ops(dim)
    s = math.sqrt(t / 2.0)
    x1 = FockOp(dim, s * (b.matrix + bdag.matrix))
    x2 = FockOp(dim, -1j * s * (b.matrix - bdag.matrix))
    return QuantumOps(theta=t, dim=dim, b=b, bdag=bdag, x1=x1, x2=x2)


def momentum_state_op(p, theta, dim: int) -> FockOp:
    """Momentum eigenstate sqrt(theta/2 pi) exp(i sqrt(theta/2)(pbar b + p bdag))
    as a truncated matrix.

    The generator is sqrt(theta/2)(pbar b + p bdag), which is Hermitian, so
    the exponential is computed by eigendecomposition and is unitary up to
    the truncation edge.  Warns when theta |p|^2 > dim/4.
    """
    t = _positive_theta(theta, "momentum states need")
    p = _finite_complex("p", p)
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
    b, bdag = ladder_ops(dim)
    gen = math.sqrt(t / 2.0) * (p.conjugate() * b.matrix + p * bdag.matrix)
    evals, vecs = np.linalg.eigh(gen)
    expm = (vecs * np.exp(1j * evals)) @ vecs.conj().T
    return FockOp(dim, math.sqrt(t / (2.0 * math.pi)) * expm)


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
