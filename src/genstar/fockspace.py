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

from .deformation import DeformationParams
from .errors import DimensionMismatchError, SingularParameterError, ValidationError
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
        if isinstance(other, FockVec):
            if other.dim != self.dim:
                raise DimensionMismatchError(f"dim {self.dim} vs {other.dim}")
            return FockVec(self.dim, self.matrix @ other.components)
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


@dataclass(frozen=True)
class FockVec:
    """Element of the truncated configuration space."""

    dim: int
    components: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.components, dtype=complex)
        if v.shape != (self.dim,):
            raise ValidationError(f"components shape {v.shape} does not match dim {self.dim}")
        if not np.isfinite(v).all():
            raise ValidationError("components must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "components", v)


def ladder_ops(dim: int) -> tuple[FockOp, FockOp]:
    """Annihilation/creation pair (b, bdag) with b|n> = sqrt(n)|n-1>.

    At finite truncation [b, bdag] equals the identity except in the last
    diagonal entry, which is 1 - dim.
    """
    if dim < 2:
        raise ValidationError(f"truncation dimension must be >= 2, got {dim}")
    b = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)
    return FockOp(dim, b), FockOp(dim, b.conj().T)


def coherent_vector(z, dim: int) -> FockVec:
    """Normalized coherent state exp(-|z|^2/2) sum_n z^n/sqrt(n!) |n>.

    Warns when the truncated tail mass exp(-|z|^2)|z|^(2 dim)/dim! is not
    below 1e-12.
    """
    if dim < 2:
        raise ValidationError(f"truncation dimension must be >= 2, got {dim}")
    z = complex(z)
    if abs(z) > 0.0:
        log_tail = -abs(z) ** 2 + 2 * dim * math.log(abs(z)) - math.lgamma(dim + 1)
        if log_tail > math.log(COHERENT_TAIL_TOL):
            warnings.warn(
                f"coherent state |z|={abs(z):.3g} poorly truncated at dim={dim} "
                f"(tail ~ {math.exp(log_tail):.2e})",
                RuntimeWarning,
                stacklevel=2,
            )
    v = np.zeros(dim, dtype=complex)
    v[0] = math.exp(-abs(z) ** 2 / 2.0)
    for n in range(1, dim):
        v[n] = v[n - 1] * z / math.sqrt(n)
    return FockVec(dim, v)


def coherent_projector(z, dim: int) -> FockOp:
    """Rank-1 operator |z><z|; the minimum-uncertainty element of the
    quantum Hilbert space."""
    v = coherent_vector(z, dim).components
    return FockOp(dim, np.outer(v, v.conj()))


def hs_inner(phi: FockOp, psi: FockOp) -> complex:
    """Hilbert-Schmidt inner product trace(phi^dag psi)."""
    if not isinstance(phi, FockOp) or not isinstance(psi, FockOp):
        raise TypeError("hs_inner expects two FockOp operands")
    if phi.dim != psi.dim:
        raise DimensionMismatchError(f"dim {phi.dim} vs {psi.dim}")
    return complex(np.vdot(phi.matrix, psi.matrix))


@dataclass(frozen=True)
class QuantumOps:
    """Position/momentum/ladder actions on the quantum Hilbert space.

    Positions act by left multiplication, momenta adjointly:
    P1 psi = (1/theta)[x2, psi], P2 psi = -(1/theta)[x1, psi], and the
    complex combination acts as P psi = -i sqrt(2/theta)[b, psi].  B is
    left multiplication by b.  hbar = 1.
    """

    theta: float
    dim: int
    b: FockOp
    bdag: FockOp
    x1: FockOp
    x2: FockOp

    def _check(self, psi: FockOp):
        if psi.dim != self.dim:
            raise DimensionMismatchError(f"dim {self.dim} vs {psi.dim}")

    def X1(self, psi: FockOp) -> FockOp:
        self._check(psi)
        return FockOp(self.dim, self.x1.matrix @ psi.matrix)

    def X2(self, psi: FockOp) -> FockOp:
        self._check(psi)
        return FockOp(self.dim, self.x2.matrix @ psi.matrix)

    def P1(self, psi: FockOp) -> FockOp:
        self._check(psi)
        m = psi.matrix
        return FockOp(self.dim, (self.x2.matrix @ m - m @ self.x2.matrix) / self.theta)

    def P2(self, psi: FockOp) -> FockOp:
        self._check(psi)
        m = psi.matrix
        return FockOp(self.dim, -(self.x1.matrix @ m - m @ self.x1.matrix) / self.theta)

    def B(self, psi: FockOp) -> FockOp:
        self._check(psi)
        return FockOp(self.dim, self.b.matrix @ psi.matrix)

    def P(self, psi: FockOp) -> FockOp:
        self._check(psi)
        m = psi.matrix
        c = -1j * math.sqrt(2.0 / self.theta)
        return FockOp(self.dim, c * (self.b.matrix @ m - m @ self.b.matrix))


def quantum_ops(params: DeformationParams, dim: int) -> QuantumOps:
    """Build the operator set at truncation dim; needs theta > 0."""
    if params.theta <= 0.0:
        raise SingularParameterError(f"quantum operators need theta > 0, got {params.theta!r}")
    b, bdag = ladder_ops(dim)
    s = math.sqrt(params.theta / 2.0)
    x1 = FockOp(dim, s * (b.matrix + bdag.matrix))
    x2 = FockOp(dim, -1j * s * (b.matrix - bdag.matrix))
    return QuantumOps(theta=params.theta, dim=dim, b=b, bdag=bdag, x1=x1, x2=x2)


def momentum_state_op(p, theta, dim: int) -> FockOp:
    """Momentum eigenstate sqrt(theta/2 pi) exp(i sqrt(theta/2)(pbar b + p bdag))
    as a truncated matrix.

    The generator is sqrt(theta/2)(pbar b + p bdag), which is Hermitian, so
    the exponential is computed by eigendecomposition and is unitary up to
    the truncation edge.  Warns when theta |p|^2 > dim/4.
    """
    t = float(theta)
    if t <= 0.0:
        raise SingularParameterError(f"momentum states need theta > 0, got {theta!r}")
    p = complex(p)
    if t * abs(p) ** 2 > dim / 4.0:
        warnings.warn(
            f"momentum state theta|p|^2 = {t * abs(p) ** 2:.3g} exceeds dim/4 = {dim / 4:.3g}; "
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
