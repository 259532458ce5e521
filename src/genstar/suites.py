"""Randomized verification suites shared by the CLI and the test suite.

Each suite replays the engine's central identities at pinned tolerances
on seeded random instances and reports the worst error seen, so a run is
reproducible bit for bit given (seed, trials).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .deformation import COMPLEX, DeformationParams, make_params, preset_params, star_kernel
from .errors import ValidationError
from .fockspace import (
    FockOp,
    coherent_projector,
    hs_inner,
    overlap_vs_closedform,
    quantum_ops,
)
from .polystar import Polynomial2, poly_equivalence_residual, star_commutator, star_poly
from .wavestar import WaveSum, coherent_roi_amplitude, equivalence_residual, roi_diagonal

SUITE_NAMES = ("algebra", "equivalence", "roi", "fock")

#: floor added to convergence comparisons; double precision cannot resolve
#: truncation errors below this once they saturate
CONVERGENCE_FLOOR = 1e-13


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_error: float
    tolerance: float
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class SuiteResult:
    name: str
    seed: int
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_error(self) -> float:
        return max((c.max_error for c in self.checks), default=0.0)


def _check(name: str, errors, tolerance: float, detail: str = "") -> CheckResult:
    """The worst of one check's per-trial errors (0.0 for none) against its
    tolerance."""
    worst = reduce(max, errors, 0.0)
    return CheckResult(name, worst, tolerance, worst <= tolerance, detail)


# -- random instances -----------------------------------------------------


def random_phi_entry(rng) -> complex:
    r = rng.uniform(0.0, 1.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return r * cmath.exp(1j * phase)


def random_params(rng, theta=None) -> DeformationParams:
    t = rng.uniform(0.1, 2.0) if theta is None else theta
    return make_params(
        t,
        phi11=random_phi_entry(rng),
        phi12=random_phi_entry(rng),
        phi22=random_phi_entry(rng),
    )


def random_polynomial(rng, max_degree: int = 4) -> Polynomial2:
    """Cartesian polynomial with 2 to 5 distinct monomials of degree <= max_degree."""
    exps = [(n1, n2) for n1 in range(max_degree + 1) for n2 in range(max_degree + 1 - n1)]
    picks = rng.choice(len(exps), size=rng.integers(2, 6), replace=False)
    terms = {}
    for idx in picks:
        terms[exps[int(idx)]] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return Polynomial2(terms)


def random_wavesum(rng) -> WaveSum:
    """One to three plane waves, wavevector components in [-2, 2)."""
    n = int(rng.integers(1, 4))
    out = WaveSum.zero()
    for _ in range(n):
        amp = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        out = out + WaveSum.plane_wave(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), amp)
    return out


# -- suites ----------------------------------------------------------------


def _law_errors(params, f, g, h) -> tuple[float, float, float, float]:
    """Associativity, antisymmetry, Jacobi and Leibniz errors of one triple."""

    def star(a, b):
        return star_poly(a, b, params)

    def bracket(a, b):
        return star_commutator(a, b, params)

    zero = Polynomial2.zero()
    gh, f_g = star(g, h), bracket(f, g)  # [f, g] enters three laws
    return (
        star(star(f, g), h).max_diff(star(f, gh)),
        (f_g + bracket(g, f)).max_diff(zero),
        (bracket(f, bracket(g, h)) + bracket(g, bracket(h, f)) + bracket(h, f_g)).max_diff(zero),
        bracket(f, gh).max_diff(star(f_g, h) + star(g, bracket(f, h))),
    )


def algebra_suite(seed: int = 0, trials: int | None = None) -> SuiteResult:
    """Deformed-commutator invariance plus the star-bracket laws, over trials
    commutator draws and trials law triples (None: 100 and 200)."""
    commutator_trials, law_trials = (100, 200) if trials is None else (trials, trials)
    rng = np.random.default_rng(seed)
    thetas = (0.1, 1.0, 2.0)
    commutator_params = [random_params(rng, theta=thetas[k % 3]) for k in range(commutator_trials)]
    triples = [
        (random_params(rng), random_polynomial(rng), random_polynomial(rng), random_polynomial(rng))
        for _ in range(law_trials)
    ]

    x1 = Polynomial2.variable("x1")
    x2 = Polynomial2.variable("x2")
    laws = [_law_errors(*triple) for triple in triples]
    return SuiteResult("algebra", seed, (
        _check("commutator-invariance",
               (star_commutator(x1, x2, p).max_diff(Polynomial2.constant(1j * p.theta))
                for p in commutator_params),
               1e-12, f"[x1, x2] = i theta over {commutator_trials} random Phi, theta in {thetas}"),
        _check("associativity", [e[0] for e in laws], 1e-10,
               f"{law_trials} random triples, degree <= 4"),
        _check("antisymmetry", [e[1] for e in laws], 1e-10),
        _check("jacobi", [e[2] for e in laws], 1e-10),
        _check("leibniz", [e[3] for e in laws], 1e-10),
    ))


def equivalence_suite(seed: int = 0, trials: int = 100) -> SuiteResult:
    """T(f *_M g) = T(f) * T(g) on plane waves and polynomials, plus the
    exact Moyal/Voros reductions of the z-frame kernel coefficients."""
    rng = np.random.default_rng(seed)
    waves = [(random_params(rng), random_wavesum(rng), random_wavesum(rng)) for _ in range(trials)]
    polys = [(random_params(rng), random_polynomial(rng), random_polynomial(rng))
             for _ in range(trials)]

    def kernel_errors(preset, reduced):
        for theta in (0.1, 0.5, 1.0, 2.0):
            kernel = star_kernel(COMPLEX, preset_params(preset, theta))
            yield max(abs(a - b) for a, b in zip(kernel, reduced))

    return SuiteResult("equivalence", seed, (
        _check("wave-equivalence", (equivalence_residual(f, g, p) for p, f, g in waves), 1e-12,
               f"{trials} random plane-wave pairs, random complex Phi"),
        _check("poly-equivalence", (poly_equivalence_residual(f, g, p) for p, f, g in polys), 1e-10,
               f"{trials} random polynomial pairs, degree <= 4"),
        _check("moyal-coefficients", kernel_errors("moyal", (0j, 0.5 + 0j, -0.5 + 0j, 0j)), 1e-15,
               "z-frame kernel reduces to (0, 1/2, -1/2, 0)"),
        _check("voros-coefficients", kernel_errors("voros", (0j, 1.0 + 0j, 0j, 0j)), 1e-15,
               "z-frame kernel reduces to (0, 1, 0, 0)"),
    ))


def _hope_amplitude(params: DeformationParams, p: complex, q: complex) -> complex:
    """Direct substitution oracle for the coherent-state kernel on the
    delta support (p = q is where verdicts are read).

    Deliberately independent of the engine: it writes its own z-frame
    coefficients c1..c4 instead of reading deformation.star_kernel, so a
    slip in the shared kernel cannot cancel out of the comparison.
    """
    t = params.theta
    c1 = params.phi11 - params.phi22 + 2j * params.phi12
    c2 = params.phi11 + params.phi22 - 2j * t
    c3 = params.phi11 + params.phi22 + 2j * t
    c4 = params.phi11 - params.phi22 - 2j * params.phi12
    pb, qb = p.conjugate(), q.conjugate()
    gauss = cmath.exp(-t * (abs(p) ** 2 + abs(q) ** 2) / 4.0)
    return gauss * cmath.exp((1j / 8.0) * (c1 * qb * pb + c2 * pb * q + c3 * p * qb + c4 * q * p))


def _diagonal(family: str, params: DeformationParams, grid) -> list[tuple[float, float, complex]]:
    """roi_diagonal's (p1, p2, amplitude) columns as a list of points."""
    return list(zip(*(column.tolist() for column in roi_diagonal(family, params, grid))))


def roi_suite(seed: int = 0) -> SuiteResult:
    """Resolution-of-identity amplitudes on a 20x20 momentum grid."""
    rng = np.random.default_rng(seed)
    draws = [(random_params(rng), complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
             for _ in range(50)]

    grid = np.linspace(-2.0, 2.0, 20)
    moyal = preset_params("moyal", 1.0)
    voros = preset_params("voros", 1.0)
    non_moyal = (make_params(1.0, phi11=0.2, phi22=0.2), make_params(1.0, phi12=0.3), voros)
    generic = [(params, _diagonal("position", params, grid)) for params in non_moyal]
    least_deviation = min(reduce(max, (abs(amp - 1.0) for _, _, amp in points), 0.0)
                          for _, points in generic)

    return SuiteResult("roi", seed, (
        _check("position-moyal-resolves",
               (abs(amp - 1.0) for _, _, amp in _diagonal("position", moyal, grid)), 1e-12,
               "diagonal amplitude = 1 on 20x20 grid in [-2,2]^2"),
        _check("position-generic-amplitude",
               (abs(amp - cmath.exp(0.5j * params.phi_quadratic(p1, p2)))
                for params, points in generic for p1, p2, amp in points), 1e-12,
               "diagonal amplitude = exp((i/2) Phi_ij p_i p_j) for 3 non-zero Phi; "
               f"each deviates from identity by >= {least_deviation:.3e} somewhere "
               "(non-resolution)"),
        _check("coherent-voros-resolves",
               (abs(amp - 1.0) for _, _, amp in _diagonal("coherent", voros, grid)), 1e-12,
               "diagonal amplitude = 1 on 20x20 grid"),
        _check("coherent-moyal-gaussian",
               (abs(amp - math.exp(-moyal.theta * abs(complex(p1, p2)) ** 2 / 2.0))
                for p1, p2, amp in _diagonal("coherent", moyal, grid)), 1e-12,
               "diagonal amplitude = exp(-theta |p|^2 / 2) (non-resolution)"),
        _check("coherent-generic-closedform",
               (abs(coherent_roi_amplitude(params, p, p) - _hope_amplitude(params, p, p))
                for params, p in draws), 1e-12,
               "engine path agrees with direct closed-form substitution"),
    ))


def random_interior_state(rng, dim: int) -> FockOp:
    """Normalised random operator supported on the leading (dim - 3) block."""
    m = np.zeros((dim, dim), dtype=complex)
    k = dim - 3
    m[:k, :k] = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    m /= np.linalg.norm(m)
    return FockOp(dim, m)


def _heisenberg_errors(theta: float, psi: FockOp) -> list[float]:
    """Entrywise error of [A, B] psi = c psi over the six (A, B, c)."""
    ops = quantum_ops(make_params(theta), psi.dim)
    table = (
        (ops.X1, ops.X2, 1j * theta),
        (ops.X1, ops.P1, 1j),
        (ops.X2, ops.P2, 1j),
        (ops.P1, ops.P2, 0.0),
        (ops.X1, ops.P2, 0.0),
        (ops.X2, ops.P1, 0.0),
    )
    return [float(np.max(np.abs((a(b(psi)) - b(a(psi))).matrix - (c * psi).matrix)))
            for a, b, c in table]


def fock_suite(seed: int = 0, trials: int = 20) -> SuiteResult:
    """Truncated Fock-space cross-checks against the closed forms, at
    truncation N = 64."""
    rng = np.random.default_rng(seed)
    dim = 64

    def disc(radius):
        return cmath.rect(rng.uniform(0, radius), rng.uniform(0, 2 * math.pi))

    overlaps = [(disc(1.0), disc(2.0), (1.0, 2.0)[k % 2]) for k in range(trials)]
    states = [(theta, random_interior_state(rng, dim)) for theta in (0.5, 1.0, 2.0)]
    pairs = [(disc(1.0), disc(1.0)) for _ in range(trials)]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        errs = [overlap_vs_closedform(0.7 + 0.2j, 1.6 - 1.0j, 2.0, n).abs_error
                for n in (16, 32, 64)]
    steps = list(zip(errs, errs[1:]))

    return SuiteResult("fock", seed, (
        _check("overlap-closedform",
               (overlap_vs_closedform(z, p, theta, dim).abs_error for z, p, theta in overlaps),
               1e-6, f"{trials} random (z, p), |z| <= 1, |p| <= 2, theta in (1, 2), N = {dim}"),
        # not _check: "each error at most 1.1 times the last, plus the floor" is not
        # the same float test as "excess <= 0"
        CheckResult("overlap-convergence",
                    max(0.0, *(b - 1.1 * a - CONVERGENCE_FLOOR for a, b in steps)), 0.0,
                    all(b <= 1.1 * a + CONVERGENCE_FLOOR for a, b in steps),
                    "errors at N = 16, 32, 64: " + ", ".join(f"{e:.2e}" for e in errs)),
        _check("heisenberg-interior",
               (e for theta, psi in states for e in _heisenberg_errors(theta, psi)), 1e-12,
               "all six commutators on interior-supported states"),
        _check("coherent-overlap",
               (abs(hs_inner(coherent_projector(zp, dim), coherent_projector(z, dim))
                    - cmath.exp(-abs(z - zp) ** 2)) for z, zp in pairs), 1e-10,
               "hs_inner of projectors = exp(-|z - z'|^2)"),
    ))


#: suite name -> its runner, called with seed= and, unless it is None, the
#: trial count; each runner names its suite at call time, so a rebound name
#: (a tracer's wrapper) is the one called.  The roi suite draws a fixed count
_SUITES = {
    "algebra": lambda **kw: algebra_suite(**kw),
    "equivalence": lambda **kw: equivalence_suite(**kw),
    "roi": lambda seed, trials=None: roi_suite(seed=seed),
    "fock": lambda **kw: fock_suite(**kw),
}


def run_suites(names=SUITE_NAMES, seed: int = 0, trials: int | None = None) -> list[SuiteResult]:
    """Run the named suites.  trials sets each count that a suite draws (the
    roi suite draws a fixed 50 and uses a 20x20 grid); None keeps the pinned
    defaults: 100 commutator draws, 200 law triples, 100 pairs, 20 Fock
    points.  An unknown name, a negative seed or trials < 1 raises
    ValidationError before any suite runs: no suite would check anything
    at trials = 0."""
    names = tuple(names)
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    if trials is not None and trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials!r}")
    for name in names:
        if name not in _SUITES:
            raise ValidationError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    kw = {} if trials is None else {"trials": trials}
    return [_SUITES[name](seed=seed, **kw) for name in names]
