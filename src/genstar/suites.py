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


def algebra_suite(seed: int = 0, commutator_trials: int = 100, law_trials: int = 200) -> SuiteResult:
    """Deformed-commutator invariance plus the star-bracket laws."""
    rng = np.random.default_rng(seed)
    x1 = Polynomial2.variable("x1")
    x2 = Polynomial2.variable("x2")

    worst_comm = 0.0
    thetas = (0.1, 1.0, 2.0)
    for k in range(commutator_trials):
        params = random_params(rng, theta=thetas[k % 3])
        target = Polynomial2.constant(1j * params.theta)
        worst_comm = max(worst_comm, star_commutator(x1, x2, params).max_diff(target))

    worst_assoc = worst_anti = worst_jacobi = worst_leibniz = 0.0
    for _ in range(law_trials):
        params = random_params(rng)
        f = random_polynomial(rng)
        g = random_polynomial(rng)
        h = random_polynomial(rng)
        fg = star_poly(f, g, params)
        gh = star_poly(g, h, params)
        worst_assoc = max(
            worst_assoc, star_poly(fg, h, params).max_diff(star_poly(f, gh, params))
        )
        worst_anti = max(
            worst_anti,
            (star_commutator(f, g, params) + star_commutator(g, f, params)).max_diff(
                Polynomial2.zero()
            ),
        )
        jac = (
            star_commutator(f, star_commutator(g, h, params), params)
            + star_commutator(g, star_commutator(h, f, params), params)
            + star_commutator(h, star_commutator(f, g, params), params)
        )
        worst_jacobi = max(worst_jacobi, jac.max_diff(Polynomial2.zero()))
        lhs = star_commutator(f, gh, params)
        rhs = star_poly(star_commutator(f, g, params), h, params) + star_poly(
            g, star_commutator(f, h, params), params
        )
        worst_leibniz = max(worst_leibniz, lhs.max_diff(rhs))

    checks = (
        CheckResult(
            "commutator-invariance",
            worst_comm,
            1e-12,
            worst_comm <= 1e-12,
            f"[x1, x2] = i theta over {commutator_trials} random Phi, theta in {thetas}",
        ),
        CheckResult("associativity", worst_assoc, 1e-10, worst_assoc <= 1e-10,
                    f"{law_trials} random triples, degree <= 4"),
        CheckResult("antisymmetry", worst_anti, 1e-10, worst_anti <= 1e-10, ""),
        CheckResult("jacobi", worst_jacobi, 1e-10, worst_jacobi <= 1e-10, ""),
        CheckResult("leibniz", worst_leibniz, 1e-10, worst_leibniz <= 1e-10, ""),
    )
    return SuiteResult("algebra", seed, checks)


def equivalence_suite(seed: int = 0, trials: int = 100) -> SuiteResult:
    """T(f *_M g) = T(f) * T(g) on plane waves and polynomials, plus the
    exact Moyal/Voros reductions of the z-frame kernel coefficients."""
    rng = np.random.default_rng(seed)

    worst_wave = 0.0
    for _ in range(trials):
        params = random_params(rng)
        f = random_wavesum(rng)
        g = random_wavesum(rng)
        worst_wave = max(worst_wave, equivalence_residual(f, g, params))

    worst_poly = 0.0
    for _ in range(trials):
        params = random_params(rng)
        f = random_polynomial(rng)
        g = random_polynomial(rng)
        worst_poly = max(worst_poly, poly_equivalence_residual(f, g, params))

    worst_moyal = worst_voros = 0.0
    for theta in (0.1, 0.5, 1.0, 2.0):
        cm = star_kernel(COMPLEX, preset_params("moyal", theta))
        cv = star_kernel(COMPLEX, preset_params("voros", theta))
        worst_moyal = max(
            worst_moyal, max(abs(a - b) for a, b in zip(cm, (0j, 0.5 + 0j, -0.5 + 0j, 0j)))
        )
        worst_voros = max(
            worst_voros, max(abs(a - b) for a, b in zip(cv, (0j, 1.0 + 0j, 0j, 0j)))
        )

    checks = (
        CheckResult("wave-equivalence", worst_wave, 1e-12, worst_wave <= 1e-12,
                    f"{trials} random plane-wave pairs, random complex Phi"),
        CheckResult("poly-equivalence", worst_poly, 1e-10, worst_poly <= 1e-10,
                    f"{trials} random polynomial pairs, degree <= 4"),
        CheckResult("moyal-coefficients", worst_moyal, 1e-15, worst_moyal <= 1e-15,
                    "z-frame kernel reduces to (0, 1/2, -1/2, 0)"),
        CheckResult("voros-coefficients", worst_voros, 1e-15, worst_voros <= 1e-15,
                    "z-frame kernel reduces to (0, 1, 0, 0)"),
    )
    return SuiteResult("equivalence", seed, checks)


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


def roi_suite(seed: int = 0, grid_points: int = 20) -> SuiteResult:
    """Resolution-of-identity amplitudes on momentum grids."""
    rng = np.random.default_rng(seed)
    grid = np.linspace(-2.0, 2.0, grid_points)

    moyal = preset_params("moyal", 1.0)
    worst_pos_moyal = 0.0
    for amp in roi_diagonal("position", moyal, grid)[2].tolist():
        worst_pos_moyal = max(worst_pos_moyal, abs(amp - 1.0))

    non_moyal = (
        make_params(1.0, phi11=0.2, phi22=0.2),
        make_params(1.0, phi12=0.3),
        preset_params("voros", 1.0),
    )
    worst_pos_generic = 0.0
    least_deviation = math.inf
    for params in non_moyal:
        dev = 0.0
        p1s, p2s, amps = roi_diagonal("position", params, grid)
        for p1, p2, amp in zip(p1s.tolist(), p2s.tolist(), amps.tolist()):
            predicted = cmath.exp(0.5j * params.phi_quadratic(p1, p2))
            worst_pos_generic = max(worst_pos_generic, abs(amp - predicted))
            dev = max(dev, abs(amp - 1.0))
        least_deviation = min(least_deviation, dev)

    voros = preset_params("voros", 1.0)
    worst_coh_voros = 0.0
    for amp in roi_diagonal("coherent", voros, grid)[2].tolist():
        worst_coh_voros = max(worst_coh_voros, abs(amp - 1.0))

    worst_coh_moyal = 0.0
    p1s, p2s, amps = roi_diagonal("coherent", moyal, grid)
    for p1, p2, amp in zip(p1s.tolist(), p2s.tolist(), amps.tolist()):
        p = complex(p1, p2)
        worst_coh_moyal = max(
            worst_coh_moyal, abs(amp - math.exp(-moyal.theta * abs(p) ** 2 / 2.0))
        )

    worst_hope = 0.0
    for _ in range(50):
        params = random_params(rng)
        p = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        worst_hope = max(
            worst_hope, abs(coherent_roi_amplitude(params, p, p) - _hope_amplitude(params, p, p))
        )

    checks = (
        CheckResult("position-moyal-resolves", worst_pos_moyal, 1e-12, worst_pos_moyal <= 1e-12,
                    f"diagonal amplitude = 1 on {grid_points}x{grid_points} grid in [-2,2]^2"),
        CheckResult("position-generic-amplitude", worst_pos_generic, 1e-12,
                    worst_pos_generic <= 1e-12,
                    "diagonal amplitude = exp((i/2) Phi_ij p_i p_j) for 3 non-zero Phi; "
                    f"each deviates from identity by >= {least_deviation:.3e} somewhere "
                    "(non-resolution)"),
        CheckResult("coherent-voros-resolves", worst_coh_voros, 1e-12, worst_coh_voros <= 1e-12,
                    f"diagonal amplitude = 1 on {grid_points}x{grid_points} grid"),
        CheckResult("coherent-moyal-gaussian", worst_coh_moyal, 1e-12, worst_coh_moyal <= 1e-12,
                    "diagonal amplitude = exp(-theta |p|^2 / 2) (non-resolution)"),
        CheckResult("coherent-generic-closedform", worst_hope, 1e-12, worst_hope <= 1e-12,
                    "engine path agrees with direct closed-form substitution"),
    )
    return SuiteResult("roi", seed, checks)


def random_interior_state(rng, dim: int) -> FockOp:
    """Normalised random operator supported on the leading (dim - 3) block."""
    m = np.zeros((dim, dim), dtype=complex)
    k = dim - 3
    m[:k, :k] = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    m /= np.linalg.norm(m)
    return FockOp(dim, m)


def fock_suite(seed: int = 0, trials: int = 20) -> SuiteResult:
    """Truncated Fock-space cross-checks against the closed forms, at
    truncation N = 64."""
    rng = np.random.default_rng(seed)
    dim = 64

    worst_overlap = 0.0
    for k in range(trials):
        theta = (1.0, 2.0)[k % 2]
        z = cmath.rect(rng.uniform(0, 1.0), rng.uniform(0, 2 * math.pi))
        p = cmath.rect(rng.uniform(0, 2.0), rng.uniform(0, 2 * math.pi))
        worst_overlap = max(worst_overlap, overlap_vs_closedform(z, p, theta, dim).abs_error)

    z0, p0, t0 = 0.7 + 0.2j, 1.6 - 1.0j, 2.0
    errs = []
    for n in (16, 32, 64):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            errs.append(overlap_vs_closedform(z0, p0, t0, n).abs_error)
    conv_ok = all(
        errs[i + 1] <= 1.1 * errs[i] + CONVERGENCE_FLOOR for i in range(len(errs) - 1)
    )
    conv_err = max(0.0, *(errs[i + 1] - 1.1 * errs[i] - CONVERGENCE_FLOOR for i in range(2)))

    worst_heis = 0.0
    params = make_params(1.0)
    for theta in (0.5, 1.0, 2.0):
        params = make_params(theta)
        ops = quantum_ops(params, dim)
        psi = random_interior_state(rng, dim)

        def comm(a, b, psi=psi):
            return a(b(psi)) - b(a(psi))

        pairs = (
            (comm(ops.X1, ops.X2), 1j * theta * psi),
            (comm(ops.X1, ops.P1), 1j * psi),
            (comm(ops.X2, ops.P2), 1j * psi),
            (comm(ops.P1, ops.P2), 0.0 * psi),
            (comm(ops.X1, ops.P2), 0.0 * psi),
            (comm(ops.X2, ops.P1), 0.0 * psi),
        )
        for got, want in pairs:
            worst_heis = max(worst_heis, float(np.max(np.abs(got.matrix - want.matrix))))

    worst_coh = 0.0
    for _ in range(trials):
        z = cmath.rect(rng.uniform(0, 1.0), rng.uniform(0, 2 * math.pi))
        zp = cmath.rect(rng.uniform(0, 1.0), rng.uniform(0, 2 * math.pi))
        got = hs_inner(coherent_projector(zp, dim), coherent_projector(z, dim))
        worst_coh = max(worst_coh, abs(got - cmath.exp(-abs(z - zp) ** 2)))

    checks = (
        CheckResult("overlap-closedform", worst_overlap, 1e-6, worst_overlap <= 1e-6,
                    f"{trials} random (z, p), |z| <= 1, |p| <= 2, theta in (1, 2), N = {dim}"),
        CheckResult("overlap-convergence", conv_err, 0.0, conv_ok,
                    "errors at N = 16, 32, 64: " + ", ".join(f"{e:.2e}" for e in errs)),
        CheckResult("heisenberg-interior", worst_heis, 1e-12, worst_heis <= 1e-12,
                    "all six commutators on interior-supported states"),
        CheckResult("coherent-overlap", worst_coh, 1e-10, worst_coh <= 1e-10,
                    "hs_inner of projectors = exp(-|z - z'|^2)"),
    )
    return SuiteResult("fock", seed, checks)


#: suite name -> (the keywords its trial count sets, its runner); each
#: runner names its suite at call time, so a rebound name (a tracer's
#: wrapper) is the one called
_SUITES = {
    "algebra": (("commutator_trials", "law_trials"), lambda **kw: algebra_suite(**kw)),
    "equivalence": (("trials",), lambda **kw: equivalence_suite(**kw)),
    "roi": ((), lambda **kw: roi_suite(**kw)),
    "fock": (("trials",), lambda **kw: fock_suite(**kw)),
}


def run_suites(names=SUITE_NAMES, seed: int = 0, trials: int | None = None) -> list[SuiteResult]:
    """Run the named suites.  trials = None keeps each suite's pinned
    default counts (100 commutator draws, 200 law triples, 100 pairs,
    20 Fock points).  A negative seed or trials < 1 raises
    ValidationError: no suite would check anything at trials = 0."""
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    if trials is not None and trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials!r}")
    out = []
    for name in names:
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
        keys, run = _SUITES[name]
        out.append(run(seed=seed, **({} if trials is None else dict.fromkeys(keys, trials))))
    return out
