"""Acceptance suite: every exit criterion at its stated tolerance.

One test per criterion; each prints a PASS/FAIL line (capture is
temporarily disabled so the lines always show in the pytest output).
"""

import cmath
import math
import warnings
from pathlib import Path

import numpy as np

from genstar import (
    COMPLEX,
    Polynomial2,
    coherent_projector,
    coherent_roi_amplitude,
    equivalence_residual,
    hs_inner,
    make_params,
    overlap_vs_closedform,
    position_roi_amplitude,
    preset_params,
    quantum_ops,
    star_commutator,
    star_kernel,
    star_poly,
    tmap_poly,
)
from genstar.exprio import emit_report, load_scenario, parse_expression, pretty, run_scenario
from genstar.exprio.cli import main
from genstar.suites import (
    random_interior_state,
    random_params,
    random_polynomial,
    random_wavesum,
)
from test_exprio import CORPUS

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _report(capsys, criterion: int, label: str, max_error: float, tolerance: float, ok: bool):
    status = "PASS" if ok else "FAIL"
    line = (
        f"ACCEPTANCE {criterion}: {status} {label} "
        f"(max_error={max_error:.3e}, tol={tolerance:.1e})"
    )
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_1_deformed_commutator_invariance(capsys):
    rng = np.random.default_rng(0)
    x1 = Polynomial2.variable("x1")
    x2 = Polynomial2.variable("x2")
    worst = 0.0
    for theta in (0.1, 1.0, 2.0):
        for _ in range(100):
            params = random_params(rng, theta=theta)
            got = star_commutator(x1, x2, params)
            worst = max(worst, got.max_diff(Polynomial2.constant(1j * theta)))
    _report(capsys, 1, "star_commutator(x1, x2) = i*theta for random Phi", worst, 1e-12, worst <= 1e-12)


def test_criterion_2_star_algebra_laws(capsys):
    rng = np.random.default_rng(1)
    worst = 0.0
    zero = Polynomial2.zero()
    for _ in range(200):
        params = random_params(rng)
        f = random_polynomial(rng)
        g = random_polynomial(rng)
        h = random_polynomial(rng)
        fg = star_poly(f, g, params)
        gh = star_poly(g, h, params)
        worst = max(worst, star_poly(fg, h, params).max_diff(star_poly(f, gh, params)))
        worst = max(
            worst,
            (star_commutator(f, g, params) + star_commutator(g, f, params)).max_diff(zero),
        )
        jac = (
            star_commutator(f, star_commutator(g, h, params), params)
            + star_commutator(g, star_commutator(h, f, params), params)
            + star_commutator(h, star_commutator(f, g, params), params)
        )
        worst = max(worst, jac.max_diff(zero))
        leib = star_commutator(f, gh, params)
        rhs = star_poly(star_commutator(f, g, params), h, params) + star_poly(
            g, star_commutator(f, h, params), params
        )
        worst = max(worst, leib.max_diff(rhs))
    _report(
        capsys,
        2,
        "associativity/antisymmetry/Jacobi/Leibniz on 200 random triples",
        worst,
        1e-10,
        worst <= 1e-10,
    )


def test_criterion_3_equivalence_theorem(capsys):
    rng = np.random.default_rng(2)
    worst_wave = 0.0
    for _ in range(100):
        params = random_params(rng)
        worst_wave = max(
            worst_wave, equivalence_residual(random_wavesum(rng), random_wavesum(rng), params)
        )
    worst_poly = 0.0
    for _ in range(100):
        params = random_params(rng)
        f = random_polynomial(rng)
        g = random_polynomial(rng)
        lhs = tmap_poly(star_poly(f, g, params.moyal()), params)
        rhs = star_poly(tmap_poly(f, params), tmap_poly(g, params), params)
        worst_poly = max(worst_poly, lhs.max_diff(rhs))
    ok = worst_wave <= 1e-12 and worst_poly <= 1e-10
    _report(
        capsys,
        3,
        f"T(f *_M g) = T(f) * T(g); waves {worst_wave:.2e} <= 1e-12, polys {worst_poly:.2e} <= 1e-10",
        max(worst_wave, worst_poly),
        1e-10,
        ok,
    )


def test_criterion_4_moyal_voros_coefficient_reductions(capsys):
    worst = 0.0
    for theta in (0.1, 0.5, 1.0, 2.0):
        cm = star_kernel(COMPLEX, preset_params("moyal", theta))
        cv = star_kernel(COMPLEX, preset_params("voros", theta))
        worst = max(worst, max(abs(a - b) for a, b in zip(cm, (0j, 0.5, -0.5, 0j))))
        worst = max(worst, max(abs(a - b) for a, b in zip(cv, (0j, 1.0, 0j, 0j))))
    _report(capsys, 4, "z-frame kernel presets (0,1/2,-1/2,0) and (0,1,0,0)", worst, 1e-15, worst <= 1e-15)


def test_criterion_5_position_state_identity_resolution(capsys):
    grid = np.linspace(-2.0, 2.0, 20)
    moyal = preset_params("moyal", 1.0)
    worst_moyal = max(
        abs(position_roi_amplitude(moyal, (p1, p2), (p1, p2)) - 1.0)
        for p1 in grid
        for p2 in grid
    )
    worst_generic = 0.0
    non_resolution_seen = True
    for params in (
        make_params(1.0, phi11=0.2, phi22=0.2),
        make_params(1.0, phi12=0.3),
        preset_params("voros", 1.0),
    ):
        deviation = 0.0
        for p1 in grid:
            for p2 in grid:
                amp = position_roi_amplitude(params, (p1, p2), (p1, p2))
                want = cmath.exp(0.5j * params.phi_quadratic(p1, p2))
                worst_generic = max(worst_generic, abs(amp - want))
                deviation = max(deviation, abs(amp - 1.0))
        non_resolution_seen = non_resolution_seen and deviation > 0.1
    worst = max(worst_moyal, worst_generic)
    ok = worst <= 1e-12 and non_resolution_seen
    _report(
        capsys,
        5,
        f"position kernel: identity for Phi=0 ({worst_moyal:.2e}), "
        f"exp((i/2)Phi pp) for 3 non-Moyal Phi ({worst_generic:.2e}, each visibly != 1)",
        worst,
        1e-12,
        ok,
    )


def test_criterion_6_coherent_state_identity_resolution(capsys):
    grid = np.linspace(-2.0, 2.0, 20)
    voros = preset_params("voros", 1.0)
    worst_voros = max(
        abs(coherent_roi_amplitude(voros, complex(a, b), complex(a, b)) - 1.0)
        for a in grid
        for b in grid
    )
    moyal = preset_params("moyal", 1.0)
    worst_moyal = max(
        abs(
            coherent_roi_amplitude(moyal, complex(a, b), complex(a, b))
            - math.exp(-abs(complex(a, b)) ** 2 / 2.0)
        )
        for a in grid
        for b in grid
    )

    def direct(params, p):
        t = params.theta
        c1 = params.phi11 - params.phi22 + 2j * params.phi12
        c2 = params.phi11 + params.phi22 - 2j * t
        c3 = params.phi11 + params.phi22 + 2j * t
        c4 = params.phi11 - params.phi22 - 2j * params.phi12
        pb = p.conjugate()
        return cmath.exp(-t * abs(p) ** 2 / 2.0) * cmath.exp(
            (1j / 8) * (c1 * pb * pb + c2 * pb * p + c3 * p * pb + c4 * p * p)
        )

    rng = np.random.default_rng(3)
    worst_generic = 0.0
    for _ in range(50):
        params = random_params(rng)
        p = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        worst_generic = max(
            worst_generic, abs(coherent_roi_amplitude(params, p, p) - direct(params, p))
        )
    moyal_deviation = max(
        abs(coherent_roi_amplitude(moyal, complex(a, b), complex(a, b)) - 1.0)
        for a in grid
        for b in grid
    )
    worst = max(worst_voros, worst_moyal, worst_generic)
    ok = worst <= 1e-12 and moyal_deviation > 0.1
    _report(
        capsys,
        6,
        f"coherent kernel: Voros identity ({worst_voros:.2e}), Moyal gaussian "
        f"({worst_moyal:.2e}, visibly != 1), generic matches closed form ({worst_generic:.2e})",
        worst,
        1e-12,
        ok,
    )


def test_criterion_7_fock_oracle_agreement(capsys):
    rng = np.random.default_rng(4)
    worst = 0.0
    for k in range(20):
        theta = (1.0, 2.0)[k % 2]
        z = cmath.rect(rng.uniform(0, 1.0), rng.uniform(0, 2 * math.pi))
        p = cmath.rect(rng.uniform(0, 2.0), rng.uniform(0, 2 * math.pi))
        worst = max(worst, overlap_vs_closedform(z, p, theta, 64).abs_error)
    errs = []
    for dim in (16, 32, 64):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            errs.append(overlap_vs_closedform(0.7 + 0.2j, 1.6 - 1.0j, 2.0, dim).abs_error)
    shrinking = errs[1] <= 1.1 * errs[0] + 1e-13 and errs[2] <= 1.1 * errs[1] + 1e-13
    ok = worst < 1e-6 and shrinking
    _report(
        capsys,
        7,
        f"Fock overlap oracle at N=64 ({worst:.2e}); errors over N=16,32,64: "
        + ", ".join(f"{e:.1e}" for e in errs),
        worst,
        1e-6,
        ok,
    )


def test_criterion_8_heisenberg_algebra_and_coherent_overlap(capsys):
    rng = np.random.default_rng(5)
    dim = 64
    worst_heis = 0.0
    for theta in (0.5, 1.0, 2.0):
        ops = quantum_ops(make_params(theta), dim)
        psi = random_interior_state(rng, dim)

        def comm(a, b, psi=psi):
            return (a(b(psi)) - b(a(psi))).matrix

        worst_heis = max(
            worst_heis,
            float(np.max(np.abs(comm(ops.X1, ops.X2) - 1j * theta * psi.matrix))),
            float(np.max(np.abs(comm(ops.X1, ops.P1) - 1j * psi.matrix))),
            float(np.max(np.abs(comm(ops.X2, ops.P2) - 1j * psi.matrix))),
            float(np.max(np.abs(comm(ops.P1, ops.P2)))),
            float(np.max(np.abs(comm(ops.X1, ops.P2)))),
            float(np.max(np.abs(comm(ops.X2, ops.P1)))),
        )
    worst_coh = 0.0
    for _ in range(20):
        z = cmath.rect(rng.uniform(0, 1.0), rng.uniform(0, 2 * math.pi))
        zp = cmath.rect(rng.uniform(0, 1.0), rng.uniform(0, 2 * math.pi))
        got = hs_inner(coherent_projector(zp, dim), coherent_projector(z, dim))
        worst_coh = max(worst_coh, abs(got - cmath.exp(-abs(z - zp) ** 2)))
    ok = worst_heis <= 1e-12 and worst_coh <= 1e-10
    _report(
        capsys,
        8,
        f"Heisenberg commutators on interior states ({worst_heis:.2e} <= 1e-12), "
        f"coherent overlap ({worst_coh:.2e} <= 1e-10)",
        max(worst_heis, worst_coh),
        1e-10,
        ok,
    )


def test_criterion_9_parser_and_cli_contract(capsys):
    assert len(CORPUS) >= 30
    round_trip_ok = True
    for text in CORPUS:
        expr = parse_expression(text)
        round_trip_ok = round_trip_ok and parse_expression(pretty(expr.root)).root == expr.root

    path = SCENARIO_DIR / "voros_coherent_pass.scn"
    a = emit_report(run_scenario(load_scenario(path)), "json")
    b = emit_report(run_scenario(load_scenario(path)), "json")
    deterministic = a == b

    codes = (
        main(["run", str(SCENARIO_DIR / "moyal_position_pass.scn")]),
        main(["run", str(SCENARIO_DIR / "voros_coherent_pass.scn")]),
        main(["run", str(SCENARIO_DIR / "generic_phi_finding.scn")]),
    )
    capsys.readouterr()
    codes_ok = codes == (0, 0, 1)

    ok = round_trip_ok and deterministic and codes_ok
    _report(
        capsys,
        9,
        f"parser round-trip on {len(CORPUS)} expressions, byte-identical JSON, "
        f"golden exit codes {codes}",
        0.0 if ok else 1.0,
        0.0,
        ok,
    )
