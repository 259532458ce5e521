"""The benchmark's workloads: seeded job lists, the public genstar calls
each job makes, and the check of every output against `refs`.

A job is a plain dict drawn from the seed.  `prepare` turns it into engine
inputs outside the timed region, `run` is the timed call and goes through
the same public functions the CLI and the Python API use, and `check`
compares the output with a reference the timed call does not produce.

Every job list is built from fixed cycles of templates.  The seed shuffles
each cycle and draws every parameter within its template's stratum, so two
seeds give different inputs with the same cost mix, which keeps medians
comparable across seeds.  A cycle with several templates holds 15 or 25
jobs: then the nearest-rank p50 and p90 of whole cycles fall in the middle
of a template's samples, not on the edge between two templates, where they
would read the slowest (or fastest) sample of one.

A timed pass is a fixed number of whole cycles for its workload and
seconds (`timed_cycles`), so a seed fixes the jobs a run attempts and the
ones that fail, whatever the speed of the machine.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import genstar
from genstar import exprio, suites

from refs import (
    FOCK_TOL,
    REL_TOL,
    amplitude_mismatch,
    coherent_momentum_overlap,
    kernel_exponents,
    lattice_power,
    lattice_star,
    parse_wavesum_text,
    poly_product,
    roi_exit_code,
    roi_reference,
    star_values,
    sum_values,
    tmap_factors,
)

WORKLOADS = ("verify_suites", "roi_kernels", "big_operands")

#: trials per suite in a verify job (`genstar verify --suite all --trials 10`)
VERIFY_TRIALS = 10

#: a merged term below this magnitude may be dropped by the engine (its AMP_TOL)
DROP_TOL = 1e-13

#: golden scenarios and the exit code each must give
GOLDEN = {
    "scenarios/moyal_position_pass.scn": 0,
    "scenarios/voros_coherent_pass.scn": 0,
    "scenarios/generic_phi_finding.scn": 1,
}

#: the golden `eval` task and its closed form x1 * x2 + (i/2) theta at Moyal theta = 1
GOLDEN_EVAL = {"x1 ** x2": "x1*x2 + 0.5i"}

#: the lattice expression's base: one step along each axis direction
LATTICE_STEPS = ((1, 0), (0, 1), (-1, 0), (0, -1))
LATTICE_BASE = "exp(i*x1)+exp(i*x2)+exp(-i*x1)+exp(-i*x2)"

EXPECTED_CHECKS = {
    "algebra": {"commutator-invariance", "associativity", "antisymmetry", "jacobi", "leibniz"},
    "equivalence": {
        "wave-equivalence", "poly-equivalence", "moyal-coefficients", "voros-coefficients",
    },
    "roi": {
        "position-moyal-resolves", "position-generic-amplitude", "coherent-voros-resolves",
        "coherent-moyal-gaussian", "coherent-generic-closedform",
    },
    "fock": {"overlap-closedform", "overlap-convergence", "heisenberg-interior", "coherent-overlap"},
}


class JobFailed(Exception):
    """The engine ended a job with exit code 2 (an error, not a wrong answer)."""


# -- job lists ----------------------------------------------------------------


def _phi(rng, preset: str, theta: float) -> list:
    """Stored Phi entries as [re, im] pairs (JSON-able)."""
    if preset == "moyal":
        entries = (0j, 0j, 0j)
    elif preset == "voros":
        entries = (-1j * theta, 0j, -1j * theta)
    else:
        entries = tuple(
            complex(rng.uniform(0.0, 0.5) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
            for _ in range(3)
        )
    return [[c.real, c.imag] for c in entries]


def _kernel_job(rng, which, fmt, n, reach=None, presets=("moyal", "voros", "generic")):
    preset = presets[int(rng.integers(len(presets)))]
    # on a wide grid, theta >= 0.75 puts the state amplitude exp(-theta |p|^2 / 4)
    # at the corner below the engine's AMP_TOL for both presets
    theta = float(rng.uniform(0.75, 2.0) if reach else rng.uniform(0.25, 2.0))
    return {
        "kind": "kernel",
        "which": which,
        "fmt": fmt,
        "preset": preset,
        "theta": theta,
        "phi": _phi(rng, preset, theta),
        "reach": float(reach if reach else rng.uniform(1.0, 3.0)),
        "n": n,
    }


#: grid points per axis of the 21 kernel jobs in a cycle (20..80)
KERNEL_GRIDS = tuple(range(20, 81, 3))


def _roi_cycle(rng) -> list[dict]:
    jobs = [
        _kernel_job(rng, ("position", "coherent")[i % 2], ("json", "csv")[(i // 2) % 2], n)
        for i, n in enumerate(KERNEL_GRIDS)
    ]
    jobs += [{"kind": "run", "path": path, "fmt": "json"} for path in GOLDEN]
    # one job in 25 reaches |p| = 10: it records the amplitude-underflow crash
    jobs.append(_kernel_job(rng, "coherent", "json", 31, reach=10.0, presets=("moyal", "voros")))
    return [jobs[i] for i in rng.permutation(len(jobs))]


def _generic(rng) -> dict:
    theta = float(rng.uniform(0.25, 2.0))
    return {"theta": theta, "phi": _phi(rng, "generic", theta)}


#: (kind, sizes) of the 15 jobs in a cycle, about 5 ms to 0.6 s each on a
#: 2-core Xeon; fixed sizes keep the percentiles on the same templates
BIG_TEMPLATES = (
    ("wave_star", {"n": 12, "m": 18}),
    ("fock", {"n": 128}),
    ("dense_poly", {"df": 6, "dg": 7}),
    ("fock", {"n": 320}),
    ("wave_star", {"n": 25, "m": 30}),
    ("dense_poly", {"df": 9, "dg": 9}),
    ("lattice", {"ka": 6, "kb": 7}),
    ("wave_equivalence", {"n": 20, "m": 25}),
    ("fock", {"n": 512}),
    ("wave_star", {"n": 36, "m": 42}),
    ("lattice", {"ka": 8, "kb": 8}),
    ("dense_poly", {"df": 11, "dg": 12}),
    ("wave_star", {"n": 50, "m": 50}),
    ("lattice", {"ka": 10, "kb": 10}),
    ("dense_poly", {"df": 13, "dg": 14}),
)


def _big_job(rng, kind, sizes) -> dict:
    job = {"kind": kind, **sizes}
    if kind == "lattice":
        preset = ("moyal", "voros")[int(rng.integers(2))]
        theta = float(rng.uniform(0.2, 1.0))
        job.update(preset=preset, theta=theta, phi=_phi(rng, preset, theta))
    elif kind == "fock":
        job.update(theta=float(rng.uniform(0.5, 2.0)),
                   z=[float(rng.uniform(0, 1)), float(rng.uniform(0, 2 * math.pi))],
                   p=[float(rng.uniform(0, 2)), float(rng.uniform(0, 2 * math.pi))])
    else:
        job.update(_generic(rng))
    if kind != "lattice":
        job["inputs"] = int(rng.integers(2**62))
    return job


def _big_cycle(rng) -> list[dict]:
    jobs = [_big_job(rng, kind, sizes) for kind, sizes in BIG_TEMPLATES]
    return [jobs[i] for i in rng.permutation(len(jobs))]


def _verify_cycle(rng) -> list[dict]:
    return [{"kind": "verify", "seed": int(rng.integers(2**31))}]


_CYCLES = {"verify_suites": _verify_cycle, "roi_kernels": _roi_cycle, "big_operands": _big_cycle}

#: jobs per template cycle; every phase runs whole cycles, so each run's
#: percentiles fall on the same templates whatever the seed
CYCLE_LENGTH = {"verify_suites": 1, "roi_kernels": 25, "big_operands": len(BIG_TEMPLATES)}

#: job seconds of one cycle on a 2-core Xeon (Python 3.11, 1 BLAS thread);
#: it sizes a timed pass, so a run's passes take about its --seconds there
CYCLE_SECONDS = {"verify_suites": 0.178, "roi_kernels": 3.7, "big_operands": 2.2}

#: a p90 needs ten jobs above it
MIN_JOBS = 100


def timed_cycles(workload: str, seconds: float) -> int:
    """Whole cycles in a timed pass: about `seconds` of job time on the
    reference machine and at least MIN_JOBS jobs."""
    return max(-(-MIN_JOBS // CYCLE_LENGTH[workload]), round(seconds / CYCLE_SECONDS[workload]))


def job_list(workload: str, seed: int, count: int) -> list[dict]:
    """The first `count` jobs of the workload for this seed."""
    jobs: list[dict] = []
    cycle = 0
    while len(jobs) < count:
        jobs += _CYCLES[workload](np.random.default_rng([seed, cycle]))
        cycle += 1
    return jobs[:count]


def warmup_jobs(workload: str) -> list[dict]:
    """One small job of each kind, the same for every seed."""
    rng = np.random.default_rng(12345)
    if workload == "verify_suites":
        return [{"kind": "verify", "seed": 0}]
    if workload == "roi_kernels":
        return [
            _kernel_job(rng, "position", "json", 20),
            _kernel_job(rng, "coherent", "csv", 20),
            {"kind": "run", "path": next(iter(GOLDEN)), "fmt": "json"},
        ]
    smallest = {}
    for kind, sizes in BIG_TEMPLATES:
        smallest.setdefault(kind, _big_job(rng, kind, sizes))
    return list(smallest.values())


# -- inputs ---------------------------------------------------------------------


def _complex(pair) -> complex:
    return complex(pair[0], pair[1])


def _params(job):
    if job.get("preset") in ("moyal", "voros"):
        return genstar.preset_params(job["preset"], job["theta"])
    phi11, phi12, phi22 = (_complex(c) for c in job["phi"])
    return genstar.make_params(job["theta"], phi11=phi11, phi12=phi12, phi22=phi22)


def _random_terms(rng, count):
    amps = rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count)
    wavevectors = rng.uniform(-2.0, 2.0, (count, 2))
    return amps, wavevectors


def _wavesum(amps, wavevectors):
    return genstar.WaveSum(
        tuple(
            genstar.ExpLinearTerm(complex(a), genstar.CARTESIAN, (complex(k[0]), complex(k[1])))
            for a, k in zip(amps, wavevectors)
        ),
        genstar.CARTESIAN,
    )


def _dense_poly(rng, degree):
    terms = {
        (n1, n2): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        for n1 in range(degree + 1)
        for n2 in range(degree + 1 - n1)
    }
    return terms, genstar.Polynomial2(terms, genstar.CARTESIAN)


def _interior_state(rng, dim, margin=3):
    m = np.zeros((dim, dim), dtype=complex)
    k = dim - margin
    m[:k, :k] = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    m /= np.linalg.norm(m)
    return m


def prepare(job: dict) -> dict:
    """Engine inputs for one job, built outside the timed region."""
    kind = job["kind"]
    inputs: dict = {}
    if kind in ("wave_star", "wave_equivalence"):
        rng = np.random.default_rng(job["inputs"])
        inputs["a"], inputs["k"] = _random_terms(rng, job["n"])
        inputs["b"], inputs["q"] = _random_terms(rng, job["m"])
        inputs["f"] = _wavesum(inputs["a"], inputs["k"])
        inputs["g"] = _wavesum(inputs["b"], inputs["q"])
    elif kind == "dense_poly":
        rng = np.random.default_rng(job["inputs"])
        inputs["fterms"], inputs["f"] = _dense_poly(rng, job["df"])
        inputs["gterms"], inputs["g"] = _dense_poly(rng, job["dg"])
    elif kind == "fock":
        rng = np.random.default_rng(job["inputs"])
        inputs["psi"] = genstar.FockOp(job["n"], _interior_state(rng, job["n"]))
    return inputs


# -- timed calls ------------------------------------------------------------------


def _run_verify(job, inputs):
    results = suites.run_suites(suites.SUITE_NAMES, seed=job["seed"], trials=VERIFY_TRIALS)
    if not all(s.passed for s in results):  # `genstar verify` exits 2
        raise JobFailed("verification checks failed: " + ", ".join(
            f"{s.name}.{c.name}" for s in results for c in s.checks if not c.passed))
    return results


def _finish_report(report, fmt):
    payload = exprio.emit_report(report, fmt)
    code = exprio.exit_code(report)
    if code == 2:
        raise JobFailed(f"exit code 2: {[t.summary for t in report.tasks if t.verdict == 'error']}")
    return payload, code


def _run_kernel(job, inputs):
    # the in-process form of `genstar kernel position|coherent --grid=... --format ...`
    kind = "position-roi" if job["which"] == "position" else "coherent-roi"
    reach = job["reach"]
    task = exprio.prepare_task(kind, {"grid": f"{-reach!r}:{reach!r}:{job['n']}",
                                      "tol": "1e-12"}, line=0)
    scenario = exprio.Scenario(
        params=_params(job), preset=job["preset"] if job["preset"] != "generic" else None,
        seed=0, trials=None, tasks=(task,), name=f"<kernel {job['which']}>",
    )
    return _finish_report(exprio.run_scenario(scenario), job["fmt"])


def _run_golden(job, inputs):
    # `genstar run <scenario> --format json`
    return _finish_report(exprio.run_scenario(exprio.load_scenario(job["path"])), job["fmt"])


def _run_wave_star(job, inputs):
    return genstar.star_wave(inputs["f"], inputs["g"], _params(job))


def _run_wave_equivalence(job, inputs):
    return genstar.equivalence_residual(inputs["f"], inputs["g"], _params(job))


def _run_lattice(job, inputs):
    # `genstar eval "(...)^ka ** (...)^kb"`
    text = f"({LATTICE_BASE})^{job['ka']} ** ({LATTICE_BASE})^{job['kb']}"
    value = exprio.evaluate_expression(exprio.parse_expression(text), _params(job))
    return exprio.format_value(value)


def _run_dense_poly(job, inputs):
    params = _params(job)
    f, g = inputs["f"], inputs["g"]
    lhs = genstar.tmap_poly(genstar.star_poly(f, g, params.moyal()), params)
    rhs = genstar.star_poly(genstar.tmap_poly(f, params), genstar.tmap_poly(g, params), params)
    commutator = genstar.star_commutator(genstar.Polynomial2.variable("x1"), g, params)
    return lhs, rhs, commutator


def _run_fock(job, inputs):
    z = complex(np.exp(1j * job["z"][1]) * job["z"][0])
    p = complex(np.exp(1j * job["p"][1]) * job["p"][0])
    comparison = genstar.overlap_vs_closedform(z, p, job["theta"], job["n"])
    ops = genstar.quantum_ops(genstar.make_params(job["theta"]), job["n"])
    psi = inputs["psi"]
    commutator = ops.X1(ops.X2(psi)) - ops.X2(ops.X1(psi))
    return comparison, commutator


_RUN = {
    "verify": _run_verify,
    "kernel": _run_kernel,
    "run": _run_golden,
    "wave_star": _run_wave_star,
    "wave_equivalence": _run_wave_equivalence,
    "lattice": _run_lattice,
    "dense_poly": _run_dense_poly,
    "fock": _run_fock,
}


def run(job: dict, inputs: dict):
    """The timed call.  Raises when the engine raises or exits with code 2."""
    return _RUN[job["kind"]](job, inputs)


# -- checks against references ------------------------------------------------------


def _check_verify(job, inputs, results):
    got = {s.name: {c.name for c in s.checks} for s in results}
    if got != EXPECTED_CHECKS:
        return f"suite check names {got} differ from {EXPECTED_CHECKS}"
    return None


def _check_roi_points(kind, theta, phi, points, grid):
    p1 = np.array([pt[0] for pt in points], dtype=float)
    p2 = np.array([pt[1] for pt in points], dtype=float)
    amp = np.array([complex(pt[2], pt[3]) for pt in points])
    if grid is not None:
        values = np.linspace(*grid)
        want1, want2 = np.repeat(values, len(values)), np.tile(values, len(values))
        if p1.shape != want1.shape or not (np.array_equal(p1, want1) and np.array_equal(p2, want2)):
            return f"{kind} grid points differ from the requested {grid}"
    err = amplitude_mismatch(amp, roi_reference(kind, theta, phi, p1, p2))
    if not err <= REL_TOL:
        return f"{kind} amplitude differs from its closed form by {err:.3e} (relative)"
    return None


def _report_tasks(payload, fmt):
    """(kind, verdict, points, task) per task, read back from the emitted
    bytes; a point is (p1, p2, amp_re, amp_im) and task is the JSON task
    (None for csv)."""
    if fmt == "json":
        return [
            (t["kind"], t["verdict"],
             [(p["p1"], p["p2"], p["amp_re"], p["amp_im"]) for p in t["outputs"].get("points", [])],
             t)
            for t in json.loads(payload)["tasks"]
        ]
    tasks: dict[int, tuple] = {}
    for row in list(csv.reader(io.StringIO(payload.decode())))[1:]:
        entry = tasks.setdefault(int(row[0]), (row[1], row[11], [], None))
        if row[2]:
            entry[2].append(tuple(float(row[c]) for c in (2, 3, 6, 7)))
    return [tasks[i] for i in sorted(tasks)]


def _check_kernel(job, inputs, output):
    payload, code = output
    kind = "position-roi" if job["which"] == "position" else "coherent-roi"
    phi = tuple(_complex(c) for c in job["phi"])
    want = roi_exit_code(kind, job["theta"], phi)
    if code != want:
        return f"{kind} exit code {code}, expected {want}"
    tasks = _report_tasks(payload, job["fmt"])
    if len(tasks) != 1 or tasks[0][0] != kind:
        return f"report holds tasks {[t[0] for t in tasks]}, expected [{kind}]"
    if tasks[0][1] != ("pass" if want == 0 else "finding"):
        return f"{kind} verdict {tasks[0][1]!r} does not match exit code {want}"
    return _check_roi_points(kind, job["theta"], phi, tasks[0][2],
                             (-job["reach"], job["reach"], job["n"]))


def _check_golden(job, inputs, output):
    payload, code = output
    if code != GOLDEN[job["path"]]:
        return f"{job['path']} exit code {code}, expected {GOLDEN[job['path']]}"
    params = json.loads(payload)["scenario"]["params"]
    theta = params["theta"]
    phi = tuple(_complex(params[k]) for k in ("phi11", "phi12", "phi22"))
    for kind, verdict, points, task in _report_tasks(payload, job["fmt"]):
        outputs = task["outputs"]
        if kind in ("position-roi", "coherent-roi"):
            want = "pass" if roi_exit_code(kind, theta, phi) == 0 else "finding"
            if verdict != want:
                return f"{job['path']}: {kind} verdict {verdict!r}, expected {want!r}"
            problem = _check_roi_points(kind, theta, phi, points, None)
            if problem:
                return f"{job['path']}: {problem}"
        elif kind == "eval":
            want = GOLDEN_EVAL.get(task["inputs"]["expr"])
            if verdict != "pass" or outputs["result"] != want:
                return f"{job['path']}: eval gave {outputs['result']!r}, expected {want!r}"
        elif kind == "equivalence":
            if verdict != "pass" or not outputs["residual"] <= outputs["tolerance"]:
                return f"{job['path']}: equivalence residual {outputs['residual']!r}"
        else:
            return f"{job['path']}: unexpected task kind {kind!r}"
    return None


def _check_wave_star(job, inputs, result):
    phi = tuple(_complex(c) for c in job["phi"])
    ref, mass = star_values(job["theta"], phi, inputs["a"], inputs["k"], inputs["b"], inputs["q"])
    got = sum_values([t.amplitude for t in result.terms], [t.wavevector for t in result.terms])
    err = float(np.max(np.abs(got - ref)))
    if not err <= REL_TOL * max(1.0, mass):
        return f"star_wave values differ from the outer product by {err:.3e} (mass {mass:.3e})"
    return None


def _check_wave_equivalence(job, inputs, residual):
    phi = tuple(_complex(c) for c in job["phi"])
    # amplitudes of T(f *_M g): a_i b_j exp(K^Moyal_ij) exp(-(i/4) Phi(k_i + q_j))
    moyal = np.exp(kernel_exponents(job["theta"], (0j, 0j, 0j), inputs["k"], inputs["q"]))
    total = inputs["k"][:, None, :] + inputs["q"][None, :, :]
    lhs = inputs["a"][:, None] * inputs["b"][None, :] * moyal * tmap_factors(phi, total)
    scale = max(1.0, float(np.max(np.abs(lhs))))
    if not residual <= REL_TOL * scale:
        return f"equivalence residual {residual:.3e} exceeds {REL_TOL:.0e} x scale {scale:.3e}"
    return None


def _check_lattice(job, inputs, text):
    # term by term: the lattice wavevectors are exact integers, so grouping
    # the reference by output wavevector does not depend on merge order
    phi = tuple(_complex(c) for c in job["phi"])
    a, k = lattice_power(LATTICE_STEPS, job["ka"])
    b, q = lattice_power(LATTICE_STEPS, job["kb"])
    want = lattice_star(job["theta"], phi, a, k, b, q)
    amps, wavevectors = parse_wavesum_text(text)
    keys = np.rint(wavevectors.real).astype(int)
    if not np.array_equal(keys, wavevectors) or len({tuple(key) for key in keys}) != len(keys):
        return "lattice eval printed non-integer or repeated wavevectors"
    got = {(int(m1), int(m2)): amp for (m1, m2), amp in zip(keys, amps)}
    for key in got.keys() | want.keys():
        ref, mass = want.get(key, (0j, 0.0))
        if not abs(got.get(key, 0j) - ref) <= REL_TOL * mass + DROP_TOL:
            return f"lattice eval term {key}: {got.get(key, 0j)!r}, expected {ref!r} (mass {mass:.3e})"
    return None


def _check_dense_poly(job, inputs, output):
    lhs, rhs, commutator = (dict(p.terms) for p in output)
    scale = max([1.0] + [abs(c) for c in lhs.values()] + [abs(c) for c in rhs.values()])
    residual = max((abs(lhs.get(key, 0j) - rhs.get(key, 0j)) for key in lhs.keys() | rhs.keys()),
                   default=0.0)
    if not residual <= REL_TOL * scale:
        return f"T(f *_M g) - T(f) * T(g) = {residual:.3e} exceeds {REL_TOL:.0e} x scale {scale:.3e}"
    # the two top degrees of a star product and of T are the ordinary product
    product = poly_product(inputs["fterms"], inputs["gterms"])
    top = job["df"] + job["dg"] - 1
    pscale = max(abs(c) for c in product.values())
    for key in product.keys() | lhs.keys():
        if sum(key) >= top and not abs(lhs.get(key, 0j) - product.get(key, 0j)) <= REL_TOL * pscale:
            return f"leading coefficient {key} of T(f *_M g) differs from f * g"
    # [x1, g] = i theta dg/dx2 for every Phi
    want = {(n1, n2 - 1): 1j * job["theta"] * n2 * c
            for (n1, n2), c in inputs["gterms"].items() if n2}
    cscale = max(abs(c) for c in want.values())
    for key in want.keys() | commutator.keys():
        if not abs(commutator.get(key, 0j) - want.get(key, 0j)) <= REL_TOL * cscale:
            return f"[x1, g] coefficient {key} differs from i theta dg/dx2"
    return None


def _check_fock(job, inputs, output):
    comparison, commutator = output
    z = complex(np.exp(1j * job["z"][1]) * job["z"][0])
    p = complex(np.exp(1j * job["p"][1]) * job["p"][0])
    closed = coherent_momentum_overlap(z, p, job["theta"])
    if not abs(comparison.numeric - closed) <= FOCK_TOL:
        return f"Fock overlap off the closed form by {abs(comparison.numeric - closed):.3e}"
    if not abs(comparison.closed - closed) <= REL_TOL:
        return f"engine closed form off by {abs(comparison.closed - closed):.3e}"
    psi = inputs["psi"].matrix
    err = float(np.max(np.abs(commutator.matrix - 1j * job["theta"] * psi)))
    scale = job["theta"] * job["n"] * float(np.max(np.abs(psi)))
    if not err <= REL_TOL * max(1.0, scale):
        return f"[X1, X2] psi differs from i theta psi by {err:.3e}"
    return None


_CHECK = {
    "verify": _check_verify,
    "kernel": _check_kernel,
    "run": _check_golden,
    "wave_star": _check_wave_star,
    "wave_equivalence": _check_wave_equivalence,
    "lattice": _check_lattice,
    "dense_poly": _check_dense_poly,
    "fock": _check_fock,
}


def check(job: dict, inputs: dict, output) -> str | None:
    """None when the output agrees with its reference, else what differs."""
    try:
        return _CHECK[job["kind"]](job, inputs, output)
    except Exception as exc:  # a malformed output is a wrong answer, not a crash
        return f"output could not be checked: {type(exc).__name__}: {exc}"
