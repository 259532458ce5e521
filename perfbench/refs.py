"""Reference values the benchmark checks the engine's outputs against.

Everything here is computed with numpy or cmath from the job inputs alone;
nothing calls into genstar, so a wrong engine result cannot agree with its
own reference by sharing a code path.
"""

from __future__ import annotations

import cmath
import math
import re

import numpy as np

#: relative tolerance of every closed-form comparison, scaled by max(1, |ref|)
#: or by the L1 mass of the summed terms; engine errors are ~1e-13 at worst
REL_TOL = 1e-9

#: the Fock overlap oracle's own acceptance tolerance (absolute)
FOCK_TOL = 1e-6

#: sample points (x1, x2) at which exponential sums are compared; a value
#: comparison does not depend on the order in which the engine merged terms
SAMPLE_POINTS = np.array([(0.0, 0.0), (0.37, -1.21), (2.3, 0.71), (-1.7, -0.43)])


# -- resolution-of-identity amplitudes --------------------------------------


def position_roi(phi, p1, p2):
    """exp((i/2) Phi_ij p_i p_j) on the delta support."""
    phi11, phi12, phi22 = phi
    return np.exp(0.5j * (phi11 * p1 * p1 + 2.0 * phi12 * p1 * p2 + phi22 * p2 * p2))


def coherent_roi(theta, phi, p1, p2):
    """Coherent-state diagonal amplitude by direct substitution of the
    z-frame kernel (exp(-theta |p|^2 / 2) at Phi = 0, 1 for Voros)."""
    phi11, phi12, phi22 = phi
    p = p1 + 1j * p2
    pb = np.conj(p)
    c1 = phi11 - phi22 + 2j * phi12
    c2 = phi11 + phi22 - 2j * theta
    c3 = phi11 + phi22 + 2j * theta
    c4 = phi11 - phi22 - 2j * phi12
    mod2 = (p * pb).real
    return np.exp(-theta * mod2 / 2.0) * np.exp(
        (1j / 8.0) * (c1 * pb * pb + (c2 + c3) * mod2 + c4 * p * p)
    )


def roi_reference(which, theta, phi, p1, p2):
    """Closed-form diagonal amplitude of a position-roi or coherent-roi task.
    The two resolving members give exactly 1."""
    moyal = all(c == 0 for c in phi)
    voros = phi[1] == 0 and phi[0] == phi[2] == -1j * theta
    if which == "position-roi":
        return np.ones_like(p1, dtype=complex) if moyal else position_roi(phi, p1, p2)
    if voros:
        return np.ones_like(p1, dtype=complex)
    if moyal:
        return np.exp(-theta * (p1 * p1 + p2 * p2) / 2.0).astype(complex)
    return coherent_roi(theta, phi, p1, p2)


def roi_exit_code(which, theta, phi) -> int:
    """Moyal position and Voros coherent resolve the identity (exit 0);
    every other member is a finding (exit 1)."""
    moyal = all(c == 0 for c in phi)
    voros = phi[1] == 0 and phi[0] == phi[2] == -1j * theta
    resolves = moyal if which == "position-roi" else voros
    return 0 if resolves else 1


def amplitude_mismatch(got, ref) -> float:
    """Largest |got - ref| / max(1, |ref|)."""
    got = np.asarray(got, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    if got.size == 0:
        return 0.0
    return float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))))


# -- plane-wave star products -----------------------------------------------


def kernel_exponents(theta, phi, k, q):
    """K_ij = -(i/2)(Phi + Theta)_ab k_ia q_jb for wavevector rows k, q."""
    phi11, phi12, phi22 = phi
    m = np.array([[phi11, phi12 + theta], [phi12 - theta, phi22]], dtype=complex)
    return -0.5j * (np.asarray(k, dtype=complex) @ m @ np.asarray(q, dtype=complex).T)


def star_values(theta, phi, a, k, b, q, points=SAMPLE_POINTS):
    """Values of (sum_i a_i e^{i k_i.x}) * (sum_j b_j e^{i q_j.x}) at the
    sample points, from the outer product a_i b_j exp(K_ij), plus the L1
    mass sum |a_i b_j exp(K_ij)| that scales the comparison tolerance."""
    e = np.exp(kernel_exponents(theta, phi, k, q))
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    u = a[None, :] * np.exp(1j * (points @ np.asarray(k, dtype=complex).T))
    v = b[None, :] * np.exp(1j * (points @ np.asarray(q, dtype=complex).T))
    values = np.einsum("si,ij,sj->s", u, e, v)
    mass = float(np.abs(a) @ np.abs(e) @ np.abs(b))
    return values, mass


def sum_values(amps, wavevectors, points=SAMPLE_POINTS):
    """Values of sum_t A_t e^{i k_t.x} at the sample points."""
    amps = np.asarray(amps, dtype=complex)
    if amps.size == 0:
        return np.zeros(len(points), dtype=complex)
    k = np.asarray(wavevectors, dtype=complex).reshape(-1, 2)
    return np.exp(1j * (points @ k.T)) @ amps


def tmap_factors(phi, k):
    """exp(-(i/4) Phi_ij k_i k_j) for each wavevector row."""
    phi11, phi12, phi22 = phi
    k = np.asarray(k, dtype=complex)
    k1, k2 = k[..., 0], k[..., 1]
    return np.exp(-0.25j * (phi11 * k1 * k1 + 2.0 * phi12 * k1 * k2 + phi22 * k2 * k2))


def lattice_power(steps, power):
    """Terms of (sum_s e^{i d_s.x})^power for integer steps d_s, expanded
    exactly by repeated convolution on the integer lattice.  Returns
    (coefficients, wavevectors)."""
    steps = np.asarray(steps, dtype=np.int64)
    reach = int(np.abs(steps).max()) * power
    size = 2 * reach + 1
    grid = np.zeros((size, size), dtype=np.int64)
    grid[reach, reach] = 1
    for _ in range(power):
        nxt = np.zeros_like(grid)
        for d1, d2 in steps:
            nxt += np.roll(np.roll(grid, int(d1), axis=0), int(d2), axis=1)
        grid = nxt
    i1, i2 = np.nonzero(grid)
    coeffs = grid[i1, i2].astype(complex)
    return coeffs, np.stack([i1 - reach, i2 - reach], axis=1).astype(float)


def lattice_star(theta, phi, a, k, b, q):
    """Merged terms of the star product of two integer-lattice sums: the
    outer product a_i b_j exp(K_ij) summed per output wavevector k_i + q_j.
    Returns {(m1, m2): (amplitude, sum of |a_i b_j exp(K_ij)|)}."""
    terms = a[:, None] * b[None, :] * np.exp(kernel_exponents(theta, phi, k, q))
    out1 = np.rint(k[:, None, 0] + q[None, :, 0]).astype(np.int64).ravel()
    out2 = np.rint(k[:, None, 1] + q[None, :, 1]).astype(np.int64).ravel()
    shift1, shift2 = out1.min(), out2.min()
    shape = (out1.max() - shift1 + 1, out2.max() - shift2 + 1)
    amps = np.zeros(shape, dtype=complex)
    mass = np.zeros(shape)
    np.add.at(amps, (out1 - shift1, out2 - shift2), terms.ravel())
    np.add.at(mass, (out1 - shift1, out2 - shift2), np.abs(terms).ravel())
    return {(int(i + shift1), int(j + shift2)): (complex(amps[i, j]), float(mass[i, j]))
            for i, j in zip(*np.nonzero(mass))}


# -- exponential-sum text (the grammar `genstar eval` prints) ---------------

_FLOAT = r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?"
_PAREN_LITERAL = re.compile(rf"^\((-?{_FLOAT})([+-])({_FLOAT})?i\)$")


def parse_literal(text: str) -> complex:
    """Complex literal as printed by the engine: 2, -1.5, 2i, i, (1-2.5i)."""
    m = _PAREN_LITERAL.match(text)
    if m:
        im = float(m.group(3)) if m.group(3) else 1.0
        return complex(float(m.group(1)), im if m.group(2) == "+" else -im)
    sign = -1.0 if text.startswith("-") else 1.0
    body = text.lstrip("-")
    if body.endswith("i"):
        return complex(0.0, sign * (float(body[:-1]) if body[:-1] else 1.0))
    return complex(sign * float(body), 0.0)


def split_signed(text: str) -> list[tuple[float, str]]:
    """Split 'a + b - c' at parenthesis depth 0 into (sign, part) pairs."""
    parts, depth, start, sign = [], 0, 0, 1.0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith((" + ", " - "), i):
            parts.append((sign, text[start:i]))
            sign = 1.0 if text[i + 1] == "+" else -1.0
            i += 3
            start = i
            continue
        i += 1
    parts.append((sign, text[start:]))
    return parts


def parse_wavesum_text(text: str):
    """Amplitudes and wavevectors of a cartesian exponential sum printed as
    A*exp(c1*x1 + c2*x2) terms, where c = i k."""
    if text == "0":
        return np.zeros(0, dtype=complex), np.zeros((0, 2))
    amps, wavevectors = [], []
    for sign, part in split_signed(text):
        head, sep, body = part.partition("exp(")
        if not sep:
            amps.append(sign * parse_literal(part))
            wavevectors.append((0j, 0j))
            continue
        head = head.rstrip("*")
        amp = 1.0 if head == "" else (-1.0 if head == "-" else parse_literal(head))
        k = [0j, 0j]
        for s, factor in split_signed(body[:-1]):
            coeff, _, name = factor.rpartition("*")
            if not coeff:
                coeff, name = ("-1", name[1:]) if name.startswith("-") else ("1", name)
            k[("x1", "x2").index(name)] = -1j * s * parse_literal(coeff)
        amps.append(sign * amp)
        wavevectors.append(tuple(k))
    return np.array(amps, dtype=complex), np.array(wavevectors, dtype=complex)


# -- polynomials and Fock space -------------------------------------------


def poly_product(fterms: dict, gterms: dict) -> dict:
    """Ordinary (commutative) product of two sparse polynomials."""
    fk = np.array(list(fterms), dtype=np.int64).reshape(-1, 2)
    gk = np.array(list(gterms), dtype=np.int64).reshape(-1, 2)
    fc = np.array(list(fterms.values()), dtype=complex)
    gc = np.array(list(gterms.values()), dtype=complex)
    size = int(fk.max(initial=0) + gk.max(initial=0)) + 1
    out = np.zeros((size, size), dtype=complex)
    np.add.at(
        out,
        ((fk[:, None, 0] + gk[None, :, 0]).ravel(), (fk[:, None, 1] + gk[None, :, 1]).ravel()),
        (fc[:, None] * gc[None, :]).ravel(),
    )
    return {(int(i), int(j)): complex(out[i, j]) for i, j in zip(*np.nonzero(out))}


def coherent_momentum_overlap(z: complex, p: complex, theta: float) -> complex:
    """sqrt(theta/2 pi) exp(-theta|p|^2/4) exp(i sqrt(theta/2)(p zbar + pbar z))."""
    s = math.sqrt(theta / 2.0)
    return (
        math.sqrt(theta / (2.0 * math.pi))
        * cmath.exp(-theta * abs(p) ** 2 / 4.0)
        * cmath.exp(1j * s * (p * z.conjugate() + p.conjugate() * z))
    )
