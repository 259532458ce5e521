"""Serialize engine values back into the expression grammar."""

from __future__ import annotations

from ..deformation import _FRAME_VARIABLES
from ..polystar import Polynomial2
from ..wavestar import WaveSum, _eigenvalues
from .evaluate import Value
from .parser import format_complex


def _signed_join(parts: list[str]) -> str:
    out = parts[0]
    for part in parts[1:]:
        if part.startswith("-"):
            out += f" - {part[1:]}"
        else:
            out += f" + {part}"
    return out


def _monomial(n1: int, n2: int, names: tuple[str, str]) -> str:
    parts = []
    for n, name in ((n1, names[0]), (n2, names[1])):
        if n == 1:
            parts.append(name)
        elif n > 1:
            parts.append(f"{name}^{n}")
    return "*".join(parts)


def format_polynomial(poly: Polynomial2) -> str:
    """Grammar text for a polynomial, highest total degree first."""
    if poly.is_zero:
        return "0"
    names = _FRAME_VARIABLES[poly.frame]
    keys = sorted(poly.terms, key=lambda k: (-(k[0] + k[1]), -k[0]))
    parts = []
    for key in keys:
        coeff = poly.coefficient(*key)
        mono = _monomial(*key, names)
        lit = format_complex(coeff)
        if not mono:
            parts.append(lit)
        elif coeff == 1:
            parts.append(mono)
        elif coeff == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{lit}*{mono}")
    return _signed_join(parts)


def format_wavesum(ws: WaveSum) -> str:
    """Grammar text for an exponential-linear sum.

    Cartesian terms print as exp((i k1)*x1 + (i k2)*x2); complex-frame
    terms as exp(a*z + b*zbar).  Frequency-zero terms print as constants.
    """
    if ws.is_zero:
        return "0"
    names = _FRAME_VARIABLES[ws.frame]
    parts = []
    # the exponent's coefficients are the derivative eigenvalues; the
    # terms arrive sorted by wavevector
    for t in ws.terms:
        coeffs = _eigenvalues(ws.frame, *t.wavevector)
        exp_parts = []
        for c, name in zip(coeffs, names):
            if c == 0:
                continue
            lit = format_complex(c)
            if c == 1:
                exp_parts.append(name)
            else:
                exp_parts.append(f"{lit}*{name}")
        amp = format_complex(t.amplitude)
        if not exp_parts:
            parts.append(amp)
            continue
        body = "exp(" + _signed_join(exp_parts) + ")"
        parts.append(body if t.amplitude == 1 else f"{amp}*{body}")
    return _signed_join(parts)


def format_value(v: Value) -> str:
    if isinstance(v, Polynomial2):
        return format_polynomial(v)
    if isinstance(v, WaveSum):
        return format_wavesum(v)
    return format_complex(v)
