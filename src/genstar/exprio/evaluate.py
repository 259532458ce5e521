"""Evaluate parsed expressions into engine values.

A value is a complex scalar, a Polynomial2, or a WaveSum.  Scalars coerce
into either class when combined; polynomials and exponential sums never
mix (the engine's function classes are closed separately).
"""

from __future__ import annotations

import cmath
import math

from ..deformation import DeformationParams
from ..errors import EngineError
from ..polystar import CARTESIAN, Polynomial2, star_poly
from ..wavestar import ExpLinearTerm, WaveSum, star_wave
from .parser import Chain, Exp, Expression, Neg, Node, Num, Pow, Var, pretty

Value = complex | Polynomial2 | WaveSum


class EvaluationError(EngineError):
    """An expression parses but does not denote a supported value."""


def value_kind(v: Value) -> str:
    if isinstance(v, Polynomial2):
        return "polynomial"
    if isinstance(v, WaveSum):
        return "wave"
    return "scalar"


def _scalar_wave(c: complex, frame: str) -> WaveSum:
    return WaveSum((ExpLinearTerm(c, frame, (0j, 0j)),), frame)


def _add(a: Value, b: Value) -> Value:
    if isinstance(a, WaveSum) or isinstance(b, WaveSum):
        if isinstance(a, complex):
            a = _scalar_wave(a, b.frame)
        if isinstance(b, complex):
            b = _scalar_wave(b, a.frame)
        if not isinstance(a, WaveSum) or not isinstance(b, WaveSum):
            raise EvaluationError("cannot add a polynomial and an exponential sum")
        return a + b
    return a + b  # scalars, or Polynomial2, which handles scalars and frame checks


def _mul(a: Value, b: Value) -> Value:
    if isinstance(a, complex) or isinstance(b, complex):
        return b * a if isinstance(a, complex) else a * b
    if isinstance(a, WaveSum) and isinstance(b, WaveSum):
        return a.pointwise_mul(b)
    if isinstance(a, Polynomial2) and isinstance(b, Polynomial2):
        return a * b
    raise EvaluationError("cannot multiply a polynomial by an exponential sum")


def _pow(a: Value, n: int) -> Value:
    if not isinstance(a, WaveSum):
        return a**n
    # by squaring, on the schedule of Polynomial2.__pow__
    out: Value = 1.0 + 0j
    while n:
        if n & 1:
            out = _mul(out, a)
        a = _mul(a, a) if n > 1 else a
        n >>= 1
    return out


def _star(a: Value, b: Value, params: DeformationParams) -> Value:
    # a constant stars trivially: the derivative side acting on it vanishes
    if isinstance(a, complex) or isinstance(b, complex):
        return _mul(a, b)
    if isinstance(a, Polynomial2) and isinstance(b, Polynomial2):
        return star_poly(a, b, params)
    if isinstance(a, WaveSum) and isinstance(b, WaveSum):
        return star_wave(a, b, params)
    raise EvaluationError("cannot star a polynomial with an exponential sum")


def _exp_value(arg: Value) -> Value:
    if isinstance(arg, complex):
        try:
            return cmath.exp(arg)
        except ValueError as exc:  # an infinite imaginary part
            raise EvaluationError(f"numeric overflow: exp({arg!r}) is not defined") from exc
    if not isinstance(arg, Polynomial2):
        raise EvaluationError("exp argument must be affine in the variables")
    if arg.total_degree() > 1:
        raise EvaluationError("exp argument must be affine in the variables")
    const = arg.coefficient(0, 0)
    l1 = arg.coefficient(1, 0)
    l2 = arg.coefficient(0, 1)
    amp = cmath.exp(const)
    if arg.frame == CARTESIAN:
        # exp(l1 x1 + l2 x2) = exp(i(k1 x1 + k2 x2)) with k = -i l
        return WaveSum.plane_wave(-1j * l1, -1j * l2, amplitude=amp)
    return WaveSum.z_exponential(l1, l2, amplitude=amp)


def _eval(node: Node, params: DeformationParams) -> Value:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return Polynomial2.variable(node.name)
    if isinstance(node, Neg):
        return -_eval(node.arg, params)
    if isinstance(node, Chain):
        # the - operands are evaluated first, last first; then the rest left to right
        negated = [-_eval(x, params) if op == "-" else None for op, x in reversed(node.rest)]
        value = _eval(node.first, params)
        for (op, x), neg in zip(node.rest, reversed(negated)):
            right = _eval(x, params) if neg is None else neg
            try:
                if op == "**":
                    value = _star(value, right, params)
                else:
                    value = _mul(value, right) if op == "*" else _add(value, right)
            except EvaluationError as exc:  # a polynomial meets an exponential sum
                raise EvaluationError(f"{exc} (right operand: {_named(x)})") from None
        return value
    if isinstance(node, (Pow, Exp)):
        arg = _eval(node.base if isinstance(node, Pow) else node.arg, params)
        try:
            return _pow(arg, node.exponent) if isinstance(node, Pow) else _exp_value(arg)
        except OverflowError as exc:
            raise EvaluationError(f"numeric overflow: {exc} in {_named(node)}") from exc
    raise TypeError(f"not an AST node: {node!r}")


def _named(node: Node) -> str:
    text = pretty(node)
    return text if len(text) <= 60 else text[:59] + "…"


def evaluate_expression(expr: Expression, params: DeformationParams) -> Value:
    """Evaluate a parsed expression under the given deformation parameters.

    The star operator dispatches to star_poly or star_wave; constants
    absorb trivially on either side.  A scalar result that is not finite,
    a float overflow on the way (exp, powers) or a tree nested deeper than
    the interpreter recurses raises EvaluationError;
    polynomials and exponential sums reject non-finite coefficients
    themselves.
    """
    try:
        value = _eval(expr.root, params)
    except OverflowError as exc:
        raise EvaluationError(f"numeric overflow: {exc}") from exc
    except RecursionError as exc:
        raise EvaluationError("expression nests too deeply to evaluate") from exc
    if isinstance(value, complex) and not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise EvaluationError(f"the expression evaluates to a non-finite scalar {value!r}")
    return value
