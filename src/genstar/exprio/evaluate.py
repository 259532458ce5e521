"""Evaluate parsed expressions into engine values.

A value is a complex scalar, a Polynomial2, or a WaveSum.  Scalars coerce
into either class when combined; polynomials and exponential sums never
mix (the engine's function classes are closed separately).
"""

from __future__ import annotations

import cmath

from ..deformation import DeformationParams
from ..errors import EngineError
from ..polystar import CARTESIAN, Polynomial2, star_poly
from ..wavestar import WaveSum, star_wave
from .parser import Add, Exp, Expression, Mul, Neg, Node, Num, Pow, Star, Sub, Var

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
    if frame == CARTESIAN:
        return WaveSum.plane_wave(0.0, 0.0, amplitude=c)
    return WaveSum.z_exponential(0.0, 0.0, amplitude=c)


def _add(a: Value, b: Value) -> Value:
    if isinstance(a, complex) and isinstance(b, complex):
        return a + b
    if isinstance(a, WaveSum) or isinstance(b, WaveSum):
        if isinstance(a, complex):
            a = _scalar_wave(a, b.frame)
        if isinstance(b, complex):
            b = _scalar_wave(b, a.frame)
        if not isinstance(a, WaveSum) or not isinstance(b, WaveSum):
            raise EvaluationError("cannot add a polynomial and an exponential sum")
        return a + b
    return a + b  # Polynomial2 handles scalars and frame checks


def _mul(a: Value, b: Value) -> Value:
    if isinstance(a, complex) and isinstance(b, complex):
        return a * b
    if isinstance(a, complex) or isinstance(b, complex):
        return a * b if not isinstance(a, complex) else b * a
    if isinstance(a, WaveSum) and isinstance(b, WaveSum):
        return a.pointwise_mul(b)
    if isinstance(a, Polynomial2) and isinstance(b, Polynomial2):
        return a * b
    raise EvaluationError("cannot multiply a polynomial by an exponential sum")


def _pow(a: Value, n: int) -> Value:
    if isinstance(a, complex):
        return a**n
    if isinstance(a, Polynomial2):
        return a**n
    out: Value = 1.0 + 0j
    for _ in range(n):
        out = _mul(out, a)
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
        return cmath.exp(arg)
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
    if isinstance(node, Add):
        return _add(_eval(node.left, params), _eval(node.right, params))
    if isinstance(node, Sub):
        right = _eval(node.right, params)
        right = -right
        return _add(_eval(node.left, params), right)
    if isinstance(node, Mul):
        return _mul(_eval(node.left, params), _eval(node.right, params))
    if isinstance(node, Pow):
        return _pow(_eval(node.base, params), node.exponent)
    if isinstance(node, Star):
        return _star(_eval(node.left, params), _eval(node.right, params), params)
    if isinstance(node, Exp):
        return _exp_value(_eval(node.arg, params))
    raise TypeError(f"not an AST node: {node!r}")


def evaluate_expression(expr: Expression, params: DeformationParams) -> Value:
    """Evaluate a parsed expression under the given deformation parameters.

    The star operator dispatches to star_poly or star_wave; constants
    absorb trivially on either side.
    """
    return _eval(expr.root, params)
