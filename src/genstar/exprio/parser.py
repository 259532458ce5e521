"""Recursive-descent parser for the engine's expression grammar.

Grammar (loosest to tightest binding):

    binary(p) := binary(p+1) (OP(p) binary(p+1))*   # OP(p): _BINARY's ops of precedence p
    binary(4) := factor                             # 4: one past the tightest precedence
    factor    := '-' factor | power
    power     := atom ('^' UINT)?
    atom      := NUMBER | 'i' | VAR | 'exp' '(' binary(1) ')' | '(' binary(1) ')'

_BINARY is the one place where the binary operators' precedence and printed
spelling live: '+' and '-' bind loosest, then the star product '**', then
'*'; all are left-associative.  Numbers take an optional 'i' suffix (2,
1.5, 2i, 1.5e-3i) and must be finite; variables are x1/x2 (cartesian
frame) or z/zbar (complex frame) and the two frames may not mix.

Each binary(p) that reads an operator is one Chain node, its first operand
and its (op, operand) pairs: a shallow tree however long the chain.

An 'exp' argument must be affine in the variables: its degree is at most 1.
A number or 'i' has degree 0 and a variable 1; unary '-' keeps its operand's
degree, '+' and '-' take the larger, '*' and '**' add the two (a star
product never exceeds the sum of its operands' degrees), '^n' multiplies by
n and '^0' gives 0.  exp(a) is a number, of degree 0, when a holds no
variable, and otherwise an exponential sum, which has no degree.  So
exp(x1 ** 2) is exp(2*x1), exp(exp(1) + x1) is fine, and exp(exp(x1) + x1)
is refused.

Errors: a syntax error is raised where it is met; over-deep nesting is one
("expression nests too deeply").  Only once the whole text has parsed come
the first variable whose frame differs from the first variable's, then the
first non-affine 'exp' in the text.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass

from ..deformation import _FRAME_VARIABLES
from ..errors import EngineError

#: variable name -> its frame
_FRAME_OF = {name: frame for frame, names in _FRAME_VARIABLES.items() for name in names}
VARIABLES = tuple(_FRAME_OF)

#: the grammar's binary operators: op -> (precedence, printed spelling); a
#: higher precedence binds tighter, and every operator is left-associative
_BINARY = {"+": (1, " + "), "-": (1, " - "), "**": (2, " ** "), "*": (3, "*")}
_TIGHTEST = max(prec for prec, _ in _BINARY.values())

#: one alternative per token, tried in order; the group name is the kind
_TOKEN_RE = re.compile(
    r"(?P<newline>\n)|(?P<space>\s)|(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?i?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>\*\*|[-+*^()])"
)


class ParseError(EngineError):
    """Syntax or validation diagnostic with position and expected tokens."""

    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...]):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        hint = ", ".join(expected)
        super().__init__(f"{message} at line {line}, column {column} (expected: {hint})")


@dataclass(frozen=True)
class Token:
    kind: str  # 'number' | 'name' | 'op' | 'end'
    text: str
    value: complex | None
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, line_start, i = 1, 0, 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        col = i - line_start + 1
        if m is None:
            raise ParseError(
                f"unexpected character {text[i]!r}",
                line,
                col,
                expected=("number", "variable", "operator", "'('"),
            )
        kind, word, i = m.lastgroup, m.group(), m.end()
        if kind == "newline":
            line, line_start = line + 1, i
        elif kind == "number":
            value = complex(0.0, float(word[:-1])) if word.endswith("i") else complex(float(word))
            tokens.append(Token(kind, word, value, line, col))
        elif kind != "space":
            tokens.append(Token(kind, word, None, line, col))
    tokens.append(Token("end", "", None, line, i - line_start + 1))
    return tokens


# -- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class Node:
    pass


@dataclass(frozen=True)
class Num(Node):
    value: complex


@dataclass(frozen=True)
class Var(Node):
    name: str


@dataclass(frozen=True)
class Neg(Node):
    arg: Node


@dataclass(frozen=True)
class Chain(Node):
    first: Node
    rest: tuple[tuple[str, Node], ...]  # (op, operand) pairs, ops of one precedence; not empty


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    exponent: int


@dataclass(frozen=True)
class Exp(Node):
    arg: Node


@dataclass(frozen=True)
class Expression:
    """A parsed expression plus the frame its variables selected."""

    root: Node
    frame: str | None


class _Parser:
    """Builds the tree and each subtree's degree in the variables, with
    math.inf for an exponential sum, which has none."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.index = 0
        self.variables: list[Token] = []  # every variable read so far, in text order
        self.bad_exps: list[tuple[int, int]] = []  # positions of non-affine exps

    @property
    def cur(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        tok = self.cur
        self.index += 1
        return tok

    def at_op(self, *ops: str) -> bool:
        return self.cur.kind == "op" and self.cur.text in ops

    def fail(self, message: str, expected: tuple[str, ...]):
        tok = self.cur
        raise ParseError(message, tok.line, tok.column, expected)

    def parse(self) -> Node:
        node, _ = self.binary()
        if self.cur.kind != "end":
            self.fail(f"unexpected trailing input {self.cur.text!r}", ("end of input", "operator"))
        self.frame = _FRAME_OF[self.variables[0].text] if self.variables else None
        for var in self.variables:
            if _FRAME_OF[var.text] != self.frame:
                raise ParseError(
                    f"variable {var.text!r} mixes frames (expression already uses "
                    f"{self.frame} variables)",
                    var.line, var.column,
                    expected=_FRAME_VARIABLES[self.frame],
                )
        if self.bad_exps:  # nested exps complete innermost first: report the first in the text
            raise ParseError(
                "exp argument must be affine in the variables",
                *min(self.bad_exps),
                expected=("affine expression in the variables",),
            )
        return node

    def binary(self, prec: int = 1) -> tuple[Node, float]:
        """A left-associative chain of the _BINARY operators of precedence
        prec; its operands are the next level's chains, or factors.  A
        parenthesized chain of prec in first place joins: (a+b)+c is a+b+c."""
        tighter = prec < _TIGHTEST
        first, deg = self.binary(prec + 1) if tighter else self.factor()
        rest = []
        while _BINARY.get(self.cur.text, (None,))[0] == prec:
            op = self.advance().text
            operand, operand_deg = self.binary(prec + 1) if tighter else self.factor()
            rest.append((op, operand))
            deg = max(deg, operand_deg) if op in ("+", "-") else deg + operand_deg
        if not rest:
            return first, deg
        if isinstance(first, Chain) and _BINARY[first.rest[0][0]][0] == prec:
            first, rest = first.first, [*first.rest, *rest]
        return Chain(first, tuple(rest)), deg

    def factor(self) -> tuple[Node, float]:
        if self.at_op("-"):
            self.advance()
            arg, deg = self.factor()
            return Neg(arg), deg
        return self.power()

    def power(self) -> tuple[Node, float]:
        base, deg = self.atom()
        if not self.at_op("^"):
            return base, deg
        self.advance()
        tok = self.cur
        if tok.kind != "number" or tok.value.imag != 0.0 or not tok.value.real.is_integer():
            self.fail(
                "exponent must be a non-negative integer literal",
                ("non-negative integer",),
            )
        self.advance()
        n = int(tok.value.real)
        return Pow(base, n), deg * n if n else 0

    def atom(self) -> tuple[Node, float]:
        tok = self.cur
        pos = (tok.line, tok.column)
        if tok.kind == "number":
            if not cmath.isfinite(tok.value):
                self.fail("number literal must be finite", ("finite number",))
            self.advance()
            return Num(tok.value), 0
        if tok.kind == "name":
            self.advance()
            if tok.text == "i":
                return Num(1j), 0
            if tok.text in VARIABLES:
                self.variables.append(tok)
                return Var(tok.text), 1
            if tok.text == "exp":
                if not self.at_op("("):
                    self.fail("exp must be called as exp(...)", ("'('",))
                self.advance()
                seen = len(self.variables)
                arg, deg = self.binary()
                if not self.at_op(")"):
                    self.fail("unclosed exp(", ("')'",))
                self.advance()
                if deg > 1:
                    self.bad_exps.append(pos)
                return Exp(arg), 0 if len(self.variables) == seen else math.inf
            raise ParseError(f"unknown name {tok.text!r}", *pos, expected=VARIABLES + ("i", "exp"))
        if self.at_op("("):
            self.advance()
            node = self.binary()
            if not self.at_op(")"):
                self.fail("unclosed parenthesis", ("')'",))
            self.advance()
            return node
        self.fail(
            f"unexpected token {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
            ("number", "variable", "'exp'", "'('", "'-'"),
        )


def parse_expression(text: str) -> Expression:
    """Parse text into an Expression; raises ParseError with line/column
    and an expected-token set on any syntax or validation failure."""
    parser = _Parser(tokenize(text))
    try:
        root = parser.parse()
    except RecursionError:
        parser.fail("expression nests too deeply", ("less nesting",))
    return Expression(root=root, frame=parser.frame)


# -- pretty printer ----------------------------------------------------------

_PREC_NEG, _PREC_POW, _PREC_ATOM = _TIGHTEST + 1, _TIGHTEST + 2, _TIGHTEST + 3


def format_complex(value: complex) -> str:
    """Grammar-compatible complex literal: 2, 1.5, 2i, -1.5i, (1+2i)."""
    re_, im = value.real, value.imag

    def num(x: float) -> str:
        if x == int(x) and abs(x) < 1e15:
            return str(int(x))
        return repr(x)

    if im == 0.0:
        return num(re_)
    if re_ == 0.0:
        if im == 1.0:
            return "i"
        if im == -1.0:
            return "-i"
        return num(im) + "i"
    sign = "+" if im >= 0 else "-"
    mag = abs(im)
    imag = "i" if mag == 1.0 else num(mag) + "i"
    return f"({num(re_)}{sign}{imag})"


def pretty(node: Node, ctx_prec: int = 0) -> str:
    """Canonical text form; parse(pretty(parse(s))) == parse(s)."""
    if isinstance(node, Num):
        s = format_complex(node.value)
        prec = _PREC_NEG if s.startswith("-") else _PREC_ATOM
    elif isinstance(node, Var):
        s, prec = node.name, _PREC_ATOM
    elif isinstance(node, Neg):
        s, prec = "-" + pretty(node.arg, _PREC_NEG), _PREC_NEG
    elif isinstance(node, Chain):
        prec = _BINARY[node.rest[0][0]][0]
        s = pretty(node.first, prec) + "".join(
            _BINARY[op][1] + pretty(operand, prec + 1) for op, operand in node.rest)
    elif isinstance(node, Pow):
        s = f"{pretty(node.base, _PREC_ATOM)}^{node.exponent}"
        prec = _PREC_POW
    elif isinstance(node, Exp):
        s, prec = f"exp({pretty(node.arg)})", _PREC_ATOM
    else:
        raise TypeError(f"not an AST node: {node!r}")
    if prec < ctx_prec:
        return f"({s})"
    return s
