"""Parsing and evaluation of nonlinearities f(x, y1, y2).

Grammar (standard precedence, ``^`` binds tightest and takes a literal
non-negative integer exponent):

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' INT)?
    atom   := NUMBER | 'x' | 'y1' | 'y2' | '(' expr ')'

Expressions are immutable trees; evaluation is reentrant.  The same tree
evaluates on scalars (or numpy arrays) through ``eval_scalar`` and, through
``eval_series``, on the :class:`~gfadm.series.RunningSeries` variables of a
:class:`~gfadm.series.SeriesTape`: that records the truncated Taylor
expansion of ``f(x, y1(lam), y2(lam))`` over any coefficient ring, to be
computed when the tape is extended.  The parser gives equal subtrees one
node, and evaluation computes a node once by identity, so a repeated
subexpression is recorded and computed once.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, ExpressionError, OrderMismatchError
from .series import RunningSeries


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # 'x' | 'y1' | 'y2'


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Div:
    left: object
    right: object


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class PowInt:
    base: object
    exponent: int


Expression = object  # any of the node types above

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)|(?P<ident>[A-Za-z_]\w*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            # skip pure whitespace tail
            if text[pos:].strip() == "":
                break
            raise ExpressionError(f"unexpected character {text[pos]!r}", pos)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.nodes = {}  # every node made so far, by value

    def node(self, made):
        """The node equal to ``made`` made first, so equal subtrees are one."""
        return self.nodes.setdefault(made, made)

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ExpressionError(f"expected {op!r}, found {val!r}", pos)

    def parse(self):
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected trailing {val!r}", pos)
        return e

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                node = self.node(Add(node, rhs) if val == "+" else Sub(node, rhs))
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.unary()
                node = self.node(Mul(node, rhs) if val == "*" else Div(node, rhs))
            else:
                return node

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return self.node(Neg(self.unary()))
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val, pos = self.next()
            if kind != "num":
                raise ExpressionError("exponent must be an integer literal", pos)
            if not re.fullmatch(r"\d+", val):
                raise ExpressionError(
                    f"exponent must be a non-negative integer, got {val!r}", pos
                )
            return self.node(PowInt(base, int(val)))
        return base

    def atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            return self.node(Const(float(val)))
        if kind == "ident":
            if val in ("x", "y1", "y2"):
                return self.node(Var(val))
            raise ExpressionError(f"unknown identifier {val!r}", pos)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionError(f"unexpected token {val!r}", pos)


def parse_expression(text: str) -> Expression:
    """Parse ``text`` into an expression tree."""
    return _Parser(text).parse()


def evaluate(e: Expression, x, y1, y2, lift, div=operator.truediv):
    """Evaluate structurally with values from an arbitrary arithmetic ring.

    ``lift`` embeds a float constant into the ring and ``div`` divides two
    values; ``x``, ``y1``, ``y2`` must already support ``+ - *`` with each
    other and with lifted constants.  A node met again is not evaluated
    again: its value is reused, by the node's identity.
    """
    env = {"x": x, "y1": y1, "y2": y2}
    done = {}

    def ev(e):
        if isinstance(e, Const):
            return lift(e.value)
        if isinstance(e, Var):
            return env[e.name]
        key = id(e)
        if key in done:
            return done[key]
        if isinstance(e, Add):
            out = ev(e.left) + ev(e.right)
        elif isinstance(e, Sub):
            out = ev(e.left) - ev(e.right)
        elif isinstance(e, Mul):
            out = ev(e.left) * ev(e.right)
        elif isinstance(e, Div):
            out = div(ev(e.left), ev(e.right))
        elif isinstance(e, Neg):
            out = -ev(e.operand)
        elif isinstance(e, PowInt):
            if e.exponent == 0:
                return lift(1.0)
            base = out = ev(e.base)
            for _ in range(e.exponent - 1):
                out = out * base
        else:
            raise TypeError(f"not an expression node: {e!r}")
        done[key] = out
        return out

    try:
        return ev(e)
    finally:
        del ev  # ev refers to itself; freed now, not at the next collection


STEP = 2.0**-64  # the complex step's size; a power of two, so dividing by it is exact


def eval_scalar(e: Expression, x, y1, y2):
    """Evaluate on real or complex numbers (or numpy arrays, elementwise).

    With array arguments the result has their broadcast shape, also when
    it does not depend on all of them.  Every f is rational, so at y_j +
    i STEP its imaginary part over STEP is df/dy_j to rounding, with no
    difference to cancel (the complex step, Squire & Trapp 1998).
    """
    try:
        with np.errstate(divide="raise", invalid="raise"):
            val = evaluate(e, x, y1, y2, float)
    except (ZeroDivisionError, FloatingPointError) as exc:
        raise EvaluationError(f"division by zero while evaluating: {exc}") from exc
    if not np.all(np.isfinite(val)):
        raise EvaluationError("non-finite value while evaluating expression")
    if np.isscalar(x) and np.isscalar(y1) and np.isscalar(y2):
        return complex(val) if np.iscomplexobj(val) else float(val)
    shape = np.broadcast_shapes(np.shape(x), np.shape(y1), np.shape(y2))
    return np.asarray(val, dtype=np.result_type(val, float)) if np.shape(val) == shape \
        else np.full(shape, val)


def eval_series(e: Expression, x, y1: RunningSeries, y2: RunningSeries) -> RunningSeries:
    """Record ``f(x, y1, y2)`` on the tape of the series y1 and y2.

    ``x`` and the literals of f enter as elements of the coefficient ring
    of y1 and y2: a float, the array of points the coefficients are values
    at, or ``Polynomial.identity()`` for polynomial coefficients.  Operands
    of a division, and a result free of y1 and y2, become constant series
    of that ring, so a vanishing divisor is caught by the series division.
    """
    if y1.tape is not y2.tape:
        raise OrderMismatchError("series arguments must share one tape")
    zero = []  # the zero series, recorded when first needed

    def as_series(v):
        if isinstance(v, RunningSeries):
            return v
        if not zero:
            zero.append(0.0 * y1)
        return zero[0] + v

    out = evaluate(e, x, y1, y2, lambda c: c, lambda a, b: as_series(a) / as_series(b))
    return as_series(out)


def to_text(e: Expression) -> str:
    """Pretty-print with enough parentheses to round-trip through the parser."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Add):
        return f"({to_text(e.left)} + {to_text(e.right)})"
    if isinstance(e, Sub):
        return f"({to_text(e.left)} - {to_text(e.right)})"
    if isinstance(e, Mul):
        return f"({to_text(e.left)} * {to_text(e.right)})"
    if isinstance(e, Div):
        return f"({to_text(e.left)} / {to_text(e.right)})"
    if isinstance(e, Neg):
        return f"(-{to_text(e.operand)})"
    if isinstance(e, PowInt):
        return f"{to_text(e.base)}^{e.exponent}" if isinstance(e.base, (Const, Var)) \
            else f"({to_text(e.base)})^{e.exponent}"
    raise TypeError(f"not an expression node: {e!r}")

