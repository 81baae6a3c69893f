"""Parsing and evaluation of nonlinearities f(x, y1, y2).

Grammar (standard precedence, ``^`` binds tightest and takes a literal
non-negative integer exponent):

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' INT)?
    atom   := NUMBER | 'x' | 'y1' | 'y2' | '(' expr ')'

Parentheses and unary minuses nest at most ``MAX_NESTING`` deep; deeper
input raises :class:`~gfadm.errors.ExpressionError`.

A parsed f is a flat program, an :class:`Expression`: its steps in
evaluation order (the post-order of the syntax tree), each reading earlier
steps by index.  The parser makes equal subexpressions one step, so a
repeated subexpression is evaluated once, and evaluation is one loop over
the steps.  The same program evaluates on scalars (or numpy arrays)
through ``eval_scalar`` and, through ``eval_series``, on the
:class:`~gfadm.series.RunningSeries` variables of a
:class:`~gfadm.series.SeriesTape`: that records the truncated Taylor
expansion of ``f(x, y1(lam), y2(lam))`` over any coefficient ring, to be
computed when the tape is extended.  :func:`join` makes one program of
f1 and f2, a step equal in both kept once; ``eval_series`` and
``eval_scalar`` take a join and give both values from one evaluation, and
``eval_series`` given both joins them itself.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, ExpressionError, OrderMismatchError
from .series import RunningSeries

# parentheses and unary minuses, one inside another; the parser recurses at
# most five calls deep per level, so this stays well inside Python's limit
MAX_NESTING = 100
_VARS = ("x", "y1", "y2")
_BINARY = {"+": 1, "-": 1, "*": 2, "/": 2}  # the binary operators' precedence


@dataclass(frozen=True)
class Expression:
    """A parsed f: steps ``(op, a, b)`` in evaluation order, the last its value.

    ``op`` is ``"num"`` (the constant a), ``"x"``, ``"y1"`` or ``"y2"``,
    ``"neg"`` (minus step a), ``"^"`` (step a to the integer power b >= 1)
    or one of ``+ - * /`` (step a op step b).  No two steps are equal.
    """

    steps: tuple
    roots = (-1,)  # the step of its value, as in a Joint


class _Program:
    """Steps in evaluation order, each kept once."""

    def __init__(self):
        self.steps = []
        self.index = {}  # step -> its index

    def add(self, op, a=None, b=None) -> int:
        """The index of the step ``(op, a, b)``, appended if it is new."""
        step = (op, a, b)
        i = self.index.get(step)
        if i is None:
            i = self.index[step] = len(self.steps)
            self.steps.append(step)
        return i


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)|(?P<ident>[A-Za-z_]\w*)|(?P<op>[-+*/^()])|(?P<bad>\S))"
)


def _tokenize(text: str):
    """(kind, text, position) per token, then ("end", "", len(text))."""
    tokens = []
    for m in _TOKEN.finditer(text):  # only trailing whitespace matches nothing
        kind = m.lastgroup
        if kind == "bad":
            raise ExpressionError(f"unexpected character {m[kind]!r}", m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent; each method returns the index of its value's step."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # parentheses and unary minuses open
        self.program = _Program()

    def at(self, ops: str) -> bool:
        """Whether the next token is one of the operators ``ops``."""
        kind, val, _ = self.tokens[self.i]
        return kind == "op" and val in ops

    def next(self):
        self.i += 1
        return self.tokens[self.i - 1]

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ExpressionError(f"expected {op!r}, found {val!r}", pos)

    def nest(self, pos: int):
        """Open one more level at ``pos``; the caller closes it."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExpressionError(f"nested deeper than {MAX_NESTING} levels", pos)

    def parse(self) -> Expression:
        self.expr()
        kind, val, pos = self.tokens[self.i]
        if kind != "end":
            raise ExpressionError(f"unexpected trailing {val!r}", pos)
        return Expression(tuple(self.program.steps))

    def expr(self):
        i = self.term()
        while self.at("+-"):
            i = self.program.add(self.next()[1], i, self.term())
        return i

    def term(self):
        i = self.unary()
        while self.at("*/"):
            i = self.program.add(self.next()[1], i, self.unary())
        return i

    def unary(self):
        if self.at("-"):
            self.nest(self.next()[2])
            i = self.program.add("neg", self.unary())
            self.depth -= 1
            return i
        return self.power()

    def power(self):
        start = len(self.program.steps)
        base = self.atom()
        if self.at("^"):
            self.next()
            kind, val, pos = self.next()
            if kind != "num":
                raise ExpressionError("exponent must be an integer literal", pos)
            if not re.fullmatch(r"\d+", val):
                raise ExpressionError(
                    f"exponent must be a non-negative integer, got {val!r}", pos
                )
            if int(val) == 0:  # x^0 is 1, x unevaluated: the steps only x needs go
                program = self.program
                for step in program.steps[start:]:
                    del program.index[step]
                del program.steps[start:]
                return program.add("num", 1.0)
            return self.program.add("^", base, int(val))
        return base

    def atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            return self.program.add("num", float(val))
        if kind == "ident":
            if val in _VARS:
                return self.program.add(val)
            raise ExpressionError(f"unknown identifier {val!r}", pos)
        if kind == "op" and val == "(":
            self.nest(pos)
            i = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return i
        raise ExpressionError(f"unexpected token {val!r}", pos)


def parse_expression(text: str) -> Expression:
    """Parse ``text`` into an expression program."""
    return _Parser(text).parse()


def evaluate(steps, x, y1, y2, lift, div=operator.truediv) -> list:
    """The value of every step of a program, in order, in an arbitrary ring.

    ``lift`` embeds a float constant into the ring and ``div`` divides two
    values; ``x``, ``y1``, ``y2`` must already support ``+ - *`` with each
    other and with lifted constants.
    """
    env = {"x": x, "y1": y1, "y2": y2}
    vals = []
    for op, a, b in steps:
        if op == "*":
            v = vals[a] * vals[b]
        elif op == "+":
            v = vals[a] + vals[b]
        elif op == "-":
            v = vals[a] - vals[b]
        elif op == "/":
            v = div(vals[a], vals[b])
        elif op == "num":
            v = lift(a)
        elif op == "neg":
            v = -vals[a]
        elif op == "^":
            v = base = vals[a]
            for _ in range(b - 1):
                v = v * base
        else:
            v = env[op]
        vals.append(v)
    return vals


STEP = 2.0**-64  # the complex step's size; a power of two, so dividing by it is exact
# the value types eval_scalar returns as they are
_RESULT_TYPES = (np.dtype(float), np.dtype(complex))


def eval_scalar(e, x, y1, y2):
    """Evaluate on real or complex numbers (or numpy arrays, elementwise).

    Three numbers give a float, or a complex for a complex value.  With
    array arguments the result is an array of their broadcast shape, also
    when it does not depend on all of them; a float64 or complex value
    array of that shape is returned as it is, without a copy.  Every value
    is checked finite.  Every f is rational, so at y_j + i STEP its
    imaginary part over STEP is df/dy_j to rounding, with no difference to
    cancel (the complex step, Squire & Trapp 1998).  A :class:`Joint` of
    several expressions gives a tuple, each one's value, from one
    evaluation of their joined steps.
    """
    try:
        with np.errstate(divide="raise", invalid="raise"):
            vals = evaluate(e.steps, x, y1, y2, float)
    except (ZeroDivisionError, FloatingPointError) as exc:
        raise EvaluationError(f"division by zero while evaluating: {exc}") from exc
    out = []
    for r in e.roots:
        v = vals[r]
        if not np.isfinite(v).all():
            raise EvaluationError("non-finite value while evaluating expression")
        if not out:  # the shape is taken once, after the first value's check
            numbers = np.isscalar(x) and np.isscalar(y1) and np.isscalar(y2)
            if not numbers:
                shape = np.shape(x)
                if not shape == np.shape(y1) == np.shape(y2):
                    shape = np.broadcast_shapes(shape, np.shape(y1), np.shape(y2))
        if numbers:
            v = complex(v) if np.iscomplexobj(v) else float(v)
        elif not (type(v) is np.ndarray and v.dtype in _RESULT_TYPES and v.shape == shape):
            v = np.asarray(v, dtype=np.result_type(v, float)) if np.shape(v) == shape \
                else np.full(shape, v)
        out.append(v)
    return tuple(out) if isinstance(e, Joint) else out[0]


@dataclass(frozen=True)
class Joint:
    """Expressions joined (:func:`join`): ``steps`` and the step of each one's value."""

    steps: tuple
    roots: tuple


def join(exprs) -> Joint:
    """One program for several expressions (f1 and f2 of a problem).

    Their steps follow one another, a step equal to an earlier one kept
    once, so every step's value is the one it has in its own expression,
    and the steps they share are evaluated once.
    """
    program, roots = _Program(), []
    for e in exprs:
        at = []  # at[i]: the index in the join of e's step i
        for op, a, b in e.steps:
            if op in _BINARY:
                a, b = at[a], at[b]
            elif op in ("neg", "^"):
                a = at[a]
            at.append(program.add(op, a, b))
        roots.append(at[-1])
    return Joint(tuple(program.steps), tuple(roots))


def eval_series(e, x, y1: RunningSeries, y2: RunningSeries):
    """Record ``f(x, y1, y2)`` on the tape of the series y1 and y2.

    ``x`` and the literals of f enter as elements of the coefficient ring
    of y1 and y2: a float, the array of points the coefficients are values
    at, or ``Polynomial.identity()`` for polynomial coefficients.  Operands
    of a division, and a result free of y1 and y2, become constant series
    of that ring, so a vanishing divisor is caught by the series division.

    ``e`` is one expression, or several (f1 and f2 of a problem), which
    give a list of series, one per expression: their :class:`Joint`, as
    ``ProblemSpec.rhs`` holds it, or a sequence of them, joined here.  A
    subexpression equal in several of them, as ``y1^2`` in both of
    catalytic's, is recorded once, and an expression equal to an earlier
    one gets its series.
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

    program = join(e) if isinstance(e, (list, tuple)) else e
    vals = evaluate(program.steps, x, y1, y2, lambda c: c,
                    lambda a, b: as_series(a) / as_series(b))
    out = [as_series(vals[r]) for r in program.roots]
    return out if isinstance(program, Joint) else out[0]


def to_text(e: Expression) -> str:
    """Pretty-print, round-tripping through the parser; ``a + b - c`` prints flat."""
    texts = []
    for op, a, b in e.steps:
        if op == "num":
            text = repr(a)
        elif op in _VARS:
            text = op
        elif op == "neg":
            text = f"-{texts[a]}"
        elif op == "^":
            leaf = e.steps[a][0] == "num" or e.steps[a][0] in _VARS
            text = f"{texts[a]}^{b}" if leaf else f"({texts[a]})^{b}"
        else:
            left = texts[a]
            if _BINARY.get(e.steps[a][0]) == _BINARY[op]:
                left = left[1:-1]  # a left operand of the same precedence, unwrapped
            text = f"({left} {op} {texts[b]})"
        texts.append(text)
    return texts[-1]
