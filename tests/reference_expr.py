"""The recursive expression evaluator that the step programs replaced, for the checks.

``gfadm.expr`` evaluates a parsed f as one loop over its steps.  This is
the evaluation it replaces: a tree rebuilt from the steps, one node per
step, so a step read twice is one node, walked recursively, a node's value
computed once and reused by the node's identity.  Trees rebuilt with one
node dict share the nodes equal in both, as f1 and f2 shared them by value
before.  The tests require ``eval_scalar`` and the Adomian rows to match it
bitwise.
"""

import operator

import numpy as np

from gfadm.errors import EvaluationError, OrderMismatchError
from gfadm.series import RunningSeries


class Node:
    """A step with its operands as nodes; leaves keep their constant or name."""

    __slots__ = ("op", "a", "b")

    def __init__(self, op, a, b):
        self.op, self.a, self.b = op, a, b


def tree(e, nodes=None) -> Node:
    """The tree of e's steps; ``nodes`` gives equal nodes one object across calls."""
    nodes = {} if nodes is None else nodes
    made = []
    for op, a, b in e.steps:
        if op in ("+", "-", "*", "/"):
            a, b = made[a], made[b]
        elif op in ("neg", "^"):
            a = made[a]
        made.append(nodes.setdefault((op, a, b), Node(op, a, b)))
    return made[-1]


def evaluate(node, x, y1, y2, lift, div=operator.truediv, done=None):
    """Evaluate recursively; a node met again reuses its value, by identity."""
    env = {"x": x, "y1": y1, "y2": y2}
    done = {} if done is None else done

    def ev(n):
        if n.op == "num":
            return lift(n.a)
        if n.op in env:
            return env[n.op]
        out = done.get(id(n))  # no value is None
        if out is not None:
            return out
        if n.op == "+":
            out = ev(n.a) + ev(n.b)
        elif n.op == "-":
            out = ev(n.a) - ev(n.b)
        elif n.op == "*":
            out = ev(n.a) * ev(n.b)
        elif n.op == "/":
            out = div(ev(n.a), ev(n.b))
        elif n.op == "neg":
            out = -ev(n.a)
        else:
            base = out = ev(n.a)
            for _ in range(n.b - 1):
                out = out * base
        done[id(n)] = out
        return out

    return ev(node)


def eval_scalar(e, x, y1, y2):
    """``gfadm.expr.eval_scalar`` by the recursive evaluation."""
    try:
        with np.errstate(divide="raise", invalid="raise"):
            val = evaluate(tree(e), x, y1, y2, float)
    except (ZeroDivisionError, FloatingPointError) as exc:
        raise EvaluationError(f"division by zero while evaluating: {exc}") from exc
    if not np.all(np.isfinite(val)):
        raise EvaluationError("non-finite value while evaluating expression")
    if np.isscalar(x) and np.isscalar(y1) and np.isscalar(y2):
        return complex(val) if np.iscomplexobj(val) else float(val)
    shape = np.broadcast_shapes(np.shape(x), np.shape(y1), np.shape(y2))
    return np.asarray(val, dtype=np.result_type(val, float)) if np.shape(val) == shape \
        else np.full(shape, val)


def eval_series(e, x, y1, y2):
    """``gfadm.expr.eval_series`` by the recursive evaluation.

    For a sequence of expressions each is evaluated in turn, and made a
    series, with the nodes and the values of those before it.
    """
    if y1.tape is not y2.tape:
        raise OrderMismatchError("series arguments must share one tape")
    zero = []
    nodes, done = {}, {}

    def as_series(v):
        if isinstance(v, RunningSeries):
            return v
        if not zero:
            zero.append(0.0 * y1)
        return zero[0] + v

    def series(f):
        return as_series(evaluate(tree(f, nodes), x, y1, y2, lambda c: c,
                                  lambda a, b: as_series(a) / as_series(b), done))

    if isinstance(e, (list, tuple)):
        return [series(f) for f in e]
    return series(e)
