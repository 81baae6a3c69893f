"""Adomian polynomial generation.

The rows A_0..A_n of a nonlinearity f are the Taylor coefficients of
``f(x, sum_j y1_j lam^j, sum_j y2_j lam^j)`` in lam, so row n equals
(1/n!) d^n/dlam^n at lam = 0.  Computing them through truncated-series
arithmetic is definitionally exact at the truncation order and needs no
per-nonlinearity derivation.

An expansion of f (:func:`adomian_expansion`) is f recorded on a
:class:`~gfadm.series.SeriesTape` whose variables are y1 and y2.  It
serves every coefficient ring of the tape: one point x (float rows), an
array of points (the rows at all of them in one call, as the grid backend
and the residual search use), or ``x = Polynomial.identity()`` with
polynomial terms (rows as exact polynomials in x, for the exact backend;
polynomial f only).

f may also be a sequence of nonlinearities, f1 and f2 of a problem.  They
are recorded on one tape, a subtree equal in several of them once, and a
call returns one block of rows per f, each bitwise the rows that f gets
alone.

Every call extends an expansion to the terms it is given.  Without one, a
call records a fresh expansion and extends it once, by all the rows.  A
solve needs row j at step j, from the terms 0..j; the solver keeps one
expansion of both nonlinearities and passes it to its one call per step,
which then computes only the rows of the new term, each coefficient once,
so a solve's row work is O(n^2) instead of O(n^3).  The rows are bitwise
the same either way.
"""

from __future__ import annotations

from collections.abc import Sequence
from numbers import Real

import numpy as np

from .errors import (
    NumericError,
    SingularDivisionError,
    UnsupportedBackendError,
    UsageError,
)
from .expr import Expression, eval_series
from .grids import Polynomial
from .series import RunningSeries, SeriesTape


Rhs = Expression | Sequence[Expression]  # one f, or f1 and f2 on one tape


def adomian_expansion(f: Rhs, x) -> RunningSeries | list[RunningSeries]:
    """The expansion of f at x, for the ``expansion`` argument below.

    ``x`` is what the calls it serves pass: a point, the array of points,
    or ``Polynomial.identity()`` for :func:`adomian_polynomial_rows`.  For
    a sequence of expressions it is a list of series on one tape, one per
    f, and the subtrees they share are recorded once::

        f1, f2 = parse_expression("y1^2 + x*y2"), parse_expression("2*y1^2")
        expansion = adomian_expansion([f1, f2], 0.5)  # y1^2 recorded once
        rows1, rows2 = adomian_coefficients([f1, f2], 0.5, y1_terms, y2_terms,
                                            expansion)
    """
    y1, y2 = SeriesTape(2).variables
    # the parts of f in x alone are computed here; one that overflows makes
    # a non-finite coefficient, which raises NumericError in the first call
    with np.errstate(over="ignore", invalid="ignore"):
        return eval_series(f, x, y1, y2)


def adomian_coefficients(f: Rhs, x, y1_terms, y2_terms, expansion=None):
    """Rows A_0..A_n of f at x from the component term values so far.

    ``x`` is one point or an array of points; each term is then a value or
    an array of values at them, a number standing for its value at every
    point, and the rows have shape ``(n+1,)`` or ``(n+1, len(x))``.  At
    ``Polynomial.identity()`` a term is a Polynomial or a number, the
    constant Polynomial.  A term outside x's ring (one that does not
    broadcast to the points, say) raises :class:`UsageError`.  For
    a sequence of expressions the result is a list, one block of rows per
    f, all from one tape.  With an ``expansion`` of f at x, only the rows
    of the terms it has not seen are computed; the terms it has seen must
    be the ones it saw.  Empty term lists raise
    :class:`OrderMismatchError`.  A vanishing denominator raises
    :class:`SingularDivisionError` at the first point where it vanishes.
    """
    if len(y1_terms) != len(y2_terms):
        raise UnsupportedBackendError("term lists must have equal length")
    if expansion is None:
        expansion = adomian_expansion(f, x)
    many = isinstance(f, (list, tuple))
    series = expansion if many else [expansion]
    tape = series[0].tape
    seen = tape.known
    terms = [_in_ring(t, x, seen) for t in (y1_terms, y2_terms)]
    try:
        # overflow raises NumericError from the finiteness checks below and
        # in the series arithmetic, so numpy's warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            tape.extend(*terms)
    except SingularDivisionError as exc:
        where = float(np.ravel(x)[exc.index])
        raise SingularDivisionError(str(exc), location=where) from None
    # the tape's buffer is not handed out
    rows = [s.coeffs.copy() for s in series]
    # the tape checks float coefficients once per extension; checking
    # Polynomial ones on every operation would slow the exact backend
    if rows[0].dtype == object and len(rows[0]) > seen and not np.isfinite(
            np.concatenate([r.coeffs for block in rows for r in block[seen:]])).all():
        tape.known = seen  # drop the rows just computed
        raise NumericError("non-finite coefficient in an Adomian row")
    return rows if many else rows[0]


def _in_ring(terms, x, seen: int) -> list:
    """The terms, those past ``seen`` (the ones an extension reads) in x's ring.

    At a Polynomial x a number becomes the constant Polynomial, so every
    coefficient on the tape is a Polynomial; at points a term is broadcast
    to their shape, so a number is its value at every point.
    """
    terms = list(terms)
    if isinstance(x, Polynomial):
        for k in range(seen, len(terms)):
            t = terms[k]
            if not isinstance(t, Polynomial):
                if not isinstance(t, Real):
                    raise UsageError(f"term {k} is neither a Polynomial nor a number")
                terms[k] = Polynomial([t])
        return terms
    shape = np.shape(x)
    for k in range(seen, len(terms)):
        if np.shape(terms[k]) != shape:
            try:
                terms[k] = np.broadcast_to(terms[k], shape)
            except ValueError:
                raise UsageError(f"term {k} of shape {np.shape(terms[k])} does not"
                                 f" broadcast to the points' shape {shape}") from None
    return terms


def adomian_polynomial_rows(f: Rhs, y1_terms: list[Polynomial],
                            y2_terms: list[Polynomial], expansion=None):
    """Rows A_0..A_n as exact polynomials in x (polynomial f only).

    A list of Polynomials, or for a sequence of expressions one such list
    per f.  A number term is the constant Polynomial.
    """
    rows = adomian_coefficients(f, Polynomial.identity(), y1_terms, y2_terms, expansion)
    return [list(r) for r in rows] if isinstance(f, (list, tuple)) else list(rows)
