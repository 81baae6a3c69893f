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

Every call extends an expansion to the terms it is given.  Without one, a
call records a fresh expansion and extends it once, by all the rows.  A
solve needs row j at step j, from the terms 0..j; the solver keeps one
expansion of each nonlinearity and passes it to every call, which then
computes only the row of the new term, each coefficient once, so a
solve's row work is O(n^2) instead of O(n^3).  The rows are bitwise the
same either way.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, SingularDivisionError, UnsupportedBackendError
from .expr import Expression, eval_series
from .grids import Polynomial
from .series import RunningSeries, SeriesTape


def adomian_expansion(f: Expression, x) -> RunningSeries:
    """The expansion of f at x, for the ``expansion`` argument below.

    ``x`` is what the calls it serves pass: a point, the array of points,
    or ``Polynomial.identity()`` for :func:`adomian_polynomial_rows`.
    """
    y1, y2 = SeriesTape(2).variables
    # the parts of f in x alone are computed here; one that overflows makes
    # a non-finite coefficient, which raises NumericError in the first call
    with np.errstate(over="ignore", invalid="ignore"):
        return eval_series(f, x, y1, y2)


def adomian_coefficients(f: Expression, x, y1_terms, y2_terms,
                         expansion: RunningSeries | None = None) -> np.ndarray:
    """Rows A_0..A_n of f at x from the component term values so far.

    ``x`` is one point or an array of points; each term is then a value or
    an array of values at them, and the rows have shape ``(n+1,)`` or
    ``(n+1, len(x))``.  With an ``expansion`` of f at x, only the rows of
    the terms it has not seen are computed; the terms it has seen must be
    the ones it saw.  Empty term lists raise :class:`OrderMismatchError`.
    A vanishing denominator raises :class:`SingularDivisionError` at the
    first point where it vanishes.
    """
    if len(y1_terms) != len(y2_terms):
        raise UnsupportedBackendError("term lists must have equal length")
    fresh = expansion is None
    if fresh:
        expansion = adomian_expansion(f, x)
    seen = expansion.order + 1
    try:
        # overflow raises NumericError from the finiteness checks below and
        # in the series arithmetic, so numpy's warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            expansion.tape.extend(y1_terms, y2_terms)
    except SingularDivisionError as exc:
        where = float(np.ravel(x)[exc.index])
        raise SingularDivisionError(str(exc), location=where) from None
    # a kept expansion's buffer is not handed out
    rows = expansion.coeffs if fresh else expansion.coeffs.copy()
    # series arithmetic checks float coefficients as it goes; checking
    # Polynomial ones on every operation would slow the exact backend
    if rows.dtype == object and not all(np.all(np.isfinite(r.coeffs))
                                        for r in rows[seen:]):
        expansion.tape.known = seen  # drop the rows just computed
        raise NumericError("non-finite coefficient in an Adomian row")
    return rows


def adomian_polynomial_rows(
    f: Expression, y1_terms: list[Polynomial], y2_terms: list[Polynomial],
    expansion: RunningSeries | None = None,
) -> list[Polynomial]:
    """Rows A_0..A_n as exact polynomials in x (polynomial f only)."""
    return list(adomian_coefficients(f, Polynomial.identity(), y1_terms, y2_terms,
                                     expansion))
