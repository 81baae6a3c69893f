"""Adomian polynomial generation.

The rows A_0..A_n of a nonlinearity f are the Taylor coefficients of
``f(x, sum_j y1_j lam^j, sum_j y2_j lam^j)`` in lam, so row n equals
(1/n!) d^n/dlam^n at lam = 0.  Computing them through truncated-series
arithmetic is definitionally exact at the truncation order and needs no
per-nonlinearity derivation.

One expansion serves every coefficient ring of :class:`TruncatedSeries`:
one point x (float rows), an array of points (the rows at all of them in
one call, as the grid backend and the residual search use), or
``x = Polynomial.identity()`` with polynomial terms (rows as exact
polynomials in x, for the exact backend; polynomial f only).

A solve needs row j at step j, from the terms 0..j.  Expanding afresh at
each step would redo rows 0..j-1 every time, O(n^3) row work in all.  The
solver instead keeps a running expansion of each nonlinearity
(:func:`adomian_expansion`, built once per point set) and passes it to
every call; a call then computes only the rows of the terms the expansion
has not seen, each coefficient once, so a solve's row work is O(n^2).  The
rows are bitwise those of the one-shot expansion.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, SingularDivisionError, UnsupportedBackendError
from .expr import Expression, eval_series, expand_series
from .grids import Polynomial
from .series import RunningSeries, SeriesTape, TruncatedSeries


def adomian_expansion(f: Expression, x) -> RunningSeries:
    """The running expansion of f at x, for the ``expansion`` argument below.

    ``x`` is what the calls it serves pass: the array of points, or
    ``Polynomial.identity()`` for :func:`adomian_polynomial_rows`.
    """
    y1, y2 = SeriesTape(2).variables
    # the parts of f in x alone are computed here; one that overflows makes
    # a non-finite coefficient, which raises NumericError in the first call
    with np.errstate(over="ignore", invalid="ignore"):
        return expand_series(f, x, y1, y2)


def adomian_coefficients(f: Expression, x, y1_terms, y2_terms,
                         expansion: RunningSeries | None = None) -> np.ndarray:
    """Rows A_0..A_n of f at x from the component term values so far.

    ``x`` is one point or an array of points; each term is then a value or
    an array of values at them, and the rows have shape ``(n+1,)`` or
    ``(n+1, len(x))``.  With an ``expansion`` of f at x, only the rows of
    the terms it has not seen are computed; the terms it has seen must be
    the ones it saw.  A vanishing denominator raises
    :class:`SingularDivisionError` at the first point where it vanishes.
    """
    if len(y1_terms) != len(y2_terms):
        raise UnsupportedBackendError("term lists must have equal length")
    seen = 0 if expansion is None else expansion.order + 1
    try:
        # overflow raises NumericError from the finiteness checks below and
        # in the series arithmetic, so numpy's warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            if expansion is None:
                rows = eval_series(f, x, TruncatedSeries(y1_terms),
                                   TruncatedSeries(y2_terms)).coeffs
            else:
                expansion.tape.extend(y1_terms, y2_terms)
                rows = np.array(expansion.coeffs)
    except SingularDivisionError as exc:
        where = float(np.ravel(x)[exc.index])
        raise SingularDivisionError(str(exc), location=where) from None
    # series arithmetic checks float coefficients as it goes; checking
    # Polynomial ones on every operation would slow the exact backend
    if rows.dtype == object and not all(np.all(np.isfinite(r.coeffs))
                                        for r in rows[seen:]):
        if expansion is not None:
            expansion.tape.cut(seen - 1)
        raise NumericError("non-finite coefficient in an Adomian row")
    return rows


def adomian_polynomial_rows(
    f: Expression, y1_terms: list[Polynomial], y2_terms: list[Polynomial],
    expansion: RunningSeries | None = None,
) -> list[Polynomial]:
    """Rows A_0..A_n as exact polynomials in x (polynomial f only)."""
    return list(adomian_coefficients(f, Polynomial.identity(), y1_terms, y2_terms,
                                     expansion))
