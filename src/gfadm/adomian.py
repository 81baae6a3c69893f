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
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, SingularDivisionError, UnsupportedBackendError
from .expr import Expression, eval_series
from .grids import Polynomial
from .series import TruncatedSeries


def adomian_coefficients(f: Expression, x, y1_terms, y2_terms) -> np.ndarray:
    """Rows A_0..A_n of f at x from the component term values so far.

    ``x`` is one point or an array of points; each term is then a value or
    an array of values at them, and the rows have shape ``(n+1,)`` or
    ``(n+1, len(x))``.  A vanishing denominator raises
    :class:`SingularDivisionError` at the first point where it vanishes.
    """
    if len(y1_terms) != len(y2_terms):
        raise UnsupportedBackendError("term lists must have equal length")
    y1 = TruncatedSeries(y1_terms)
    y2 = TruncatedSeries(y2_terms)
    try:
        # overflow raises NumericError from the finiteness checks below and
        # in the series arithmetic, so numpy's warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            rows = eval_series(f, x, y1, y2).coeffs
    except SingularDivisionError as exc:
        where = float(np.ravel(x)[exc.index])
        raise SingularDivisionError(str(exc), location=where) from None
    # series arithmetic checks float coefficients as it goes; checking
    # Polynomial ones on every operation would slow the exact backend
    if rows.dtype == object and not all(np.all(np.isfinite(r.coeffs)) for r in rows):
        raise NumericError("non-finite coefficient in an Adomian row")
    return rows


def adomian_polynomial_rows(
    f: Expression, y1_terms: list[Polynomial], y2_terms: list[Polynomial]
) -> list[Polynomial]:
    """Rows A_0..A_n as exact polynomials in x (polynomial f only)."""
    return list(adomian_coefficients(f, Polynomial.identity(), y1_terms, y2_terms))
