"""Truncated power-series arithmetic in a formal parameter over any ring.

A :class:`TruncatedSeries` holds the coefficients ``c0..cN`` of a series
``sum c_k lam^k`` truncated (inclusively) at order ``N``, stacked along
axis 0.  The coefficient ring is whatever the coefficients are: floats
(shape ``(N+1,)``), values at a set of points (shape ``(N+1, n_points)``,
every operation acting on all points at once) or :class:`Polynomial`
objects in x (an object array of shape ``(N+1,)``).

Two series combine only when they carry the same order; a mismatch is a
hard error rather than an implicit broadcast.  Anything that is not a
series (a number, an array of point values, a Polynomial) acts as an
element of the coefficient ring: it scales a series, or shifts its
coefficient 0, without being expanded into a constant series.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    NumericError,
    OrderMismatchError,
    SingularDivisionError,
    UnsupportedBackendError,
)

_DIV_TOL = 1e-14


class TruncatedSeries:
    """Coefficients of a power series truncated at a fixed order."""

    __slots__ = ("coeffs",)
    __array_ufunc__ = None  # numpy arrays on the left defer to our operators

    def __init__(self, coeffs):
        c = np.asarray(coeffs)
        if c.dtype != object:
            c = c.astype(float, copy=False)
        if c.ndim == 0 or c.shape[0] == 0:
            raise OrderMismatchError("series needs a non-empty coefficient list")
        self.coeffs = c

    @classmethod
    def constant(cls, value, order: int) -> "TruncatedSeries":
        """The series ``value + 0 lam + ... + 0 lam^order`` over value's ring."""
        return cls([value] + [0.0 * value] * order)

    @property
    def order(self) -> int:
        return self.coeffs.shape[0] - 1

    def __len__(self) -> int:
        return self.coeffs.shape[0]

    def __getitem__(self, k: int):
        return self.coeffs[k]

    def __repr__(self):
        return f"TruncatedSeries({self.coeffs.tolist()})"

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.order == other.order
            and bool(np.array_equal(self.coeffs, other.coeffs))
        )

    def _check(self, other: "TruncatedSeries") -> None:
        if not isinstance(other, TruncatedSeries):
            raise OrderMismatchError(f"expected TruncatedSeries, got {type(other).__name__}")
        if other.order != self.order:
            raise OrderMismatchError(
                f"order mismatch: {self.order} vs {other.order}"
            )

    def _shift(self, r) -> "TruncatedSeries":
        c = self.coeffs.copy()
        c[0] = c[0] + r
        return _finite(TruncatedSeries(c))

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(-self.coeffs)

    def __add__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return self._shift(other)
        self._check(other)
        return _finite(TruncatedSeries(self.coeffs + other.coeffs))

    __radd__ = __add__

    def __sub__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return self._shift(-other)
        self._check(other)
        return _finite(TruncatedSeries(self.coeffs - other.coeffs))

    def __rsub__(self, other) -> "TruncatedSeries":
        return (-self)._shift(other)

    def __mul__(self, other) -> "TruncatedSeries":
        """Truncated Cauchy product ``c_k = sum_i a_i b_{k-i}``, or scaling."""
        if not isinstance(other, TruncatedSeries):
            return _finite(TruncatedSeries(self.coeffs * other))
        self._check(other)
        a, b = self.coeffs, other.coeffs
        c = a[0] * b
        for i in range(1, a.shape[0]):
            c[i:] += a[i] * b[:-i]
        return _finite(TruncatedSeries(c))

    __rmul__ = __mul__

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Quotient q with ``q * other == self`` up to the common order.

        Raises :class:`SingularDivisionError` when the divisor's constant
        term vanishes; with point-valued coefficients its ``index`` is the
        first such point.  Polynomial coefficients cannot be divided.
        """
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if object in (a.dtype, b.dtype):
            # Polynomial coefficients come only from the exact backend
            raise UnsupportedBackendError("exact backend requires polynomial nonlinearities")
        bad = np.flatnonzero(np.abs(b[0]) <= _DIV_TOL)
        if bad.size:
            raise SingularDivisionError(
                "division by a series with zero constant term", index=int(bad[0])
            )
        # Long division by forward substitution; orders here are small.
        q = np.empty_like(a)
        q[0] = a[0] / b[0]
        for k in range(1, q.shape[0]):
            q[k] = (a[k] - np.sum(b[1 : k + 1] * q[k - 1 :: -1], axis=0)) / b[0]
        return _finite(TruncatedSeries(q))

    def __pow__(self, p: int) -> "TruncatedSeries":
        if not isinstance(p, (int, np.integer)) or p < 0:
            raise OrderMismatchError("series power wants a non-negative integer")
        out = self * 0.0 + 1.0
        for _ in range(int(p)):
            out = out * self
        return out


def _finite(s: TruncatedSeries) -> TruncatedSeries:
    if s.coeffs.dtype != object and not np.all(np.isfinite(s.coeffs)):
        raise NumericError("non-finite coefficient in series arithmetic")
    return s
