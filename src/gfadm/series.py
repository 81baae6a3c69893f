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

A :class:`SeriesTape` records the same arithmetic on :class:`RunningSeries`
once and then extends it one order at a time, each coefficient bitwise the
one :class:`TruncatedSeries` gives.
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
        _check_divisor(b[0])
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


def _check_divisor(b0) -> None:
    """Raise at the first point where a divisor's constant term vanishes."""
    bad = np.flatnonzero(np.abs(b0) <= _DIV_TOL)
    if bad.size:
        raise SingularDivisionError(
            "division by a series with zero constant term", index=int(bad[0])
        )


def _finite(s: TruncatedSeries) -> TruncatedSeries:
    if s.coeffs.dtype != object and not np.all(np.isfinite(s.coeffs)):
        raise NumericError("non-finite coefficient in series arithmetic")
    return s


class SeriesTape:
    """Series operations recorded once, then extended one order at a time.

    ``variables`` are the input series.  Arithmetic on them, and on its
    results, records a :class:`RunningSeries` per operation instead of
    computing it; :meth:`extend` then appends the next coefficient of every
    input and computes that one coefficient of every recorded series, in
    the order they were recorded.  A product then costs k + 1 terms at
    order k, O(n^2) up to order n, where re-expanding a
    :class:`TruncatedSeries` at each order 0..n costs O(n^3).
    """

    def __init__(self, count: int):
        self.series = []
        self.variables = [RunningSeries(self, None) for _ in range(count)]

    @property
    def order(self) -> int:
        return self.variables[0].order

    def extend(self, *terms) -> None:
        """Extend to the order of ``terms``, one term list per variable.

        Only the terms past the current order are read.  If a coefficient
        raises, every series is cut back to the order it had.
        """
        seen = self.order + 1
        if len(terms[0]) <= seen:
            return
        # converted as TruncatedSeries converts them: floats, or objects
        new = [TruncatedSeries(t[seen:]).coeffs for t in terms]
        try:
            for k in range(seen, len(terms[0])):
                for v, c in zip(self.variables, new):
                    v.coeffs.append(c[k - seen])
                for s in self.series:
                    c = s.rule(k)
                    if _is_float(c) and not np.all(np.isfinite(c)):
                        raise NumericError("non-finite coefficient in series arithmetic")
                    s.coeffs.append(c)
        except BaseException:
            self.cut(seen - 1)
            raise

    def cut(self, order: int) -> None:
        """Drop every coefficient past ``order``."""
        for s in self.variables + self.series:
            del s.coeffs[order + 1 :]


class RunningSeries:
    """A series on a :class:`SeriesTape`, known up to the tape's order.

    Its coefficient k is bitwise coefficient k of the same operations on
    :class:`TruncatedSeries` at any order from k on: sums, negation,
    scaling and shifts act on one coefficient, a product sums
    ``a_i b_{k-i}`` in i order as :meth:`TruncatedSeries.__mul__` does,
    and a quotient takes the forward-substitution step of
    :meth:`TruncatedSeries.__truediv__`.  Anything that is not a running
    series acts as an element of the coefficient ring, as there.
    """

    __slots__ = ("tape", "rule", "coeffs")
    __array_ufunc__ = None  # numpy arrays on the left defer to our operators

    def __init__(self, tape: SeriesTape, rule):
        self.tape, self.rule, self.coeffs = tape, rule, []
        if rule is not None:
            tape.series.append(self)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def _other(self, other: "RunningSeries") -> list:
        if not isinstance(other, RunningSeries) or other.tape is not self.tape:
            raise OrderMismatchError("running series must share one tape")
        return other.coeffs

    def _shift(self, r) -> "RunningSeries":
        a = self.coeffs
        return RunningSeries(self.tape, lambda k: a[0] + r if k == 0 else a[k])

    def __neg__(self) -> "RunningSeries":
        a = self.coeffs
        return RunningSeries(self.tape, lambda k: -a[k])

    def __add__(self, other) -> "RunningSeries":
        if not isinstance(other, RunningSeries):
            return self._shift(other)
        a, b = self.coeffs, self._other(other)
        return RunningSeries(self.tape, lambda k: a[k] + b[k])

    __radd__ = __add__

    def __sub__(self, other) -> "RunningSeries":
        if not isinstance(other, RunningSeries):
            return self._shift(-other)
        a, b = self.coeffs, self._other(other)
        return RunningSeries(self.tape, lambda k: a[k] - b[k])

    def __rsub__(self, other) -> "RunningSeries":
        return (-self)._shift(other)

    def __mul__(self, other) -> "RunningSeries":
        a = self.coeffs
        if not isinstance(other, RunningSeries):
            return RunningSeries(self.tape, lambda k: a[k] * other)
        b = self._other(other)

        def product(k):
            c = a[0] * b[k]
            for i in range(1, k + 1):
                c = c + a[i] * b[k - i]
            return c

        return RunningSeries(self.tape, product)

    __rmul__ = __mul__

    def __truediv__(self, other: "RunningSeries") -> "RunningSeries":
        a, b = self.coeffs, self._other(other)

        def quotient(k):
            if k == 0:
                if not (_is_float(a[0]) and _is_float(b[0])):
                    raise UnsupportedBackendError(
                        "exact backend requires polynomial nonlinearities")
                _check_divisor(b[0])
                return a[0] / b[0]
            # stacked as TruncatedSeries stacks them, so np.sum adds alike
            tail = np.array(b[1 : k + 1]) * np.array(q[k - 1 :: -1])
            return (a[k] - np.sum(tail, axis=0)) / b[0]

        out = RunningSeries(self.tape, quotient)
        q = out.coeffs
        return out


def _is_float(c) -> bool:
    """Whether a coefficient is a float or an array of floats (not a Polynomial)."""
    return isinstance(c, (np.ndarray, np.floating))
