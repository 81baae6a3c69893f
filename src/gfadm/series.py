"""Truncated power-series arithmetic in a formal parameter over any ring.

A :class:`SeriesTape` records arithmetic on :class:`RunningSeries`, the
series ``sum c_k lam^k`` known up to the tape's order, and then extends
every recorded series by a block of orders at once.  The coefficients are
stacked along axis 0, and their ring is whatever they are: floats (one
point), values at a set of points (every operation acting on all points
at once) or :class:`Polynomial` objects in x (an object array).

A one-shot expansion is a fresh tape extended once, by the block of all
its orders (:meth:`SeriesTape.extend_once`, which frees each block after
its last reader, as eager arithmetic would); a running expansion is a kept
tape extended as new terms come, a block of one order per step.  Each
operation has one rule for a block of orders, so coefficient k is bitwise
the same however the orders were split into blocks.

A series refers to its tape and, through its rule, to its operands; the
tape refers to its series only weakly, and lets go of its inputs when
first extended.  So nothing refers back: a series is computed while it is
held from outside or read by one that is, and an expansion is freed as
soon as its holder lets go of it, without waiting for the cyclic
collector.

Series combine only when they are on the same tape.  Anything that is
not a series (a number, an array of point values, a Polynomial) acts as
an element of the coefficient ring: it scales a series, or shifts its
coefficient 0, without being expanded into a constant series.
"""

from __future__ import annotations

import weakref

import numpy as np

from .errors import (
    NumericError,
    OrderMismatchError,
    SingularDivisionError,
    UnsupportedBackendError,
)

_DIV_TOL = 1e-14


class SeriesTape:
    """Series operations recorded once, then extended by blocks of orders.

    ``variables`` are the input series.  Arithmetic on them, and on its
    results, records a :class:`RunningSeries` per operation instead of
    computing it; :meth:`extend` then appends the next coefficients of
    every input and computes the same block of coefficients of every
    recorded series, in the order they were recorded.  A product then
    costs k + 1 terms at order k however the tape is extended, O(n^2) up
    to order n, where expanding afresh at each order 0..n costs O(n^3).
    Record every operation before the first :meth:`extend`.

    ``series`` holds weak references, in the order recorded, and
    ``variables`` holds the inputs only until the first extension: from
    then on a series nobody holds or reads is not computed.
    """

    def __init__(self, count: int):
        self.series = []
        self.known = 0
        self.variables = [RunningSeries(self, None) for _ in range(count)]
        self._inputs = [weakref.ref(v) for v in self.variables]

    @property
    def order(self) -> int:
        return self.known - 1

    def extend(self, *terms) -> None:
        """Extend to the order of ``terms``, one term list per variable.

        Only the terms past the current order are read; the first block
        may be kept as a view of them.  Fewer terms than the tape has seen
        raise.  If a coefficient raises, every series is cut back to the
        order it had.
        """
        self._extend(terms, self.series, keep=True)

    def extend_once(self, *terms) -> None:
        """:meth:`extend` a fresh tape for the only time, as a one-shot does.

        Each series lets go of its rule, and with it of its operands, once
        it has run, so a block lives only until the last series that reads
        it has run; only series held from outside keep their coefficients.
        The tape cannot be extended again.
        """
        series, self.series = self.series, []
        self._extend(terms, series, keep=False)

    def _extend(self, terms, series: list, keep: bool) -> None:
        lo, hi = self.known, len(terms[0])
        if hi < max(lo, 1):
            raise OrderMismatchError(f"{hi} terms given, at least {max(lo, 1)} needed")
        if hi == lo:
            return
        self.variables = []  # an input is kept by its readers and holders
        try:
            for ref, t in zip(self._inputs, terms):
                v = ref()
                if v is None:
                    continue
                if lo:
                    v._store(lo, hi, t[_at(lo, hi)])
                else:
                    block = np.asarray(t[:hi])
                    v._store(0, hi, block if block.dtype == object
                             else block.astype(float, copy=False))
            for ref in series:
                s = ref()
                if s is None:
                    continue
                block = s.rule(lo, hi)
                if getattr(block, "dtype", object) != object \
                        and not np.isfinite(block).all():
                    raise NumericError("non-finite coefficient in series arithmetic")
                s._store(lo, hi, block)
                if not keep:
                    s.rule = None
            self.known = hi
        except BaseException:
            self.cut(lo - 1)
            raise

    def cut(self, order: int) -> None:
        """Drop every coefficient past ``order``."""
        self.known = min(self.known, order + 1)
        for ref in self._inputs + self.series:
            s = ref()
            if s is not None:
                s.known = min(s.known, order + 1)


class RunningSeries:
    """A series on a :class:`SeriesTape`, known up to the tape's order.

    ``rule(lo, hi)`` returns the coefficients ``lo..hi-1`` from those of
    the operands, as :meth:`_block` gives them: stacked, or, for one order
    past the first, the coefficient itself.  Sums, negation, scaling and
    shifts act on the whole block; a product adds ``a_i b_{k-i}`` in i
    order and a quotient takes the forward-substitution step order by
    order, so a coefficient does not depend on how the orders were split.
    The coefficients live in a buffer that grows by doubling.
    """

    __slots__ = ("tape", "rule", "buf", "known", "__weakref__")
    __array_ufunc__ = None  # numpy arrays on the left defer to our operators

    def __init__(self, tape: SeriesTape, rule):
        self.tape, self.rule, self.buf, self.known = tape, rule, None, 0
        if rule is not None:
            tape.series.append(weakref.ref(self))

    @property
    def order(self) -> int:
        return self.known - 1

    @property
    def coeffs(self) -> np.ndarray:
        """The known coefficients, a view of the buffer."""
        return self.buf[: self.known]

    def _block(self, lo: int, hi: int):
        """Coefficients ``lo..hi-1``, stacked or, past order 0, one alone."""
        return self.buf[_at(lo, hi)]

    def _store(self, lo: int, hi: int, block) -> None:
        if lo:
            self._room(hi)[_at(lo, hi)] = block
        else:
            self.buf = block  # the rule's block, or a view of the caller's terms
        self.known = hi

    def _room(self, hi: int) -> np.ndarray:
        """The buffer, grown to hold orders below ``hi``.

        A first block kept as a view (of the caller's terms, or of a rule's
        array) is copied before anything is written to it.
        """
        if hi > len(self.buf) or not self.buf.flags.owndata:
            grown = np.empty((max(hi, 2 * len(self.buf)),) + self.buf.shape[1:],
                             self.buf.dtype)
            grown[: self.known] = self.coeffs
            self.buf = grown
        return self.buf

    def _record(self, rule) -> "RunningSeries":
        return RunningSeries(self.tape, rule)

    def _other(self, other: "RunningSeries") -> "RunningSeries":
        if not isinstance(other, RunningSeries) or other.tape is not self.tape:
            raise OrderMismatchError("running series must share one tape")
        return other

    def _shift(self, r) -> "RunningSeries":
        def shift(lo, hi):
            if lo:
                return self._block(lo, hi)
            c = self.buf[:hi].copy()
            c[0] = c[0] + r
            return c

        return self._record(shift)

    def __neg__(self) -> "RunningSeries":
        return self._record(lambda lo, hi: -self._block(lo, hi))

    def __add__(self, other) -> "RunningSeries":
        if not isinstance(other, RunningSeries):
            return self._shift(other)
        b = self._other(other)
        return self._record(lambda lo, hi: self._block(lo, hi) + b._block(lo, hi))

    __radd__ = __add__

    def __sub__(self, other) -> "RunningSeries":
        if not isinstance(other, RunningSeries):
            return self._shift(-other)
        b = self._other(other)
        return self._record(lambda lo, hi: self._block(lo, hi) - b._block(lo, hi))

    def __rsub__(self, other) -> "RunningSeries":
        return (-self)._shift(other)

    def __mul__(self, other) -> "RunningSeries":
        """Truncated Cauchy product ``c_k = sum_i a_i b_{k-i}``, or scaling."""
        if not isinstance(other, RunningSeries):
            return self._record(lambda lo, hi: self._block(lo, hi) * other)
        b = self._other(other)

        def product(lo, hi):
            a, bb = self.buf, b.buf
            if lo and hi - lo == 1:  # one order past 0, as _at places it
                c = a[0] * bb[lo]
                for i in range(1, hi):
                    c = c + a[i] * bb[lo - i]
                return c
            c = a[0] * bb[lo:hi]
            for i in range(1, hi):
                if i > lo:  # a_i meets the orders from i on
                    c[i - lo :] += a[i] * bb[: hi - i]
                else:
                    c += a[i] * bb[lo - i : hi - i]
            return c

        return self._record(product)

    __rmul__ = __mul__

    def __truediv__(self, other: "RunningSeries") -> "RunningSeries":
        """Quotient q with ``q * other == self`` up to the common order.

        Raises :class:`SingularDivisionError` when the divisor's constant
        term vanishes; with point-valued coefficients its ``index`` is the
        first such point.  Polynomial coefficients cannot be divided.
        """
        b = self._other(other)

        def quotient(lo, hi):
            a, bb = self.buf, b.buf
            if lo:
                q = me()._room(hi)
            else:
                if object in (a.dtype, bb.dtype):
                    # Polynomial coefficients come only from the exact backend
                    raise UnsupportedBackendError(
                        "exact backend requires polynomial nonlinearities")
                _check_divisor(bb[0])
                q = np.empty_like(a[:hi])
                q[0] = a[0] / bb[0]
            # forward substitution, filled in place; orders here are small
            for k in range(max(lo, 1), hi):
                q[k] = (a[k] - np.sum(bb[1 : k + 1] * q[k - 1 :: -1], axis=0)) / bb[0]
            return q[_at(lo, hi)]

        out = self._record(quotient)
        me = weakref.ref(out)  # the rule fills its own series without keeping it
        return out


def _at(lo: int, hi: int):
    """Where orders lo..hi-1 sit in a buffer: lo alone for one order past 0.

    A step of the solver adds one order; acting on the coefficient itself
    spares it the cost of one-row blocks (of Polynomials above all).  Order
    0 is always stacked, as it starts the buffer.
    """
    return lo if lo and hi - lo == 1 else slice(lo, hi)


def _check_divisor(b0) -> None:
    """Raise at the first point where a divisor's constant term vanishes."""
    bad = np.flatnonzero(np.abs(b0) <= _DIV_TOL)
    if bad.size:
        raise SingularDivisionError(
            "division by a series with zero constant term", index=int(bad[0])
        )
