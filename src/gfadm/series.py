"""Truncated power-series arithmetic in a formal parameter over any ring.

A :class:`SeriesTape` records arithmetic on :class:`RunningSeries`, the
series ``sum c_k lam^k`` known up to the tape's order, and then extends
every recorded series by a block of orders at once.  The coefficients are
stacked along axis 0, and their ring is whatever they are: floats (one
point), values at a set of points (every operation acting on all points
at once) or :class:`Polynomial` objects in x (an object array).

A one-shot expansion is a fresh tape extended once, by the block of all
its orders; a running expansion is a kept tape extended as new terms come,
a block of one order per step.  Each operation has one rule for a block of
orders, so coefficient k is bitwise the same however the orders were split
into blocks.

The tape owns the rule of every series on it, by index, and the
coefficients of all of them in one buffer, series by order by ring, so an
extension checks every new float coefficient once, the hidden
intermediates (``1/inf = 0``) included.  A :class:`RunningSeries` is a
handle, its tape and index, and a rule reads its operands by index.
Nothing on the tape refers back to a handle or to the tape, so an
expansion is freed with its last handle.  The solver records both
nonlinearities of a problem on one tape (11 series for catalytic, y1 and
y2 included, where a tape per component held 14) and extends it once per
step.

Series combine only when they are on the same tape.  Anything that is
not a series (a number, an array of point values, a Polynomial) acts as
an element of the coefficient ring: it scales a series, or shifts its
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


class SeriesTape:
    """Series operations recorded once, then extended by blocks of orders.

    Series i has the rule ``rules[i]`` (None for an input).  The
    coefficients of every series sit in one buffer, ``buf[i, k]`` the
    coefficient k of series i, grown by doubling along the orders; all are
    known to orders below ``known``.  Arithmetic on the :attr:`variables`,
    and on its results, records a rule per operation; :meth:`extend` then
    appends the next coefficients of every input and computes the same
    block of every recorded series, in the order recorded.  A product then
    costs k + 1 terms at order k however the tape is extended, O(n^2) up to
    order n, where expanding afresh at each order 0..n costs O(n^3).
    Record every operation before the first :meth:`extend`.
    """

    def __init__(self, count: int):
        self.inputs = count
        self.rules = [None] * count
        self.buf = None
        self.known = 0

    @property
    def variables(self) -> list[RunningSeries]:
        """Handles on the inputs, the series without a rule."""
        return [RunningSeries(self, i) for i in range(self.inputs)]

    def record(self, rule) -> RunningSeries:
        """A new series, whose coefficients ``rule(tape, lo, hi)`` computes."""
        self.rules.append(rule)
        return RunningSeries(self, len(self.rules) - 1)

    def block(self, i: int, lo: int, hi: int):
        """Orders ``lo..hi-1`` of series i, stacked or, past order 0, one alone."""
        return self.buf[i, _at(lo, hi)]

    def extend(self, *terms) -> None:
        """Extend to the order of ``terms``, one term list per variable.

        Only the terms past the current order are read.  Fewer terms than
        the tape has seen raise.  Float coefficients are checked once per
        extension, those of every recorded series at once, so an
        intermediate overflow that a later division hides (``1/inf = 0``)
        still raises.  ``known`` moves once every coefficient is computed
        and checked, so if one raises, the tape keeps its order.
        """
        lo, hi = self.known, len(terms[0])
        if hi < max(lo, 1):
            raise OrderMismatchError(f"{hi} terms given, at least {max(lo, 1)} needed")
        if hi == lo:
            return
        if lo:
            buf = self._room(hi)
            for i, t in enumerate(terms):
                buf[i, _at(lo, hi)] = t[_at(lo, hi)]
        else:
            first = [np.asarray(t[:hi]) for t in terms]
            kind = object if object in (b.dtype for b in first) else float
            ring = np.broadcast_shapes(*(b.shape[1:] for b in first))
            self.buf = buf = np.empty((len(self.rules), hi) + ring, kind)
            for i, b in enumerate(first):
                buf[i, :hi] = b
        for i in range(self.inputs, len(self.rules)):
            buf[i, _at(lo, hi)] = self.rules[i](self, lo, hi)
        self.check(lo, hi, len(self.rules))
        self.known = hi

    def check(self, lo: int, hi: int, stop: int) -> None:
        """Raise if a recorded series below ``stop`` has a non-finite float in lo..hi-1.

        Polynomial coefficients are not checked here; their rows are
        checked once they are finished (see ``adomian_coefficients``).
        """
        new = self.buf[self.inputs : stop, lo:hi]
        if new.dtype != object and not np.isfinite(new).all():
            raise NumericError("non-finite coefficient in series arithmetic")

    def _room(self, hi: int) -> np.ndarray:
        """The buffer, grown to hold orders below ``hi``."""
        buf = self.buf
        if hi > buf.shape[1]:
            grown = np.empty((len(buf), max(hi, 2 * buf.shape[1])) + buf.shape[2:],
                             buf.dtype)
            grown[:, : self.known] = buf[:, : self.known]
            self.buf = buf = grown
        return buf


class RunningSeries:
    """Series ``index`` of ``tape``, known up to the tape's order.

    An operation records a rule ``rule(tape, lo, hi)`` that returns the
    coefficients ``lo..hi-1`` from its operands' as :meth:`SeriesTape.block`
    gives them: stacked, or, for one order past 0, the coefficient itself.
    Sums, negation, scaling and shifts act on the whole block; a product
    adds ``a_i b_{k-i}`` in i order (for one order, one multiply and one
    sum over axis 0 where numpy sums rows in order) and a quotient takes
    the forward-substitution step order by order, so a coefficient does
    not depend on how the orders were split.
    """

    __slots__ = ("tape", "index", "__weakref__")
    __array_ufunc__ = None  # numpy arrays on the left defer to our operators

    def __init__(self, tape: SeriesTape, index: int):
        self.tape, self.index = tape, index

    @property
    def order(self) -> int:
        return self.tape.known - 1

    @property
    def coeffs(self) -> np.ndarray:
        """The known coefficients, a view of the tape's buffer."""
        return self.tape.buf[self.index, : self.tape.known]

    def _other(self, other: RunningSeries) -> int:
        if not isinstance(other, RunningSeries) or other.tape is not self.tape:
            raise OrderMismatchError("running series must share one tape")
        return other.index

    def _shift(self, r) -> RunningSeries:
        a = self.index

        def shift(tape, lo, hi):
            if lo:
                return tape.block(a, lo, hi)
            c = tape.buf[a, :hi].copy()
            c[0] = c[0] + r
            return c

        return self.tape.record(shift)

    def __neg__(self) -> RunningSeries:
        a = self.index
        return self.tape.record(lambda tape, lo, hi: -tape.block(a, lo, hi))

    def __add__(self, other) -> RunningSeries:
        if not isinstance(other, RunningSeries):
            return self._shift(other)
        a, b = self.index, self._other(other)
        return self.tape.record(
            lambda tape, lo, hi: tape.block(a, lo, hi) + tape.block(b, lo, hi))

    __radd__ = __add__

    def __sub__(self, other) -> RunningSeries:
        if not isinstance(other, RunningSeries):
            return self._shift(-other)
        a, b = self.index, self._other(other)
        return self.tape.record(
            lambda tape, lo, hi: tape.block(a, lo, hi) - tape.block(b, lo, hi))

    def __rsub__(self, other) -> RunningSeries:
        return (-self)._shift(other)

    def __mul__(self, other) -> RunningSeries:
        """Truncated Cauchy product ``c_k = sum_i a_i b_{k-i}``, or scaling."""
        a = self.index
        if not isinstance(other, RunningSeries):
            return self.tape.record(lambda tape, lo, hi: tape.block(a, lo, hi) * other)
        b = self._other(other)

        def product(tape, lo, hi):
            aa, bb = tape.buf[a], tape.buf[b]
            if lo and hi - lo == 1:  # one order past 0, as _at places it
                # numpy sums Polynomials, and values at two or more points,
                # row by row in i order, as the loop does: an object sum
                # from its first row, a float one from -0.0, which adds
                # nothing where numpy's own start, +0.0, would turn a -0.0
                if aa.dtype == object:
                    return np.add.reduce(aa[:hi] * bb[lo::-1], axis=0)
                if aa.size > len(aa):
                    return np.add.reduce(aa[:hi] * bb[lo::-1], axis=0, initial=-0.0)
                # on one point numpy would sum pairwise, so the loop stays
                c = aa[0] * bb[lo]
                for i in range(1, hi):
                    c = c + aa[i] * bb[lo - i]
                return c
            c = aa[0] * bb[lo:hi]
            for i in range(1, hi):
                if i > lo:  # a_i meets the orders from i on
                    c[i - lo :] += aa[i] * bb[: hi - i]
                else:
                    c += aa[i] * bb[lo - i : hi - i]
            return c

        return self.tape.record(product)

    __rmul__ = __mul__

    def __truediv__(self, other: RunningSeries) -> RunningSeries:
        """Quotient q with ``q * other == self`` up to the common order.

        Raises :class:`SingularDivisionError` when the divisor's constant
        term vanishes; with point-valued coefficients its ``index`` is the
        first such point.  Polynomial coefficients cannot be divided.
        """
        a, b, me = self.index, self._other(other), len(self.tape.rules)

        def quotient(tape, lo, hi):
            aa, bb, q = tape.buf[a], tape.buf[b], tape.buf[me]  # q reads its own orders
            if not lo:
                if aa.dtype == object:
                    # Polynomial coefficients come only from the exact backend
                    raise UnsupportedBackendError(
                        "exact backend requires polynomial nonlinearities")
                bad = np.flatnonzero(np.abs(bb[0]) <= _DIV_TOL)
                if bad.size:  # the first point where the divisor vanishes
                    tape.check(lo, hi, me)  # an earlier overflow is reported first
                    raise SingularDivisionError("division by a series with zero"
                                                " constant term", index=int(bad[0]))
                q[0] = aa[0] / bb[0]
            # forward substitution; orders here are small
            for k in range(max(lo, 1), hi):
                q[k] = (aa[k] - np.sum(bb[1 : k + 1] * q[k - 1 :: -1], axis=0)) / bb[0]
            return q[_at(lo, hi)]

        return self.tape.record(quotient)


def _at(lo: int, hi: int):
    """Where orders lo..hi-1 sit in a buffer: lo alone for one order past 0.

    A step of the solver adds one order; acting on the coefficient itself
    spares it the cost of one-row blocks (of Polynomials above all).  Order
    0 is always stacked, as it starts the buffer.
    """
    return lo if lo and hi - lo == 1 else slice(lo, hi)
