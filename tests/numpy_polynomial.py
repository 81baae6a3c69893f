"""Polynomial's operators as ``numpy.polynomial.polynomial`` computes them.

``gfadm.grids.Polynomial`` does its arithmetic on plain coefficient arrays.
These are its operators written with ``polyadd``, ``polysub``, ``polymul``,
``polyval`` and ``polyder`` followed by the constructor's trim, the slow
path the tests require it to match bitwise.  ``OPERATORS`` maps each
attribute name of ``Polynomial`` to its slow version, so a test can call
one directly or patch them all into the class.
"""

import numpy as np
from numpy.polynomial import polynomial as npoly

from gfadm.grids import Polynomial


def trim(coeffs) -> np.ndarray:
    """Coefficients without exact trailing zeros; the zero polynomial is [+0.0]."""
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    nz = np.nonzero(c)[0]
    return c[: nz[-1] + 1] if nz.size else np.zeros(1)


def _poly(coeffs) -> Polynomial:
    p = object.__new__(Polynomial)
    p.coeffs = trim(coeffs)
    return p


def _init(self, coeffs):
    self.coeffs = trim(coeffs)


def _binary(f):
    def op(self, other):
        if isinstance(other, Polynomial):
            b = other.coeffs
        elif np.isscalar(other):
            b = trim([float(other)])  # a number is the constant polynomial
        else:
            return NotImplemented
        return _poly(f(self.coeffs, b))
    return op


def _neg(self):
    return _poly(-self.coeffs)


def _derivative(self):
    return _poly([0.0]) if self.degree == 0 else _poly(npoly.polyder(self.coeffs))


_add = _binary(npoly.polyadd)
_mul = _binary(npoly.polymul)

OPERATORS = {
    "__init__": _init,
    "__add__": _add,
    "__radd__": _add,
    "__sub__": _binary(npoly.polysub),
    "__rsub__": lambda self, other: _add(_neg(self), other),
    "__mul__": _mul,
    "__rmul__": _mul,
    "__neg__": _neg,
    "__call__": lambda self, x: npoly.polyval(x, self.coeffs),
    "derivative": _derivative,
}
