"""Polynomials and Chebyshev grid functions.

These are the two term representations used by the solver backends: exact
monomial-coefficient polynomials, and values on a Chebyshev-Lobatto grid
with barycentric interpolation and spectral differentiation.  Both are
called on points, added with ``+`` and differentiated with ``derivative()``,
so the solver and the analysis treat them alike.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import UsageError


class Polynomial:
    """Polynomial with monomial coefficients ``p0..pd`` in x (ascending)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=float))
        # trim exact trailing zeros; the zero polynomial keeps one coefficient
        nz = np.nonzero(c)[0]
        self.coeffs = c[: nz[-1] + 1] if nz.size else np.zeros(1)

    @classmethod
    def zero(cls):
        return cls([0.0])

    @classmethod
    def identity(cls):
        return cls([0.0, 1.0])

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, x):
        return npoly.polyval(x, self.coeffs)

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial.zero()
        return Polynomial(npoly.polyder(self.coeffs))

    def __neg__(self):
        return Polynomial(-self.coeffs)

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if np.isscalar(other):
            return Polynomial([float(other)])
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial(npoly.polyadd(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial(npoly.polysub(self.coeffs, other.coeffs))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial(npoly.polymul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __repr__(self):
        return f"Polynomial({self.coeffs.tolist()})"


def chebyshev_lobatto(n: int) -> np.ndarray:
    """``n+1`` Chebyshev-Lobatto nodes mapped to [0, 1], ascending."""
    if n < 1:
        raise UsageError("grid needs at least two nodes")
    k = np.arange(n + 1)
    return 0.5 * (1.0 - np.cos(np.pi * k / n))


@functools.lru_cache(maxsize=None)
def chebyshev_coefficient_matrix(n: int) -> np.ndarray:
    """Map from values on the n-grid to Chebyshev coefficients in 2x - 1.

    The node ``chebyshev_lobatto(n)[k]`` is ``t = cos(pi (n - k) / n)``, so
    the discrete cosine transform of the values gives the coefficients.
    """
    j = np.arange(n + 1)
    basis = np.cos(np.pi * np.outer(j, n - j) / n)  # T_j at node k
    w = np.ones(n + 1)
    w[[0, -1]] = 0.5
    out = (2.0 / n) * w[:, None] * basis * w[None, :]
    out.flags.writeable = False
    return out


def _lobatto_weights(n: int) -> np.ndarray:
    w = (-1.0) ** np.arange(n + 1)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


_diff_cache: dict[int, np.ndarray] = {}


class GridFunction:
    """Function values on a Chebyshev-Lobatto grid on [0, 1].

    Evaluation between nodes uses the barycentric interpolation formula;
    differentiation uses the spectral differentiation matrix built from the
    same barycentric weights.
    """

    __slots__ = ("nodes", "values", "weights")

    def __init__(self, nodes: np.ndarray, values, weights=None):
        self.nodes = np.asarray(nodes, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.nodes.shape != self.values.shape:
            raise UsageError("nodes and values must have equal length")
        n = self.nodes.size - 1
        self.weights = _lobatto_weights(n) if weights is None else weights

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xs = np.atleast_1d(x)
        diff = xs[:, None] - self.nodes[None, :]
        out = np.empty(xs.size)
        exact_i, exact_j = np.nonzero(diff == 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = self.weights / diff
            out = (terms @ self.values) / terms.sum(axis=1)
        out[exact_i] = self.values[exact_j]
        return float(out[0]) if scalar else out

    def diff_matrix(self) -> np.ndarray:
        n = self.nodes.size - 1
        d = _diff_cache.get(n)
        if d is None:
            x, w = self.nodes, self.weights
            dx = x[:, None] - x[None, :]
            np.fill_diagonal(dx, 1.0)
            d = (w[None, :] / w[:, None]) / dx
            np.fill_diagonal(d, 0.0)
            np.fill_diagonal(d, -d.sum(axis=1))
            _diff_cache[n] = d
        return d

    def __add__(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(self.nodes, self.values + other.values, self.weights)

    def derivative(self) -> "GridFunction":
        return GridFunction(self.nodes, self.diff_matrix() @ self.values, self.weights)
