"""Polynomials and Chebyshev grid functions.

These are the two term representations used by the solver backends: exact
monomial-coefficient polynomials, and values on a Chebyshev-Lobatto grid
with barycentric interpolation and spectral differentiation.  Both are
called on points, added with ``+`` and differentiated with ``derivative()``,
so the solver and the analysis treat them alike.  :func:`values_at`
evaluates many of them at one set of points: all the polynomials by one
stacked Horner pass, and the grid functions through one barycentric matrix
per grid size, every row bitwise the function's own call.  At the residual
search's fixed point set, :data:`DENSE_POINTS`, that matrix is built once
per grid size and cached.

Polynomial arithmetic runs on plain coefficient arrays, bitwise equal to
``numpy.polynomial.polynomial`` without its per-call conversions and checks.
Every result is built from the fresh float array it computed, only trimmed;
the constructor's conversion is for outside callers.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import UsageError


def _trim(c: np.ndarray) -> np.ndarray:
    """A non-empty coefficient array without its exact trailing zeros.

    A product can also make them by underflow; the zero polynomial keeps
    one coefficient, +0.0.
    """
    if c[-1] != 0.0:
        return c
    nz = np.flatnonzero(c)
    return c[: nz[-1] + 1] if nz.size else np.zeros(1)


class Polynomial:
    """Polynomial with monomial coefficients ``p0..pd`` in x (ascending).

    The arithmetic works on the coefficient arrays directly.  Every result
    is bitwise the one ``numpy.polynomial.polynomial`` gives (``polyadd``,
    ``polysub``, ``polymul``, ``polyval``, ``polyder``) after trimming,
    signed zeros included, without its per-call conversions and checks.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        if c.ndim == 0:
            c = c.reshape(1)
        self.coeffs = _trim(c) if c.size else np.zeros(1)

    @classmethod
    def _of(cls, c: np.ndarray) -> "Polynomial":
        """The polynomial of a fresh non-empty 1-D float array, only trimmed.

        Every arithmetic result is built here: its array is already what
        ``__init__`` would convert it to.
        """
        p = object.__new__(cls)
        p.coeffs = _trim(c)
        return p

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
        # Horner's rule in polyval's order
        if isinstance(x, (tuple, list)):
            x = np.asarray(x)
        c = self.coeffs
        out = c[-1] + x * 0
        for ck in c[-2::-1]:
            out = ck + out * x
        return out

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial.zero()
        return Polynomial._of(self.coeffs[1:] * np.arange(1, self.coeffs.size))

    def __neg__(self):
        return Polynomial._of(-self.coeffs)

    @staticmethod
    def _coeffs_of(other):
        """Coefficients of a Polynomial or number operand, else None."""
        if isinstance(other, Polynomial):
            return other.coeffs
        if np.isscalar(other):
            # as the trimmed constant polynomial: a zero is +0.0
            return np.array([float(other) + 0.0])
        return None

    def __add__(self, other):
        b = self._coeffs_of(other)
        if b is None:
            return NotImplemented
        a = self.coeffs
        if a.size < b.size:
            a, b = b, a
        out = a.copy()
        out[: b.size] += b
        return Polynomial._of(out)

    __radd__ = __add__

    def __sub__(self, other):
        b = self._coeffs_of(other)
        if b is None:
            return NotImplemented
        a = self.coeffs
        if a.size >= b.size:
            out = a.copy()
            out[: b.size] -= b
        else:
            # x - y is x + (-y) bitwise
            out = -b
            out[: a.size] += a
        return Polynomial._of(out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Polynomial._of(np.convolve(self.coeffs, other.coeffs))
        if not np.isscalar(other):
            return NotImplemented
        # convolve adds each product to +0.0, so a -0.0 product gives +0.0
        out = self.coeffs * float(other)
        out += 0.0
        return Polynomial._of(out)

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
def grid_nodes(n: int) -> np.ndarray:
    """The n-grid's nodes, ``chebyshev_lobatto(n)``, as one cached read-only array.

    The solver passes it as its points, so the kernel can tell its own
    nodes by identity (``kernels.kernel_apply``).
    """
    x = chebyshev_lobatto(n)
    x.flags.writeable = False
    return x


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


@functools.lru_cache(maxsize=None)
def _barycentric(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and barycentric weights of the n-grid."""
    w = (-1.0) ** np.arange(n + 1)
    w[[0, -1]] *= 0.5
    w.flags.writeable = False
    return grid_nodes(n), w


@functools.lru_cache(maxsize=None)
def _diff_matrix(n: int) -> np.ndarray:
    """Spectral differentiation matrix of the n-grid."""
    x, w = _barycentric(n)
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    d = (w[None, :] / w[:, None]) / dx
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    d.flags.writeable = False
    return d


_TINY = np.finfo(float).tiny
# the residual search's dense point set: 0, 901 points in [0.001, 0.999] and 1
DENSE_POINTS = np.concatenate(([0.0], np.linspace(0.001, 0.999, 901), [1.0]))
DENSE_POINTS.flags.writeable = False


def _barycentric_matrix(n: int, xs: np.ndarray):
    """The barycentric terms of the n-grid at the points xs, of any shape.

    Returns the terms ``w_j / (x - x_j)``, shape ``xs.shape + (n + 1,)``,
    their sums over the nodes and the indices, point's then node's, where a
    point is a node.  One build serves every function on the n-grid
    evaluated at xs.
    """
    nodes, weights = _barycentric(n)
    # one temporary, divided in place: on the residual search's 903 points
    # it is a fresh page-faulted allocation, so it is built once per point set
    terms = xs[..., None] - nodes
    # a point at a node, or nearer to it than the smallest normal float
    # (where w_j / (x - x_j) overflows), gets zero terms with unit sum
    # instead of inf / inf; the node's own value replaces its result.  Two
    # comparisons, as np.abs would make a second page-faulted temporary
    exact = np.nonzero((terms > -_TINY) & (terms < _TINY))
    terms[exact[:-1]] = np.inf
    np.divide(weights, terms, out=terms)
    den = terms.sum(axis=-1)
    den[exact[:-1]] = 1.0
    return terms, den, exact


@functools.lru_cache(maxsize=None)
def _dense_matrix(n: int):
    """The barycentric matrix of the n-grid at :data:`DENSE_POINTS`, read-only.

    Every residual search starts with these 903 points, whose build costs
    about 14 times a 41-point zoom round's.
    """
    matrix = _barycentric_matrix(n, DENSE_POINTS)
    for a in (matrix[0], matrix[1], *matrix[2]):
        a.flags.writeable = False
    return matrix


def _interpolate(matrix, values: np.ndarray, out: np.ndarray) -> None:
    """Write the interpolant of grid values at a barycentric matrix's points.

    Runs under ``np.errstate(over="ignore", invalid="ignore")``: a product
    that overflows is left non-finite, for :func:`_rescale`.
    """
    terms, den, exact = matrix
    # one matrix-vector product per function and point set: a product of
    # more rows, or with a matrix of values, may round a row differently
    np.divide(terms @ values, den, out=out)
    out[exact[:-1]] = values[exact[-1]]


def _rescale(matrix, values: np.ndarray, out: np.ndarray) -> None:
    """Redo the non-finite points of an interpolation with scaled terms.

    A point just farther than tiny from a node has a term near the largest
    float, whose product with large values overflows.  Such a point's terms
    are divided by their largest, one point set at a time as a set of its
    own would be; every other point keeps its bits.
    """
    terms, _, exact = matrix
    for s in np.ndindex(out.shape[:-1]):
        redo = np.flatnonzero(~np.isfinite(out[s]))
        scaled = terms[s][redo] / np.abs(terms[s][redo]).max(axis=1, keepdims=True)
        out[s][redo] = (scaled @ values) / scaled.sum(axis=1)
    out[exact[:-1]] = values[exact[-1]]


def _value_at(values: np.ndarray, x: float) -> float:
    """The interpolant of grid values at one point, without a matrix.

    Bitwise the one-point row of :func:`_barycentric_matrix` and
    :func:`_interpolate`, node hits and :func:`_rescale` included: the
    terms ``w_j / (x - x_j)``, their sum and one dot product.
    """
    nodes, weights = _barycentric(values.size - 1)
    terms = x - nodes
    j = np.abs(terms).argmin()  # no two nodes are within tiny of one point
    if -_TINY < terms[j] < _TINY:
        return float(values[j])
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(weights, terms, out=terms)
        out = (terms @ values) / terms.sum()
        if not math.isfinite(out):
            terms /= np.abs(terms).max()
            out = (terms @ values) / terms.sum()
    return float(out)


def _horner(coeffs: list, xs: np.ndarray) -> np.ndarray:
    """The values at xs of the polynomials with these coefficients, one row each.

    One stacked Horner pass, in place, over the coefficients zero-padded to
    the top degree.  Each row is bitwise the polynomial's own call: the pad
    keeps the row +0.0 until the leading coefficient c_d, and c_d + 0 x is
    c_d, as the call's ``c[-1] + x*0`` is.
    """
    table = np.zeros((max(c.size for c in coeffs), len(coeffs)))
    for j, c in enumerate(coeffs):
        table[: c.size, j] = c
    flat = xs.ravel()
    out = np.multiply(flat, 0, out=np.empty((len(coeffs), flat.size)))
    out += table[-1][:, None]
    for ck in table[-2::-1]:
        out *= flat
        out += ck[:, None]
    return out.reshape((len(coeffs),) + xs.shape)


def values_at(funcs, xs) -> np.ndarray:
    """The values ``f(xs)`` of the functions funcs, shape ``(len(funcs),) + xs.shape``.

    The funcs are Polynomials and GridFunctions, and xs is an array of
    points of any shape, a number counting as one point: a stack of point
    sets, shape ``(k, m)``, is evaluated in one call.  The polynomials are
    evaluated together by one stacked Horner pass over all the points; grid
    functions of one grid size share one barycentric matrix, with one
    matrix-vector product per function and point set (a product of more
    rows may round a row differently).  Each point set's values are
    bitwise the function's own call at that set.  At :data:`DENSE_POINTS`
    itself, told by identity as ``kernels.kernel_apply`` tells the grid's
    nodes, the matrix is the cached one.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    is_grid = [isinstance(f, GridFunction) for f in funcs]
    polys = [f.coeffs for f, g in zip(funcs, is_grid) if not g]
    if polys and len(polys) == len(funcs):
        return _horner(polys, xs)
    out = np.empty((len(funcs),) + xs.shape)
    if polys:
        out[np.logical_not(is_grid)] = _horner(polys, xs)
    grid = [(row, f.values) for row, f, g in zip(out, funcs, is_grid) if g]
    matrices = {}
    # one errstate and one finiteness check for all the grid functions
    with np.errstate(over="ignore", invalid="ignore"):
        for row, v in grid:
            if v.size not in matrices:
                n = v.size - 1
                matrices[v.size] = (_dense_matrix(n) if xs is DENSE_POINTS
                                    else _barycentric_matrix(n, xs))
            _interpolate(matrices[v.size], v, row)
        if not np.isfinite(out).all():
            for row, v in grid:
                _rescale(matrices[v.size], v, row)
    return out


def value_at_zero(f) -> float:
    """``f(0)`` read off without evaluation.

    x = 0 is node 0 of every grid, and a polynomial's value there is its
    constant coefficient.
    """
    return float(f.values[0] if isinstance(f, GridFunction) else f.coeffs[0])


class GridFunction:
    """Function values at the n + 1 Chebyshev-Lobatto nodes of [0, 1].

    The grid follows from the number of values.  Evaluation between nodes
    uses the barycentric interpolation formula, through one matrix per
    point set (see :func:`values_at`) or, at a single point, one row of
    terms (:func:`_value_at`); differentiation uses the spectral
    differentiation matrix built from the same barycentric weights.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 2:
            raise UsageError("a grid function needs values at two or more nodes")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return _value_at(self.values, float(x))
        return values_at([self], x)[0]

    def __add__(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(self.values + other.values)

    def derivative(self) -> "GridFunction":
        return GridFunction(_diff_matrix(self.values.size - 1) @ self.values)
