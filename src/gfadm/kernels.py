"""Closed-form kernels for the integral reformulation of the BVPs.

Two families are supported.  The ``lane_emden`` family covers operators
``y'' + (alpha/x) y'`` with the regularity condition ``y'(0) = 0`` and a
right boundary condition ``a y(1) + b y'(1) = c``; its kernel is

    G(x, s) = v(max(x, s)) - robin_shift,
    v(t) = ln t               for alpha == 1,
    v(t) = (t^(1-alpha) - 1) / (1 - alpha)   otherwise,

with ``robin_shift = b / a`` (zero for a pure Dirichlet condition at 1).
``alpha = 0`` gives ``v(t) = t - 1`` and handles the flat operator ``y''``
with a Neumann condition at 0.  The ``dirichlet_dirichlet`` family is the
classical kernel for ``y''`` with zero values at both ends,

    G(x, s) = s (x - 1)  for s <= x,   x (s - 1)  for x <= s.

``kernel_apply`` computes the weighted integral of the kernel against a
function, which is one step of the solution recursion.  The image of a grid
function's interpolant is a polynomial of degree n + 2, computed exactly up
to rounding on Chebyshev coefficients (Greengard 1991; Olver & Townsend
2013).  At the grid's own nodes, where the solver wants it, the image is one
product with a cached (n+1) x (n+1) node matrix, the Chebyshev
Vandermonde matrix of the nodes times the coefficient map; at any other
points the coefficients are summed by Clenshaw, which keeps the polynomial
exact between nodes.  Any other callable is integrated by composite
quadrature, the independent reference.  ``numpy.polynomial`` is imported
by the grid path alone, and the quadrature's nodes are made on its first
use, so a solve on the exact backend loads neither.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .grids import GridFunction, Polynomial, chebyshev_coefficient_matrix, grid_nodes

LANE_EMDEN = "lane_emden"
DIRICHLET_DIRICHLET = "dirichlet_dirichlet"

# geometric subdivision levels for the panel touching s = 0 (tames the
# ln s / s^alpha endpoint behaviour under the weight)
_GEOM_LEVELS = 24


@dataclass(frozen=True)
class KernelSpec:
    family: str
    alpha: float = 0.0
    robin_shift: float = 0.0

    def __post_init__(self):
        if self.family not in (LANE_EMDEN, DIRICHLET_DIRICHLET):
            raise UsageError(f"unknown kernel family {self.family!r}")
        if self.family == LANE_EMDEN and self.alpha < 0:
            raise UsageError("lane_emden kernel requires alpha >= 0")
        if self.robin_shift < 0:
            raise UsageError("robin_shift must be >= 0")

    @property
    def weight_exponent(self) -> float:
        return self.alpha if self.family == LANE_EMDEN else 0.0


def _v(k: KernelSpec, t):
    if k.alpha == 1.0:
        return np.log(t)
    return (t ** (1.0 - k.alpha) - 1.0) / (1.0 - k.alpha)


def _kernel_values(k: KernelSpec, x: float, s: np.ndarray) -> np.ndarray:
    """Vectorized G(x, s) without domain validation."""
    if k.family == LANE_EMDEN:
        return _v(k, np.maximum(x, s)) - k.robin_shift
    return np.where(s <= x, s * (x - 1.0), x * (s - 1.0))


def _panels(k: KernelSpec, x: float) -> list[tuple[float, float]]:
    cuts = sorted({0.0, float(x), 1.0})
    base = [(a, b) for a, b in zip(cuts[:-1], cuts[1:]) if b > a]
    if k.family != LANE_EMDEN or not base or base[0][0] != 0.0:
        return base
    # geometric refinement of the panel starting at 0
    a, b = base[0]
    edges = [0.0] + [b * 2.0 ** (i - _GEOM_LEVELS) for i in range(_GEOM_LEVELS + 1)]
    refined = list(zip(edges[:-1], edges[1:]))
    for a, b in base[1:]:
        # the weighted kernel is analytic away from s = 0 with radius ~ s, so
        # panels must not be much wider than their distance from the origin;
        # double the panel width away from the left edge
        cuts = [a]
        while 2.0 * cuts[-1] < b:
            cuts.append(2.0 * cuts[-1])
        cuts.append(b)
        refined += list(zip(cuts[:-1], cuts[1:]))
    return refined


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The 32-point Gauss-Legendre nodes and weights on [-1, 1]."""
    from numpy.polynomial import legendre

    return legendre.leggauss(32)


def _quad(k: KernelSpec, g, x: float) -> float:
    total = 0.0
    alpha = k.weight_exponent
    nodes, weights = _gauss_legendre()
    for a, b in _panels(k, x):
        h = 0.5 * (b - a)
        s = a + h * (nodes + 1.0)
        vals = np.asarray(g(s), dtype=float)
        integrand = _kernel_values(k, x, s) * s**alpha * vals
        total += h * float(weights @ integrand)
    return total


@functools.lru_cache(maxsize=64)
def _image_coeffs(k: KernelSpec, n: int) -> np.ndarray:
    """Map from values on the n-grid to the image's coefficients in 2x - 1.

    With ``w = y'`` a lane_emden image solves ``x w' + alpha w = x g``, a
    system upper triangular on Chebyshev coefficients with ``j + alpha`` on
    the diagonal for T_j, then ``y(1) + robin_shift w(1) = 0``.  A
    dirichlet_dirichlet image solves ``y'' = g``, ``y(0) = y(1) = 0``.
    """
    from numpy.polynomial import chebyshev

    g = chebyshev_coefficient_matrix(n)  # one column per node value
    if k.family == DIRICHLET_DIRICHLET:
        y = chebyshev.chebint(g, 2, lbnd=-1, scl=0.5, axis=0)
        y[:2] -= 0.5 * y.sum(axis=0)  # subtract x y(1), with x = (T_0 + T_1)/2
    else:
        size = n + 2
        eye = np.eye(size)
        # multiplication by x of coefficients of degree <= n:
        # x T_k = T_k / 2 + (T_k-1 + T_k+1) / 4, and x T_0 = (T_0 + T_1) / 2
        xmul = 0.5 * np.eye(size, n + 1) + 0.25 * (np.eye(size, n + 1, 1)
                                                  + np.eye(size, n + 1, -1))
        xmul[1, 0] = 0.5
        # x w' + alpha w = x g, with d/dx = 2 d/dt
        op = 2.0 * xmul @ chebyshev.chebder(eye, axis=0) + k.alpha * eye
        rhs = xmul @ g
        # the first row (singular at alpha = 0) becomes regularity, w(x=0) = 0
        op[0] = (-1.0) ** np.arange(size)
        rhs[0] = 0.0
        w = np.linalg.solve(op, rhs)
        y = chebyshev.chebint(w, lbnd=1, scl=0.5, axis=0)
        y[0] -= k.robin_shift * w.sum(axis=0)  # T_k(1) = 1
    y.flags.writeable = False
    return y


@functools.lru_cache(maxsize=64)
def _node_image(k: KernelSpec, n: int) -> np.ndarray:
    """Map from values on the n-grid to the image's values at the same nodes."""
    from numpy.polynomial import chebyshev

    t = 2.0 * grid_nodes(n) - 1.0
    out = chebyshev.chebvander(t, n + 2) @ _image_coeffs(k, n)
    out.flags.writeable = False
    return out


def kernel_apply(k: KernelSpec, g, x):
    """Weighted integral ``int_0^1 G(x, s) s^alpha g(s) ds`` at a point or array.

    For a :class:`GridFunction` the image of its interpolant is evaluated
    from its exact Chebyshev coefficients.  At the function's own nodes (the
    array ``grid_nodes(n)``, found by identity, or any array equal to it)
    that is one product with the cached node matrix; at other points
    Clenshaw's sum over the coefficients, exact between nodes.  Any other
    callable accepting a numpy array of abscissae is integrated by
    composite quadrature split at the kink s = x.
    """
    if isinstance(g, GridFunction):
        n = g.values.size - 1
        nodes = grid_nodes(n)
        if x is nodes or np.shape(x) == nodes.shape and np.array_equal(x, nodes):
            return _node_image(k, n) @ g.values
    xs = np.asarray(x, dtype=float)
    if not np.all((0.0 <= xs) & (xs <= 1.0)):
        raise UsageError("kernel_apply wants x in [0, 1]")
    if isinstance(g, GridFunction):
        from numpy.polynomial import chebyshev

        coeffs = _image_coeffs(k, g.values.size - 1) @ g.values
        out = chebyshev.chebval(2.0 * xs - 1.0, coeffs)
    else:
        out = np.reshape([_quad(k, g, t) for t in xs.ravel()], xs.shape)
    return float(out) if xs.ndim == 0 else out


def kernel_monomial_image(k: KernelSpec, m: int) -> Polynomial:
    """Closed form of ``J_m(x) = int_0^1 G(x, s) s^(alpha+m) ds``.

    For lane_emden, J_m solves ``J'' + (alpha/x) J' = x^m`` with
    ``J'(0) = 0`` and ``J(1) + robin_shift J'(1) = 0``; every such kernel
    has this polynomial image, the logarithmic one at alpha = 1 included.
    For dirichlet_dirichlet, ``J'' = x^m`` with ``J(0) = J(1) = 0`` gives
    ``(x^(m+2) - x) / ((m+1)(m+2))``.

    The exact solver calls it once per exponent and kernel, and keeps the
    images as the rows of a table cached per process.
    """
    if m < 0:
        raise UsageError("monomial exponent must be >= 0")
    coeffs = np.zeros(m + 3)
    if k.family == DIRICHLET_DIRICHLET:
        coeffs[m + 2] = 1.0 / ((m + 1.0) * (m + 2.0))
        coeffs[1] = -coeffs[m + 2]
        return Polynomial(coeffs)
    denom = (m + 2.0) * (m + 1.0 + k.alpha)
    coeffs[m + 2] = 1.0 / denom
    # particular solution x^(m+2)/denom; the additive constant enforces the
    # right boundary condition
    coeffs[0] = -(1.0 / denom + k.robin_shift * (m + 2.0) / denom)
    return Polynomial(coeffs)


def kernel_bound_m(k: KernelSpec) -> float:
    """``max over x in [0,1] of |int_0^1 G(x,s) s^alpha ds|``.

    The image of 1 is ``(x^2 - 1 - 2 robin_shift) / (2 (1 + alpha))`` for
    lane_emden, largest in size at x = 0, and ``(x^2 - x)/2`` for
    dirichlet_dirichlet, largest at x = 1/2.
    """
    if k.family == DIRICHLET_DIRICHLET:
        return 0.125
    return (1.0 + 2.0 * k.robin_shift) / (2.0 * (1.0 + k.alpha))
