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
2013).  Multiplication by x and the antiderivative are closed forms on the
coefficients, and the lane_emden equation ``x w' + alpha w = x g`` with
the regularity row is an upper triangular system, solved by back
substitution.  At the grid's own nodes, where the solver wants it, the
image is one product with a cached (n+1) x (n+1) node matrix, the
Chebyshev Vandermonde matrix of the nodes (a closed form in cosines)
times the coefficient map; at any other points the coefficients are
summed by Clenshaw, which keeps the polynomial exact between nodes.  Any
other callable is integrated by composite quadrature, the independent
reference.  Its Gauss-Legendre nodes, the package's one use of
``numpy.polynomial``, are made on its first use, so no solve loads it.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import UsageError
from .grids import GridFunction, Polynomial, chebyshev_coefficient_matrix, grid_nodes
from .record import Record

LANE_EMDEN = "lane_emden"
DIRICHLET_DIRICHLET = "dirichlet_dirichlet"

# geometric subdivision levels for the panel touching s = 0 (tames the
# ln s / s^alpha endpoint behaviour under the weight)
_GEOM_LEVELS = 24


class KernelSpec(Record):
    """A kernel: its family, its shape factor alpha and its Robin shift b/a."""

    def __init__(self, family: str, alpha: float = 0.0, robin_shift: float = 0.0):
        if family not in (LANE_EMDEN, DIRICHLET_DIRICHLET):
            raise UsageError(f"unknown kernel family {family!r}")
        if family == LANE_EMDEN and alpha < 0:
            raise UsageError("lane_emden kernel requires alpha >= 0")
        if robin_shift < 0:
            raise UsageError("robin_shift must be >= 0")
        self._set(family, alpha, robin_shift)

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


def _times_x(c: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients (in t = 2x - 1, one column each) of x times c.

    x = (1 + t)/2, t T_k = (T_k-1 + T_k+1)/2 and t T_0 = T_1; one row more.
    """
    out = np.zeros((len(c) + 1, c.shape[1]))
    out[:-1] = 0.5 * c
    out[1:] += 0.25 * c
    out[1] += 0.25 * c[0]
    out[:-2] += 0.25 * c[1:]
    return out


def _integral(c: np.ndarray, at: float) -> np.ndarray:
    """Coefficients of the antiderivative in x of c, zero at t = at (1 or -1).

    int T_0 dt = T_1, int T_1 dt = T_2/4, int T_j dt = T_j+1/(2(j+1)) -
    T_j-1/(2(j-1)), with dx = dt/2, and T_j(+-1) = (+-1)^j; one row more.
    """
    m = len(c)
    four_j = 4.0 * np.arange(1, m + 1)[:, None]
    out = np.zeros((m + 1, c.shape[1]))
    out[1:] = c / four_j
    out[1] = 0.5 * c[0]
    out[1 : m - 1] -= c[2:] / four_j[: m - 2]
    out[0] = -(at ** np.arange(1, m + 1)) @ out[1:]
    return out


@functools.lru_cache(maxsize=64)
def _image_coeffs(k: KernelSpec, n: int) -> np.ndarray:
    """Map from values on the n-grid to the image's coefficients in 2x - 1.

    With ``w = y'`` a lane_emden image solves ``x w' + alpha w = x g``, then
    ``y(1) + robin_shift w(1) = 0``.  On Chebyshev coefficients ``x d/dx``
    is ``(1 + t) d/dt``, whose row i >= 1 is ``i + alpha`` on the diagonal
    and ``2j`` in every column j > i; with the regularity row ``w(x=0) =
    sum (-1)^j w_j = 0`` as row 0 the system is upper triangular, and a
    back substitution, one row at a time for all the columns at once,
    solves it.  A dirichlet_dirichlet image solves ``y'' = g``, ``y(0) =
    y(1) = 0``.
    """
    g = chebyshev_coefficient_matrix(n)  # one column per node value
    if k.family == DIRICHLET_DIRICHLET:
        y = _integral(_integral(g, -1.0), -1.0)
        y[:2] -= 0.5 * y.sum(axis=0)  # subtract x y(1), with x = (T_0 + T_1)/2
    else:
        rhs = _times_x(g)
        w = np.empty_like(rhs)
        right = np.zeros(n + 1)  # sum over j > i of 2j w_j
        for i in range(n + 1, 0, -1):
            w[i] = (rhs[i] - right) / (i + k.alpha)
            right += 2.0 * i * w[i]
        w[0] = -((-1.0) ** np.arange(1, n + 2)) @ w[1:]
        y = _integral(w, 1.0)
        y[0] -= k.robin_shift * w.sum(axis=0)  # T_k(1) = 1
    y.flags.writeable = False
    return y


@functools.lru_cache(maxsize=64)
def _node_image(k: KernelSpec, n: int) -> np.ndarray:
    """Map from values on the n-grid to the image's values at the same nodes.

    Node k is ``t = cos(pi (n - k) / n)``, where ``T_j(t) = cos(pi j (n - k) / n)``.
    """
    vander = np.cos(np.pi * np.outer(np.arange(n, -1, -1), np.arange(n + 3)) / n)
    out = vander @ _image_coeffs(k, n)
    out.flags.writeable = False
    return out


def _clenshaw(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``sum_j coeffs[j] T_j(t)`` by Clenshaw's recurrence, three or more coefficients."""
    t2 = 2.0 * t
    b0, b1 = coeffs[-2], coeffs[-1]
    for c in coeffs[-3::-1]:
        b0, b1 = c - b1, b0 + b1 * t2
    return b0 + b1 * t


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
        coeffs = _image_coeffs(k, g.values.size - 1) @ g.values
        out = _clenshaw(coeffs, 2.0 * xs - 1.0)
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
