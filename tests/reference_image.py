"""The grid kernel image as ``numpy.polynomial`` and a dense solve build it, for checks.

``gfadm.kernels`` builds the map from a grid function's node values to its
image's Chebyshev coefficients with closed forms: multiplication by x,
antiderivatives and, for lane_emden, a back substitution on the upper
triangular system ``x w' + alpha w = x g``.  Its node matrix takes the
Chebyshev Vandermonde matrix of the nodes in closed form, and off the
nodes it sums the coefficients by Clenshaw.  These are the paths they
replace: ``chebint``, ``chebder`` and ``np.linalg.solve`` for the
coefficients, ``chebvander`` at the nodes and ``chebval`` elsewhere.  The
tests require the closed forms to match them to rounding.
"""

import numpy as np
from numpy.polynomial import chebyshev

from gfadm.grids import chebyshev_coefficient_matrix, grid_nodes
from gfadm.kernels import DIRICHLET_DIRICHLET, _image_coeffs


def image_coeffs(k, n):
    """Map from values on the n-grid to the image's coefficients in 2x - 1."""
    g = chebyshev_coefficient_matrix(n)
    if k.family == DIRICHLET_DIRICHLET:
        y = chebyshev.chebint(g, 2, lbnd=-1, scl=0.5, axis=0)
        y[:2] -= 0.5 * y.sum(axis=0)  # subtract x y(1), with x = (T_0 + T_1)/2
        return y
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
    return y


def node_image(k, n):
    """Map from values on the n-grid to the image's values at the same nodes."""
    return chebyshev.chebvander(2.0 * grid_nodes(n) - 1.0, n + 2) @ image_coeffs(k, n)


def image_at(k, g, xs):
    """The image of the grid function g under kernel k at xs, by ``chebval``
    on the library's coefficients."""
    coeffs = _image_coeffs(k, g.values.size - 1) @ g.values
    return chebyshev.chebval(2.0 * np.asarray(xs, dtype=float) - 1.0, coeffs)


def image_coeffs_exact(k, n, digits=40):
    """The lane_emden map of :func:`image_coeffs` in ``digits``-digit arithmetic.

    The input is the same float matrix ``chebyshev_coefficient_matrix(n)``;
    the system ``x w' + alpha w = x g`` is solved on the closed form of its
    rows, ``i + alpha`` on the diagonal and ``2j`` right of it, so only the
    final rounding to floats is inexact at double precision.
    """
    import mpmath

    g = chebyshev_coefficient_matrix(n)
    size, alpha = n + 2, mpmath.mpf(k.alpha)
    out = np.empty((size + 1, n + 1))
    with mpmath.workdps(digits):
        for col in range(n + 1):
            c = [mpmath.mpf(float(v)) for v in g[:, col]]
            r = [mpmath.mpf(0)] * size  # x times c
            for j, v in enumerate(c):
                r[j] += v / 2
                r[j + 1] += v / 2 if j == 0 else v / 4
                if j:
                    r[j - 1] += v / 4
            w, right = [mpmath.mpf(0)] * size, mpmath.mpf(0)
            for i in range(size - 1, 0, -1):
                w[i] = (r[i] - right) / (i + alpha)
                right += 2 * i * w[i]
            w[0] = -sum((-1) ** j * w[j] for j in range(1, size))
            # y = int w dx, zero at x = 1, less robin_shift w(1)
            y = [mpmath.mpf(0)] * (size + 1)
            for j, v in enumerate(w):
                y[j + 1] += v / 2 if j == 0 else v / (4 * (j + 1))
                if j >= 2:
                    y[j - 1] -= v / (4 * (j - 1))
            y[0] = -sum(y[1:]) - mpmath.mpf(k.robin_shift) * sum(w)
            out[:, col] = [float(v) for v in y]
    return out
