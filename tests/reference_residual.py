"""The residual search as it was before its fast paths, for the checks.

``gfadm.grids.values_at`` evaluates its polynomials by one stacked Horner
pass, and ``gfadm.analysis.max_residual`` reads the Adomian identity's
rows from the row sums stored on the solution.  These are the slow paths
they replace: every polynomial evaluated by its own call, and every point
set of every order expanding the rows A_0..A_{n-1} afresh from the term
values there, through the same ``_residual_fn`` logic.  The tests require
the pointwise reports and the spectral maxima to match them bitwise, and
the identity's maxima to 1e-13.
"""

import numpy as np

from gfadm.adomian import adomian_coefficients
from gfadm.analysis import ADOMIAN_IDENTITY, SPECTRAL, _operator_value
from gfadm.expr import eval_scalar
from gfadm.grids import (
    GridFunction,
    _barycentric_matrix,
    _interpolate,
    _rescale,
    value_at_zero,
)


def values_at(funcs, xs) -> np.ndarray:
    """The rows f(xs): a polynomial by its own call, grid functions by matrix."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    out = np.empty((len(funcs), xs.size))
    grid = []
    for row, f in zip(out, funcs):
        if isinstance(f, GridFunction):
            grid.append((row, f.values))
        else:
            row[:] = f(xs)
    matrices = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for row, v in grid:
            if v.size not in matrices:
                matrices[v.size] = _barycentric_matrix(v.size - 1, xs)
            _interpolate(matrices[v.size], v, row)
        if not np.isfinite(out).all():
            for row, v in grid:
                _rescale(matrices[v.size], v, row)
    return out


def _residual_fn(p, sol, n, method):
    if method == SPECTRAL:
        psi = [sol.psi(1, n), sol.psi(2, n)]
        derivs = [(d1, d1.derivative()) for d1 in (f.derivative() for f in psi)]
        at0 = [[value_at_zero(d) for d in pair] for pair in derivs]

        def residual_at(x, components=(0, 1)):
            psi1, psi2, *dx = values_at(psi + [d for i in components for d in derivs[i]], x)
            return tuple(
                np.abs(_operator_value(p.components[i], dx[2 * k], dx[2 * k + 1],
                                       *at0[i], x)
                       - eval_scalar(p.components[i].rhs, x, psi1, psi2))
                for k, i in enumerate(components)
            )

        return residual_at
    assert method == ADOMIAN_IDENTITY
    terms = sol.terms1[: n + 1] + sol.terms2[: n + 1]

    def residual_at(x, components=(0, 1)):
        vals = values_at(terms, x)
        t1, t2 = vals[: n + 1], vals[n + 1 :]
        psi1, psi2 = sum(t1), sum(t2)
        return tuple(
            np.abs(np.sum(adomian_coefficients(p.components[i].rhs, x, t1[:n], t2[:n]),
                          axis=0)
                   - eval_scalar(p.components[i].rhs, x, psi1, psi2))
            for i in components
        )

    return residual_at


def max_residual(p, sol, n, method=ADOMIAN_IDENTITY, weighted=False):
    """Dense search at 903 points, then a 41-point zoom to a 1e-10 bracket."""
    fn = _residual_fn(p, sol, n, method)
    alphas = [c.alpha for c in p.components]

    def weigh(x, i, vals):
        return vals * x ** alphas[i] if weighted else vals

    xs = np.concatenate(([0.0], np.linspace(0.001, 0.999, 901), [1.0]))
    dense = fn(xs)
    out = []
    for i in range(2):
        zs, vals = xs, weigh(xs, i, dense[i])
        peaks = []
        while True:
            j = int(np.argmax(vals))
            peaks.append(vals[j])
            lo, hi = zs[max(j - 1, 0)], zs[min(j + 1, zs.size - 1)]
            if hi - lo <= 1e-10:
                break
            zs = np.linspace(lo, hi, 41)
            vals = weigh(zs, i, fn(zs, (i,))[0])
        out.append(float(np.max(peaks)))
    return tuple(out)
