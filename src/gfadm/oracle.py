"""Independent finite-difference Newton solver for the same BVPs.

Used only to cross-validate the series solver, so it deliberately shares
no machinery with it: uniform grid, second-order central differences,
damped Newton on the coupled system.  The singular equation at x = 0 is
replaced by its regularity limit ``(1 + alpha) y''(0) = f(0, y1, y2)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import spsolve

from .errors import NoConvergenceError, UsageError
from .expr import eval_scalar
from .solver import DIRICHLET, NEUMANN_ZERO, ProblemSpec, build_baseline


@dataclass
class OracleSolution:
    nodes: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    iterations: int
    residual_norm: float

    def values(self, component: int) -> np.ndarray:
        return self.y1 if component == 1 else self.y2


def _component_residual(comp, x, y, f_vals, h):
    """Discrete defect rows for one component given f values at the nodes."""
    m = x.size - 1
    r = np.empty(m + 1)
    # left boundary / regularity row
    if comp.left_kind == NEUMANN_ZERO:
        r[0] = (1.0 + comp.alpha) * 2.0 * (y[1] - y[0]) / h**2 - f_vals[0]
    else:
        r[0] = y[0] - comp.left_value
    i = np.arange(1, m)
    d2 = (y[i + 1] - 2.0 * y[i] + y[i - 1]) / h**2
    d1 = (y[i + 1] - y[i - 1]) / (2.0 * h)
    sing = comp.alpha / x[i] * d1 if comp.alpha != 0.0 else 0.0
    r[1:m] = d2 + sing - f_vals[i]
    # right boundary row: a y(1) + b y'(1) = c, one-sided second order
    yp = (3.0 * y[m] - 4.0 * y[m - 1] + y[m - 2]) / (2.0 * h)
    r[m] = comp.a * y[m] + comp.b * yp - comp.c
    return r


def _residual_vector(p, x, z, h):
    m = x.size - 1
    y1, y2 = z[: m + 1], z[m + 1 :]
    f1 = eval_scalar(p.component1.rhs, x, y1, y2)
    f2 = eval_scalar(p.component2.rhs, x, y1, y2)
    r1 = _component_residual(p.component1, x, y1, f1, h)
    r2 = _component_residual(p.component2, x, y2, f2, h)
    return np.concatenate([r1, r2])


def _jacobian(p, x, z, h):
    m = x.size - 1
    n = m + 1
    y1, y2 = z[:n], z[n:]
    eps1 = 1e-7 * (1.0 + np.abs(y1))
    eps2 = 1e-7 * (1.0 + np.abs(y2))
    rows, cols, data = [], [], []

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        data.append(v)

    for ci, comp in enumerate(p.components):
        off = ci * n
        # df_i/dy1 and df_i/dy2 at each node, central differences
        df1 = (eval_scalar(comp.rhs, x, y1 + eps1, y2)
               - eval_scalar(comp.rhs, x, y1 - eps1, y2)) / (2.0 * eps1)
        df2 = (eval_scalar(comp.rhs, x, y1, y2 + eps2)
               - eval_scalar(comp.rhs, x, y1, y2 - eps2)) / (2.0 * eps2)
        dself = df1 if ci == 0 else df2
        dother = df2 if ci == 0 else df1
        other_off = n - off  # offset of the other component block

        if comp.left_kind == NEUMANN_ZERO:
            scale = (1.0 + comp.alpha) * 2.0 / h**2
            add(off, off, -scale - dself[0])
            add(off, off + 1, scale)
            add(off, other_off, -dother[0])
        else:
            add(off, off, 1.0)
        for i in range(1, m):
            sing = comp.alpha / x[i] / (2.0 * h) if comp.alpha != 0.0 else 0.0
            add(off + i, off + i - 1, 1.0 / h**2 - sing)
            add(off + i, off + i, -2.0 / h**2 - dself[i])
            add(off + i, off + i + 1, 1.0 / h**2 + sing)
            add(off + i, other_off + i, -dother[i])
        add(off + m, off + m, comp.a + comp.b * 3.0 / (2.0 * h))
        add(off + m, off + m - 1, -comp.b * 4.0 / (2.0 * h))
        add(off + m, off + m - 2, comp.b / (2.0 * h))
    return csr_matrix((data, (rows, cols)), shape=(2 * n, 2 * n))


def fd_solve(
    p: ProblemSpec,
    M: int = 256,
    newton_tol: float = 1e-10,
    max_iters: int = 50,
) -> OracleSolution:
    """Damped-Newton finite-difference solve on a uniform grid of M+1 nodes."""
    if M < 16:
        raise UsageError("oracle grid needs M >= 16")
    x = np.linspace(0.0, 1.0, M + 1)
    h = 1.0 / M
    # the discrete defect amplifies rounding by 1/h^2, so the reachable
    # residual floor grows with the grid; converge to whichever is larger
    tol = max(newton_tol, 1e3 * np.finfo(float).eps / h**2)
    base1, base2 = build_baseline(p)
    z = np.concatenate([base1(x), base2(x)])
    r = _residual_vector(p, x, z, h)
    norm = float(np.max(np.abs(r)))
    for it in range(1, max_iters + 1):
        if norm <= tol:
            return OracleSolution(x, z[: M + 1], z[M + 1 :], it - 1, norm)
        jac = _jacobian(p, x, z, h)
        try:
            step = spsolve(jac, r)
        except Exception as exc:  # singular factorization
            raise NoConvergenceError(f"singular Jacobian: {exc}", norm) from exc
        if not np.all(np.isfinite(step)):
            raise NoConvergenceError("singular Jacobian (non-finite step)", norm)
        # step halving until the residual norm decreases
        lam = 1.0
        for _ in range(20):
            trial = z - lam * step
            r_trial = _residual_vector(p, x, trial, h)
            trial_norm = float(np.max(np.abs(r_trial)))
            if trial_norm < norm:
                break
            lam *= 0.5
        z, r, norm = trial, r_trial, trial_norm
    if norm <= tol:
        return OracleSolution(x, z[: M + 1], z[M + 1 :], max_iters, norm)
    raise NoConvergenceError(
        f"Newton did not reach {tol:g} in {max_iters} iterations",
        last_residual=norm,
    )
