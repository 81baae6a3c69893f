"""Independent finite-difference Newton solver for the same BVPs.

Used only to cross-validate the series solver, so it deliberately shares
no machinery with it: uniform grid, second-order differences, its own
central differences for df/dy, damped Newton.  The discretisation is one
sparse operator ``A`` (regularity limit ``(1 + alpha) y''(0) = f`` or a
Dirichlet row at x = 0, three-point stencil with its ``alpha/x`` term,
one-sided Robin row at x = 1), a constant vector ``b`` and a mask of the
rows that carry f: the defect is ``A z - b - mask f(z)`` and its Jacobian
is ``A - mask df_i/dy_j``.  scipy is imported only when ``fd_solve`` runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError, UsageError
from .expr import eval_scalar
from .solver import NEUMANN_ZERO, ProblemSpec, build_baseline

NEWTON_TOL = 1e-10
MAX_ITERS = 50


@dataclass
class OracleSolution:
    nodes: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    iterations: int
    residual_norm: float

    def values(self, component: int) -> np.ndarray:
        return self.y1 if component == 1 else self.y2


def _system(p: ProblemSpec, M: int):
    """The nodes, and the defect and its sparse Jacobian as functions of z."""
    from scipy.sparse import csr_matrix

    n, h = M + 1, 1.0 / M
    x = np.linspace(0.0, 1.0, n)
    b, mask = np.zeros((2, n)), np.ones((2, n))
    v = np.empty((2, n, 3))  # A's three entries per row
    for k, c in enumerate(p.components):
        sing = c.alpha / x[1:M] / (2.0 * h)  # alpha/x times the central y'
        v[k, 1:M] = np.array([1.0, -2.0, 1.0]) / h**2 + np.outer(sing, [-1.0, 0.0, 1.0])
        if c.left_kind == NEUMANN_ZERO:  # (1 + alpha) 2 (y_1 - y_0)/h^2
            v[k, 0] = (1.0 + c.alpha) * 2.0 / h**2 * np.array([-1.0, 1.0, 0.0])
        else:
            v[k, 0], b[k, 0], mask[k, 0] = [1.0, 0.0, 0.0], c.left_value, 0.0
        # right boundary row: a y(1) + b y'(1) = c, one-sided second order
        v[k, M] = [0.0, 0.0, c.a] + c.b * np.array([1.0, -4.0, 3.0]) / (2.0 * h)
        b[k, M], mask[k, M] = c.c, 0.0
    b, mask, vals = b.ravel(), mask.ravel(), v.ravel()
    diag = np.arange(2 * n)
    node = diag % n
    # row r holds columns c0 .. c0 + 2 of its component, c0 = r - 1 within [0, M - 2]
    rows = np.repeat(diag, 3)
    cols = ((diag - node + np.clip(node - 1, 0, M - 2))[:, None] + [0, 1, 2]).ravel()
    a = csr_matrix((vals, (rows, cols)), shape=(2 * n, 2 * n))

    def f(z):
        return np.concatenate([eval_scalar(c.rhs, x, z[:n], z[n:])
                               for c in p.components])

    def defect(z):
        return a @ z - b - mask * f(z)

    def jacobian(z):
        eps = 1e-7 * (1.0 + np.abs(z))
        e = np.where(diag // n == [[0], [1]], eps, 0.0)  # perturbs y1, then y2
        # column block j holds df_1/dy_j and df_2/dy_j at each node
        coupling = [-mask * (f(z + e[j]) - f(z - e[j])) / (2.0 * eps[j * n + node])
                    for j in (0, 1)]
        return csr_matrix((np.concatenate([vals, *coupling]),
                           (np.concatenate([rows, diag, diag]),
                            np.concatenate([cols, node, node + n]))), shape=a.shape)

    return x, defect, jacobian


def fd_solve(p: ProblemSpec, M: int = 256) -> OracleSolution:
    """Damped-Newton finite-difference solve on a uniform grid of M+1 nodes."""
    if M < 16:
        raise UsageError("oracle grid needs M >= 16")
    from scipy.sparse.linalg import spsolve

    # the discrete defect amplifies rounding by 1/h^2, so the reachable
    # residual floor grows with the grid; converge to whichever is larger
    tol = max(NEWTON_TOL, 1e3 * np.finfo(float).eps * M**2)
    x, defect, jacobian = _system(p, M)
    z = np.concatenate([base(x) for base in build_baseline(p)])
    r = defect(z)
    norm = float(np.max(np.abs(r)))
    for it in range(MAX_ITERS + 1):
        if norm <= tol:
            return OracleSolution(x, z[: M + 1], z[M + 1 :], it, norm)
        if it == MAX_ITERS:
            raise NoConvergenceError(
                f"Newton did not reach {tol:g} in {MAX_ITERS} iterations", norm)
        try:
            step = spsolve(jacobian(z), r)
        except Exception as exc:  # singular factorization
            raise NoConvergenceError(f"singular Jacobian: {exc}", norm) from exc
        if not np.all(np.isfinite(step)):
            raise NoConvergenceError("singular Jacobian (non-finite step)", norm)
        for k in range(20):  # halve the step until the residual norm decreases
            trial = z - 0.5**k * step
            r_trial = defect(trial)
            if (trial_norm := float(np.max(np.abs(r_trial)))) < norm:
                break
        z, r, norm = trial, r_trial, trial_norm
