"""Independent finite-difference Newton solver for the same BVPs.

Used only to cross-validate the series solver, so it deliberately shares
no machinery with it: uniform grid, second-order differences, its own
central differences for df/dy, its own linear solver and interpolant,
damped Newton.  The unknowns are an ``(M+1, 2)`` array with one row per
node.  Each component has the regularity row ``(1 + alpha) y''(0) = f``
(or a Dirichlet row) at x = 0, the three-point stencil with its
``alpha/x`` term inside, and a one-sided Robin row at x = 1.  Row i of the
defect is ``L_i y_{i-1} + D_i y_i + U_i y_{i+1} - b_i - mask_i f_i(y_i)``,
plus ``corner y_{M-2}`` in the Robin row; ``L`` and ``U`` are diagonal.
The Jacobian has the same blocks with ``D_i - mask_i df_i/dy_j``.  One row
operation with row M-1 moves the corner term into the band, and block
cyclic reduction solves the block-tridiagonal system.
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

    def interpolate(self, component: int, xs) -> np.ndarray:
        """Values at xs in [0, 1] of the cubic through the four nearest nodes."""
        y, M = self.values(component), len(self.nodes) - 1
        u = np.asarray(xs, dtype=float) * M
        i = np.clip(np.floor(u).astype(int) - 1, 0, M - 3)
        t = u - i  # position in the nodes i .. i + 3, in [0, 3]
        w = [-(t - 1) * (t - 2) * (t - 3) / 6, t * (t - 2) * (t - 3) / 2,
             -t * (t - 1) * (t - 3) / 2, t * (t - 1) * (t - 2) / 6]
        return sum(wk * y[i + k] for k, wk in enumerate(w))


def _system(p: ProblemSpec, M: int):
    """The nodes, the Robin rows' ``y_{M-2}`` coefficients, the defect and
    its Jacobian blocks ``(L, D, U)``, each ``(M+1, 2, 2)``, as functions
    of the ``(M+1, 2)`` unknowns."""
    n, h = M + 1, 1.0 / M
    x = np.linspace(0.0, 1.0, n)
    lo, di, up = np.zeros((3, n, 2))  # the stencil's weights of y_{i-1}, y_i, y_{i+1}
    b, mask, corner = np.zeros((n, 2)), np.ones((n, 2)), np.zeros(2)
    for k, c in enumerate(p.components):
        sing = c.alpha / x[1:M] / (2.0 * h)  # alpha/x times the central y'
        lo[1:M, k], up[1:M, k] = 1.0 / h**2 - sing, 1.0 / h**2 + sing
        di[1:M, k] = -2.0 / h**2
        if c.left_kind == NEUMANN_ZERO:  # (1 + alpha) 2 (y_1 - y_0)/h^2
            up[0, k] = (1.0 + c.alpha) * 2.0 / h**2
            di[0, k] = -up[0, k]
        else:
            di[0, k], b[0, k], mask[0, k] = 1.0, c.left_value, 0.0
        # right boundary row: a y(1) + b y'(1) = c, one-sided second order
        corner[k], lo[M, k], di[M, k] = c.b * np.array([1.0, -4.0, 3.0]) / (2.0 * h)
        di[M, k] += c.a
        b[M, k], mask[M, k] = c.c, 0.0

    def f(z):
        return np.stack([eval_scalar(c.rhs, x, z[:, 0], z[:, 1])
                         for c in p.components], axis=1)

    def defect(z):
        az = np.zeros_like(z)
        az[1:] = lo[1:] * z[:-1]
        az[M] += corner * z[M - 2]
        az += di * z
        az[:-1] += up[:-1] * z[1:]
        return az - b - mask * f(z)

    def jacobian(z):
        eps = 1e-7 * (1.0 + np.abs(z))
        low, mid, upp = (v[:, :, None] * np.eye(2) for v in (lo, di, up))
        for j in (0, 1):  # column j of each block: df_1/dy_j and df_2/dy_j
            e = np.zeros_like(z)
            e[:, j] = eps[:, j]
            mid[:, :, j] -= mask * (f(z + e) - f(z - e)) / (2.0 * eps[:, j, None])
        return low, mid, upp

    return x, corner, defect, jacobian


def _inv2(a: np.ndarray) -> np.ndarray:
    """Inverses of a stack of 2x2 matrices (non-finite where one is singular)."""
    inv = np.stack([a[:, 1, 1], -a[:, 0, 1], -a[:, 1, 0], a[:, 0, 0]], axis=1)
    det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    return inv.reshape(a.shape) / det[:, None, None]


def _mv(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (a @ v[..., None])[..., 0]


def _solve_blocks(low, mid, upp, rhs):
    """x with ``low_i x_{i-1} + mid_i x_i + upp_i x_{i+1} = rhs_i``, 2x2 blocks.

    Block cyclic reduction (Buzbee, Golub & Nielson 1970): eliminate the odd
    nodes in one batched step, solve for the even ones recursively, then
    recover the odd ones.
    """
    if len(mid) == 1:
        return _mv(_inv2(mid), rhs)
    inv = _inv2(mid[1::2])  # odd nodes: x_o = g - a x_{o-1} - c x_{o+1}
    a, c, g = inv @ low[1::2], inv @ upp[1::2], _mv(inv, rhs[1::2])
    low_e, upp_e, mid_e, rhs_e = low[::2], upp[::2], mid[::2].copy(), rhs[::2].copy()
    ne, no = len(mid_e), len(g)  # even node k reads odd k - 1 (k >= 1) and odd k (k < no)
    mid_e[1:] -= low_e[1:] @ c[: ne - 1]
    mid_e[:no] -= upp_e[:no] @ a
    rhs_e[1:] -= _mv(low_e[1:], g[: ne - 1])
    rhs_e[:no] -= _mv(upp_e[:no], g)
    low_r, upp_r = np.zeros_like(mid_e), np.zeros_like(mid_e)
    low_r[1:] = -low_e[1:] @ a[: ne - 1]
    upp_r[:no] = -upp_e[:no] @ c
    xe = _solve_blocks(low_r, mid_e, upp_r, rhs_e)
    xo = g - _mv(a, xe[:no])
    xo[: ne - 1] -= _mv(c[: ne - 1], xe[1:])
    x = np.empty_like(rhs)
    x[::2], x[1::2] = xe, xo
    return x


def fd_solve(p: ProblemSpec, M: int = 256) -> OracleSolution:
    """Damped-Newton finite-difference solve on a uniform grid of M+1 nodes."""
    if M < 16:
        raise UsageError("oracle grid needs M >= 16")

    # the discrete defect amplifies rounding by 1/h^2, so the reachable
    # residual floor grows with the grid; converge to whichever is larger
    tol = max(NEWTON_TOL, 1e3 * np.finfo(float).eps * M**2)
    x, corner, defect, jacobian = _system(p, M)
    z = np.stack([base(x) for base in build_baseline(p)], axis=1)
    r = defect(z)
    norm = float(np.max(np.abs(r)))
    for it in range(MAX_ITERS + 1):
        if norm <= tol:
            return OracleSolution(x, z[:, 0], z[:, 1], it, norm)
        if it == MAX_ITERS:
            raise NoConvergenceError(
                f"Newton did not reach {tol:g} in {MAX_ITERS} iterations", norm)
        low, mid, upp = jacobian(z)
        rhs = r.copy()
        with np.errstate(all="ignore"):  # a singular block gives a non-finite step
            # row M minus t times row M-1 leaves no y_{M-2} term in row M
            t = corner / np.diagonal(low[M - 1])
            low[M] -= t[:, None] * mid[M - 1]
            mid[M] -= t[:, None] * upp[M - 1]
            rhs[M] -= t * r[M - 1]
            step = _solve_blocks(low, mid, upp, rhs)
        if not np.all(np.isfinite(step)):
            raise NoConvergenceError("singular Jacobian (non-finite step)", norm)
        for k in range(20):  # halve the step until the residual norm decreases
            trial = z - 0.5**k * step
            r_trial = defect(trial)
            if (trial_norm := float(np.max(np.abs(r_trial)))) < norm:
                break
        z, r, norm = trial, r_trial, trial_norm
