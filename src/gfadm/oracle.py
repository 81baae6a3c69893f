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
The Jacobian has the same blocks with ``D_i - mask_i df_i/dy_j``; its four
central-difference perturbations are columns of one evaluation of f1 and
f2, joined into one program (``ProblemSpec.rhs``).  One row operation with
row M-1 moves the corner term into the band, and block cyclic reduction
solves the block-tridiagonal system: each level takes one product for the
odd nodes, two for the even nodes' update and one to recover the odd
nodes, and a dense solve finishes once 32 or fewer blocks remain.  A
Newton step whose 20 halvings all fail to lower the defect norm ends the
solve with :class:`NoConvergenceError`.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergenceError, UsageError
from .expr import eval_scalar
from .record import Record
from .solver import NEUMANN_ZERO, ProblemSpec, build_baseline

NEWTON_TOL = 1e-10
MAX_ITERS = 50
# largest M: a solve holds about 1 kB per node at once, 0.5 GB at M = 2^19
MAX_POINTS = 2**19
# per unknown j, the multiple of eps_j added in each perturbed column
_PERTURB = np.array([[1.0, -1.0, 0.0, -0.0], [0.0, -0.0, 1.0, -1.0]])


class OracleSolution(Record):
    """The oracle's values y1, y2 at its nodes and how its Newton solve ended."""

    def __init__(self, nodes: np.ndarray, y1: np.ndarray, y2: np.ndarray,
                 iterations: int, residual_norm: float):
        self._set(nodes, y1, y2, iterations, residual_norm)

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

    # stencil blocks: diagonal, the same at every Newton step
    blocks = [v[:, :, None] * np.eye(2) for v in (lo, di, up)]
    last = [None, None]  # the unknowns f was last evaluated at, and its values

    def values(z):
        """eps and f at z and at z + e_0, z - e_0, z + e_1, z - e_1 (e_j = eps_j
        at unknown j), as ``(2, 5, M+1)``: component, column, node.

        One evaluation of f1 and f2 joined.  The defect and the
        Jacobian at the same array z share it (an iterate is never changed
        in place), so the accepted trial of a Newton step serves the next
        Jacobian.
        """
        if last[0] is not z:
            eps = 1e-7 * (1.0 + np.abs(z.T))
            zs = np.empty((2, 5, n))
            zs[:, 0] = z.T
            # the signed zeros make each column the sum of its own perturbation
            zs[:, 1:] = z.T[:, None] + eps[:, None] * _PERTURB[:, :, None]
            # each value has the shape of zs[0], also an f that does not read y1, y2
            fs = np.array(eval_scalar(p.rhs, x, zs[0], zs[1]))
            last[:] = z, (eps, fs)
        return last[1]

    def defect(z):
        az = np.zeros_like(z)
        az[1:] = lo[1:] * z[:-1]
        az[M] += corner * z[M - 2]
        az += di * z
        az[:-1] += up[:-1] * z[1:]
        return az - b - mask * values(z)[1][:, 0].T

    def jacobian(z):
        eps, fs = values(z)
        # entry (k, j) of block i: mask_ik df_k/dy_j, from the columns of unknown j
        df = mask.T[:, None] * (fs[:, 1::2] - fs[:, 2::2]) / (2.0 * eps[None])
        low, mid, upp = blocks
        return low.copy(), mid - df.transpose(2, 0, 1), upp.copy()

    return x, corner, defect, jacobian


DENSE_BLOCKS = 32  # block cyclic reduction hands systems this small to one dense solve


def _solve_dense(low, mid, upp, rhs):
    """:func:`_solve_blocks` through one dense matrix; NaN if it is singular."""
    n = len(mid)
    a = np.zeros((n, 2, n, 2))
    i = np.arange(n)
    a[i, :, i, :] = mid
    a[i[1:], :, i[:-1], :] = low[1:]
    a[i[:-1], :, i[1:], :] = upp[:-1]
    try:
        return np.linalg.solve(a.reshape(2 * n, 2 * n), rhs.ravel()).reshape(n, 2)
    except np.linalg.LinAlgError:  # an exactly zero pivot
        return np.full_like(rhs, np.nan)


def _solve_blocks(low, mid, upp, rhs):
    """x with ``low_i x_{i-1} + mid_i x_i + upp_i x_{i+1} = rhs_i``, 2x2 blocks.

    Block cyclic reduction (Buzbee, Golub & Nielson 1970): eliminate the odd
    nodes in one batched step, solve for the even ones recursively, then
    recover the odd ones.  Non-finite where a block to invert is singular.
    """
    return _reduce(mid, np.concatenate((low, upp, rhs[:, :, None]), axis=2))


_ADJ, _ADJ_SIGN = [3, 1, 2, 0], np.array([1.0, -1.0, -1.0, 1.0])  # adjugate of a flat 2x2


def _reduce(mid, s):
    """:func:`_solve_blocks` with ``s = [low | upp | rhs]``, ``(n, 2, 5)``."""
    n = len(mid)
    if n <= DENSE_BLOCKS:
        return _solve_dense(s[:, :, 0:2], mid, s[:, :, 2:4], s[:, :, 4])
    ne, no = n - n // 2, n // 2
    # odd nodes: x_o = g - a x_{o-1} - c x_{o+1}, [a | c | g] = mid^-1 [low | upp | rhs]
    m = mid[1::2].reshape(no, 4)
    det = m[:, 0] * m[:, 3] - m[:, 1] * m[:, 2]
    acg = (m[:, _ADJ] * _ADJ_SIGN / det[:, None]).reshape(no, 2, 2) @ s[1::2]
    # even node k reads odd k - 1 through its low and odd k through its upp
    lo = s[2::2, :, 0:2] @ acg[: ne - 1]
    up = s[: 2 * no : 2, :, 2:4] @ acg
    mid_e = mid[::2].copy()
    mid_e[1:] -= lo[:, :, 2:4]
    mid_e[:no] -= up[:, :, 0:2]
    # the rest is the even nodes' new [low | upp | rhs]: -low a, -upp c, rhs - low g - upp g
    lo[:, :, 2:4] = up[:, :, 0:2] = 0.0
    s_e = np.zeros((ne, 2, 5))
    s_e[:, :, 4] = s[::2, :, 4]
    s_e[1:] -= lo
    s_e[:no] -= up
    xe = _reduce(mid_e, s_e)
    # each odd node's even neighbours (x_{o-1}, x_{o+1}); a zero past the end
    pad = xe if ne > no else np.concatenate((xe, np.zeros((1, 2))))
    nbrs = np.concatenate((pad[:-1], pad[1:]), axis=1)
    x = np.empty((n, 2))
    x[::2] = xe
    x[1::2] = acg[:, :, 4] - (acg[:, :, :4] @ nbrs[:, :, None])[:, :, 0]
    return x


def _check_points(M: int) -> None:
    """The rule for the oracle's grid size, checked before any array is built."""
    if M < 16:
        raise UsageError("oracle grid needs M >= 16")
    if M > MAX_POINTS:
        raise UsageError(f"oracle grid M = {M} exceeds the largest, {MAX_POINTS}")


def fd_solve(p: ProblemSpec, M: int = 256) -> OracleSolution:
    """Damped-Newton finite-difference solve on a uniform grid of M+1 nodes."""
    _check_points(M)

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
        else:
            raise NoConvergenceError(
                f"Newton step {it + 1}: no damping of the step down to 2^-19 lowers "
                f"the defect norm {norm:g}", norm)
        z, r, norm = trial, r_trial, trial_norm
