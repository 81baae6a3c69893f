"""Residual metrics and the convergence / error-bound calculator.

Sign convention: the components solve ``L y = f`` with L the (possibly
singular) differential operator and f exactly the user-supplied right-hand
side, so the pointwise residual is ``|L psi - f(x, psi1, psi2)|``.

Two residual methods cross-validate each other:

* ``spectral`` differentiates the partial-sum interpolant twice
  (spectral differentiation on the Chebyshev grid, exact derivatives for
  polynomial terms) and forms |L psi - f|.
* ``adomian_identity`` uses |sum_{j<n} A_j(x) - f(x, psi_1n, psi_2n)|,
  algebraically equal because every term satisfies L y_j = A_{j-1}; it
  involves no differentiation and is the accurate choice near roundoff
  scales.

Both evaluate all the terms or derivatives they need at a set of points
in one :func:`~gfadm.grids.values_at` call, so grid terms share one
barycentric matrix per point set and polynomial terms one stacked Horner
pass.  The residual search's dense stage by the Adomian identity does not
depend on the order, since row A_j reads only the terms 0..j: the values
of every stored term at its 903 points and each f's rows there are kept
on the solution from the first search, and each order sums its share.

Near the singular point the operator value uses the regularity limit
``(1 + alpha) psi''(0)``; elsewhere it forms ``alpha (psi'(x) - psi'(0))/x``,
since the kernel enforces ``psi'(0) = 0`` and whatever a differentiated
interpolant shows there is rounding that the division by x would magnify.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adomian import adomian_coefficients
from .errors import BoundInapplicableError, EvaluationError, NumericError, UsageError
from .expr import STEP, Expression, eval_scalar
from .grids import value_at_zero, values_at
from .kernels import kernel_bound_m
from .solver import ProblemSpec, SolutionSeries, build_baseline

SPECTRAL = "spectral"
ADOMIAN_IDENTITY = "adomian_identity"

_SINGULAR_X = 1e-10
# the dense stage of the residual search: 0, 901 points inside and 1
_DENSE = np.concatenate(([0.0], np.linspace(0.001, 0.999, 901), [1.0]))
_DENSE.flags.writeable = False
# sample points per coordinate of the Lipschitz box
_LIPSCHITZ_SAMPLES = 11
# padding of the solution box, relative to the range of the partial sums
_BOX_PADDING = 0.1


@dataclass
class ResidualReport:
    """Pointwise residuals per component."""

    n: int
    method: str
    points1: list = field(default_factory=list)  # (x, r_1n(x))
    points2: list = field(default_factory=list)


def _operator_value(comp, d1, d2, d1_0, d2_0, x: np.ndarray) -> np.ndarray:
    """L psi at the points x from psi' and psi'' there and at 0."""
    near0 = x <= _SINGULAR_X
    regular = d2 + comp.alpha / np.where(near0, 1.0, x) * (d1 - d1_0)
    return np.where(near0, (1.0 + comp.alpha) * d2_0, regular)


def _spectral_residual_fns(p: ProblemSpec, sol: SolutionSeries, n: int):
    psi = [sol.psi(1, n), sol.psi(2, n)]
    derivs = [(d1, d1.derivative()) for d1 in (f.derivative() for f in psi)]
    at0 = [[value_at_zero(d) for d in pair] for pair in derivs]

    def residual_at(x: np.ndarray, components=(0, 1)):
        psi1, psi2, *dx = values_at(psi + [d for i in components for d in derivs[i]], x)
        return tuple(
            np.abs(_operator_value(p.components[i], dx[2 * k], dx[2 * k + 1], *at0[i], x)
                   - eval_scalar(p.components[i].rhs, x, psi1, psi2))
            for k, i in enumerate(components)
        )

    return residual_at


def _identity_residuals(p: ProblemSpec, x, t1, t2, components, rows):
    """|sum_{j<n} A_j - f(x, psi_1n, psi_2n)| at x for the given components.

    ``t1`` and ``t2`` are the values of the terms 0..n at x, and ``rows(f)``
    gives f's rows A_0..A_{n-1} there.
    """
    psi1, psi2 = sum(t1), sum(t2)
    return tuple(
        np.abs(np.sum(rows(p.components[i].rhs), axis=0)
               - eval_scalar(p.components[i].rhs, x, psi1, psi2))
        for i in components
    )


def _adomian_residual_fns(p: ProblemSpec, sol: SolutionSeries, n: int):
    terms = sol.terms1[: n + 1] + sol.terms2[: n + 1]

    def residual_at(x: np.ndarray, components=(0, 1)):
        vals = values_at(terms, x)
        t1, t2 = vals[: n + 1], vals[n + 1 :]
        return _identity_residuals(p, x, t1, t2, components,
                                   lambda f: adomian_coefficients(f, x, t1[:n], t2[:n]))

    return residual_at


def _dense_adomian_residuals(p: ProblemSpec, sol: SolutionSeries, n: int):
    """Both residuals of order n at the dense points, from the solution's dense data.

    The data are the values of every stored term at the dense points and,
    for each right-hand side f, its rows A_0..A_{N-1} there from one
    expansion; they are kept on the solution from the first use.  Row j
    reads only the terms 0..j, so order n takes the terms 0..n and the
    rows 0..n-1, bitwise what an expansion of its own would give.
    """
    top = sol.n_terms
    if sol._dense is None:
        vals = values_at(sol.terms1 + sol.terms2, _DENSE)
        sol._dense = (vals[: top + 1], vals[top + 1 :], {})
    t1, t2, kept = sol._dense

    def rows(f):
        if f not in kept:
            try:
                kept[f] = adomian_coefficients(f, _DENSE, t1[:top], t2[:top])
            except NumericError:
                # a row past order n-1 may overflow where the rows n needs do not
                return adomian_coefficients(f, _DENSE, t1[:n], t2[:n])
        return kept[f][:n]

    return _identity_residuals(p, _DENSE, t1[: n + 1], t2[: n + 1], (0, 1), rows)


def _residual_fn(p, sol, n, method):
    """The residuals as a function of an array of points.

    The function takes the points and the indices of the components to
    return (both by default) and returns their residuals, one array each.
    """
    if n > sol.n_terms:
        raise UsageError(f"order {n} exceeds stored terms {sol.n_terms}")
    if method == SPECTRAL:
        return _spectral_residual_fns(p, sol, n)
    if method == ADOMIAN_IDENTITY:
        if n < 1:
            raise UsageError("adomian_identity needs n >= 1")
        return _adomian_residual_fns(p, sol, n)
    raise UsageError(f"unknown residual method {method!r}")


def residual(
    p: ProblemSpec,
    sol: SolutionSeries,
    n: int,
    xs,
    method: str = ADOMIAN_IDENTITY,
) -> ResidualReport:
    """Pointwise residual report at the requested abscissae."""
    fn = _residual_fn(p, sol, n, method)
    xs = np.asarray(xs, dtype=float).ravel()
    if not np.all((xs >= 0.0) & (xs <= 1.0)):
        raise UsageError("abscissae must lie in [0, 1]")
    r1, r2 = fn(xs)
    return ResidualReport(n=n, method=method,
                          points1=list(zip(xs.tolist(), r1.tolist())),
                          points2=list(zip(xs.tolist(), r2.tolist())))


def max_residual(
    p: ProblemSpec,
    sol: SolutionSeries,
    n: int,
    method: str = ADOMIAN_IDENTITY,
    weighted: bool = False,
) -> tuple[float, float]:
    """Maximum residual over (0, 1], by dense search plus local refinement.

    The dense stage takes 0, 901 points in [0.001, 0.999] and 1; the
    refinement zooms in on the bracket around the maximizer, 41 points
    a round, until the bracket is narrower than 1e-10.  A round computes
    only the component it refines, and every point set builds one
    barycentric matrix for all the grid terms evaluated there.  By the
    Adomian identity, the dense stage reads the data kept on the solution
    (see :func:`_dense_adomian_residuals`), so the orders of a residual
    table share one expansion of each f at the dense points.
    With ``weighted=True`` the residual is multiplied by ``x^alpha_i``
    (the defect of the self-adjoint form ``(x^alpha y')' = x^alpha f``),
    which some published benchmark tables report.
    """
    fn = _residual_fn(p, sol, n, method)
    alphas = [c.alpha for c in p.components]

    def weigh(x, i, vals):
        return vals * x ** alphas[i] if weighted else vals

    xs = _DENSE
    dense = (_dense_adomian_residuals(p, sol, n) if method == ADOMIAN_IDENTITY
             else fn(xs))
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


def lipschitz_estimate(
    f1: Expression,
    f2: Expression,
    box,
) -> tuple[float, float]:
    """(l1, l2): max sampled |df_i/dy_j| over the box, inflated by 10%.

    ``box`` is ((x_lo, x_hi), (y1_lo, y1_hi), (y2_lo, y2_hi)); the partials
    are exact to rounding, the complex step ``Im f(y + i STEP e_j) / STEP``.
    """
    (x0, x1), (a0, a1), (b0, b1) = box
    if x1 < x0 or a1 < a0 or b1 < b0:
        raise UsageError("empty Lipschitz box")
    xs = np.linspace(x0, x1, _LIPSCHITZ_SAMPLES)
    ys1 = np.linspace(a0, a1, _LIPSCHITZ_SAMPLES)
    ys2 = np.linspace(b0, b1, _LIPSCHITZ_SAMPLES)
    gx, gy1, gy2 = np.meshgrid(xs, ys1, ys2, indexing="ij")
    fs = (f1, f2)
    l1 = max(np.max(np.abs(eval_scalar(f, gx, gy1 + 1j * STEP, gy2).imag)) for f in fs)
    l2 = max(np.max(np.abs(eval_scalar(f, gx, gy1, gy2 + 1j * STEP).imag)) for f in fs)
    return 1.1 * float(l1) / STEP, 1.1 * float(l2) / STEP


def solution_box(sol: SolutionSeries):
    """Rectangle spanned by the computed partial sums, padded."""
    xs = np.linspace(0.0, 1.0, 101)
    ranges = []
    for i in (1, 2):
        vals = values_at([sol.psi(i, n) for n in range(sol.n_terms + 1)], xs)
        lo, hi = float(vals.min()), float(vals.max())
        pad = _BOX_PADDING * max(hi - lo, 1e-12)
        ranges.append((lo - pad, hi + pad))
    return ((0.0, 1.0), ranges[0], ranges[1])


def error_bound(m: float, l: float, max_f0: float, n: int) -> float:
    """Truncation bound ``gamma^n m / (1 - gamma) max|f(x, y10, y20)|``."""
    if max_f0 < 0:
        raise UsageError("max_f0 must be >= 0")
    gamma = 2.0 * m * l
    if gamma >= 1.0:
        raise BoundInapplicableError(
            f"contraction factor gamma = {gamma:.6g} >= 1; bound inapplicable"
        )
    return gamma**n * m / (1.0 - gamma) * max_f0


@dataclass
class ConvergenceEstimate:
    m: float
    l1: float
    l2: float
    gamma: float
    max_f0: float
    bounds: dict  # n -> bound value, empty when gamma >= 1

    @property
    def l(self) -> float:
        return max(self.l1, self.l2)


def convergence_estimate(
    p: ProblemSpec,
    sol: SolutionSeries,
    n_values,
) -> ConvergenceEstimate:
    """Kernel bound, Lipschitz constants, contraction factor and bounds."""
    m = max(kernel_bound_m(c.kernel()) for c in p.components)
    box = solution_box(sol)
    try:
        l1, l2 = lipschitz_estimate(p.component1.rhs, p.component2.rhs, box)
    except EvaluationError as exc:
        raise EvaluationError(f"pole inside Lipschitz box {box}: {exc}") from exc
    gamma = 2.0 * m * max(l1, l2)
    base1, base2 = build_baseline(p)
    xs = np.linspace(0.0, 1.0, 201)
    max_f0 = max(
        float(np.max(np.abs(eval_scalar(c.rhs, xs, base1(xs), base2(xs)))))
        for c in p.components
    )
    bounds = {}
    if gamma < 1.0:
        bounds = {int(n): error_bound(m, max(l1, l2), max_f0, int(n))
                  for n in n_values}
    return ConvergenceEstimate(m, l1, l2, gamma, max_f0, bounds)
