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

Near the singular point the operator value uses the regularity limit
``(1 + alpha) psi''(0)``.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from .adomian import adomian_coefficients
from .errors import BoundInapplicableError, EvaluationError, UsageError
from .expr import Expression, eval_scalar
from .grids import GridFunction
from .kernels import kernel_bound_m
from .solver import EXACT, GRID, ProblemSpec, SolutionSeries, build_baseline

SPECTRAL = "spectral"
ADOMIAN_IDENTITY = "adomian_identity"

_SINGULAR_X = 1e-10


@dataclass
class ResidualReport:
    """Pointwise residuals per component plus optional per-order maxima."""

    n: int
    method: str
    points1: list = field(default_factory=list)  # (x, r_1n(x))
    points2: list = field(default_factory=list)
    max_residuals: dict = field(default_factory=dict)  # n -> (maxr1, maxr2)

    def points_csv(self) -> str:
        buf = io.StringIO()
        buf.write("x,r1,r2\n")
        for (x, r1), (_, r2) in zip(self.points1, self.points2):
            buf.write(f"{x:.7f},{r1:.5E},{r2:.5E}\n")
        return buf.getvalue()

    def summary_csv(self) -> str:
        buf = io.StringIO()
        buf.write("n,maxr1,maxr2\n")
        for n in sorted(self.max_residuals):
            m1, m2 = self.max_residuals[n]
            buf.write(f"{n},{m1:.5E},{m2:.5E}\n")
        return buf.getvalue()


def _operator_value(comp, d1, d2, x: np.ndarray) -> np.ndarray:
    """L psi at the points x from first/second derivative evaluators."""
    near0 = x <= _SINGULAR_X
    regular = d2(x) + comp.alpha / np.where(near0, 1.0, x) * d1(x)
    return np.where(near0, (1.0 + comp.alpha) * float(d2(0.0)), regular)


def _spectral_residual_fns(p: ProblemSpec, sol: SolutionSeries, n: int):
    fns = []
    for i, comp in enumerate(p.components, start=1):
        if sol.backend == EXACT:
            psi = sol.partial_sum_polynomial(i, n)
            d1 = psi.deriv()
            d2 = d1.deriv()
            psi_eval = psi
        else:
            vals = np.sum([t.values for t in (sol.terms1, sol.terms2)[i - 1][: n + 1]],
                          axis=0)
            psi_gf = GridFunction(sol.nodes, vals)
            d1 = psi_gf.derivative()
            d2 = d1.derivative()
            psi_eval = psi_gf
        fns.append((comp, psi_eval, d1, d2))

    def residual_at(x: np.ndarray):
        psi1 = fns[0][1](x)
        psi2 = fns[1][1](x)
        return tuple(
            np.abs(_operator_value(comp, d1, d2, x)
                   - eval_scalar(comp.rhs, x, psi1, psi2))
            for comp, _, d1, d2 in fns
        )

    return residual_at


def _adomian_residual_fns(p: ProblemSpec, sol: SolutionSeries, n: int):
    def residual_at(x: np.ndarray):
        t1 = [t(x) for t in sol.terms1[: n + 1]]
        t2 = [t(x) for t in sol.terms2[: n + 1]]
        psi1, psi2 = sum(t1), sum(t2)
        return tuple(
            np.abs(np.sum(adomian_coefficients(comp.rhs, x, t1[:n], t2[:n]), axis=0)
                   - eval_scalar(comp.rhs, x, psi1, psi2))
            for comp in p.components
        )

    return residual_at


def _residual_fn(p, sol, n, method):
    """The residuals (r1, r2) as a function of an array of points."""
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

    With ``weighted=True`` the residual is multiplied by ``x^alpha_i``
    (the defect of the self-adjoint form ``(x^alpha y')' = x^alpha f``),
    which some published benchmark tables report.
    """
    fn = _residual_fn(p, sol, n, method)
    alphas = [c.alpha for c in p.components]

    def weigh(x, i, vals):
        return vals * x ** alphas[i] if weighted else vals

    def negated_at(x, i):
        x = np.clip(x, 0.0, 1.0)
        return -float(weigh(x, i, fn(np.array([x]))[i][0]))

    xs = np.concatenate(([0.0], np.linspace(0.001, 0.999, 901), [1.0]))
    dense = fn(xs)
    out = []
    for i in range(2):
        vals = weigh(xs, i, dense[i])
        j = int(np.argmax(vals))
        best = float(vals[j])
        lo, hi = float(xs[max(j - 1, 0)]), float(xs[min(j + 1, xs.size - 1)])
        if hi > lo:
            res = minimize_scalar(negated_at, args=(i,), bounds=(lo, hi),
                                  method="bounded", options={"xatol": 1e-10})
            best = max(best, float(-res.fun))
        out.append(best)
    return tuple(out)


def lipschitz_estimate(
    f1: Expression,
    f2: Expression,
    box,
    samples: int = 11,
) -> tuple[float, float]:
    """(l1, l2): max sampled |df_i/dy_j| over the box, inflated by 10%.

    ``box`` is ((x_lo, x_hi), (y1_lo, y1_hi), (y2_lo, y2_hi)); derivatives
    use central differences with step 1e-6 times the coordinate range.
    """
    (x0, x1), (a0, a1), (b0, b1) = box
    if x1 < x0 or a1 < a0 or b1 < b0:
        raise UsageError("empty Lipschitz box")
    xs = np.linspace(x0, x1, samples)
    ys1 = np.linspace(a0, a1, samples)
    ys2 = np.linspace(b0, b1, samples)
    h1 = 1e-6 * max(a1 - a0, 1.0)
    h2 = 1e-6 * max(b1 - b0, 1.0)
    gx, gy1, gy2 = np.meshgrid(xs, ys1, ys2, indexing="ij")
    l1 = 0.0
    l2 = 0.0
    for f in (f1, f2):
        d1 = (eval_scalar(f, gx, gy1 + h1, gy2) - eval_scalar(f, gx, gy1 - h1, gy2)) \
            / (2.0 * h1)
        d2 = (eval_scalar(f, gx, gy1, gy2 + h2) - eval_scalar(f, gx, gy1, gy2 - h2)) \
            / (2.0 * h2)
        l1 = max(l1, float(np.max(np.abs(d1))))
        l2 = max(l2, float(np.max(np.abs(d2))))
    return 1.1 * l1, 1.1 * l2


def solution_box(sol: SolutionSeries, padding: float = 0.1):
    """Rectangle spanned by the computed partial sums, padded."""
    xs = np.linspace(0.0, 1.0, 101)
    ranges = []
    for i in (1, 2):
        cum = np.zeros(xs.size)
        lo, hi = np.inf, -np.inf
        for t in (sol.terms1, sol.terms2)[i - 1]:
            cum = cum + np.asarray(t(xs), dtype=float)
            lo = min(lo, float(cum.min()))
            hi = max(hi, float(cum.max()))
        pad = padding * max(hi - lo, 1e-12)
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
