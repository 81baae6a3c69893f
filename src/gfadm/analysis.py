"""Residual metrics and the convergence / error-bound calculator.

Sign convention: the components solve ``L y = f`` with L the (possibly
singular) differential operator and f exactly the user-supplied right-hand
side, so the pointwise residual is ``|L psi - f(x, psi1, psi2)|``.

Two residual methods cross-validate each other:

* ``spectral`` differentiates the partial-sum interpolant twice
  (spectral differentiation on the Chebyshev grid, exact derivatives for
  polynomial terms) and forms |L psi - f|.  The second derivative
  magnifies the rounding in grid terms near x = 0: at N = 64 it carries
  about 1e-8 there, so a spectral value below about 1e-7 is not resolved.
* ``adomian_identity`` uses |sum_{j<n} A_j(x) - f(x, psi_1n, psi_2n)|,
  algebraically equal because every term satisfies L y_j = A_{j-1}; it
  involves no differentiation and is the accurate choice near roundoff
  scales.  The residual search reads the row sums S_n = sum_{j<n} A_j
  stored on the solution; the pointwise report expands the rows afresh at
  its abscissae, so it checks the search independently.

Both evaluate all the functions they need at a set of points in one
:func:`~gfadm.grids.values_at` call, so grid functions share one
barycentric matrix per point set and polynomials one stacked Horner pass.

Near the singular point the operator value uses the regularity limit
``(1 + alpha) psi''(0)``; elsewhere it forms ``alpha (psi'(x) - psi'(0))/x``,
since the kernel enforces ``psi'(0) = 0`` and whatever a differentiated
interpolant shows there is rounding that the division by x would magnify.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adomian import adomian_coefficients
from .errors import BoundInapplicableError, EvaluationError, UsageError
from .expr import STEP, Expression, eval_scalar, evaluate
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


def _residual_from_operator(p: ProblemSpec, psi, parts, operator):
    """|L psi_i - f_i(x, psi_1n, psi_2n)| as a function of the points.

    L psi_i at x is ``operator(i, x, values)`` from the values there of
    the functions ``parts[i]``; psi and the parts the call needs are
    evaluated in one :func:`~gfadm.grids.values_at` call.
    """
    def residual_at(x: np.ndarray, components=(0, 1)):
        psi1, psi2, *vals = values_at(psi + [g for i in components for g in parts[i]], x)
        k = len(parts[0])
        return tuple(
            np.abs(operator(i, x, vals[k * m : k * m + k])
                   - eval_scalar(p.components[i].rhs, x, psi1, psi2))
            for m, i in enumerate(components)
        )

    return residual_at


def _spectral_residual_fns(p: ProblemSpec, sol: SolutionSeries, n: int):
    psi = [sol.psi(1, n), sol.psi(2, n)]
    derivs = [(d1, d1.derivative()) for d1 in (f.derivative() for f in psi)]
    at0 = [[value_at_zero(d) for d in pair] for pair in derivs]
    return _residual_from_operator(p, psi, derivs, lambda i, x, d: _operator_value(
        p.components[i], *d, *at0[i], x))


def _stored_row_residual_fns(p: ProblemSpec, sol: SolutionSeries, n: int):
    """The identity from the stored rows: L psi_{i,n} is S_{i,n}, their sum."""
    psi = [sol.psi(1, n), sol.psi(2, n)]
    sums = [(sol.row_sum(1, n),), (sol.row_sum(2, n),)]
    return _residual_from_operator(p, psi, sums, lambda i, x, s: s[0])


def _expanded_residual_fns(p: ProblemSpec, sol: SolutionSeries, n: int):
    """The identity from rows A_0..A_{n-1} expanded afresh at the points."""
    terms = sol.terms1[: n + 1] + sol.terms2[: n + 1]

    def residual_at(x: np.ndarray, components=(0, 1)):
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


def _residual_fn(p, sol, n, method, expand=False):
    """The residuals as a function of an array of points.

    The function takes the points and the indices of the components to
    return (both by default) and returns their residuals, one array each.
    By the Adomian identity, the rows come from the solution, or with
    ``expand`` from a fresh expansion at the points.
    """
    if n > sol.n_terms:
        raise UsageError(f"order {n} exceeds stored terms {sol.n_terms}")
    if method == SPECTRAL:
        return _spectral_residual_fns(p, sol, n)
    if method == ADOMIAN_IDENTITY:
        if n < 1:
            raise UsageError("adomian_identity needs n >= 1")
        return (_expanded_residual_fns if expand else _stored_row_residual_fns)(p, sol, n)
    raise UsageError(f"unknown residual method {method!r}")


def residual(
    p: ProblemSpec,
    sol: SolutionSeries,
    n: int,
    xs,
    method: str = ADOMIAN_IDENTITY,
) -> ResidualReport:
    """Pointwise residual report at the requested abscissae.

    By the Adomian identity the rows are expanded afresh at the abscissae,
    not read from the solution as :func:`max_residual` reads them, so the
    report checks the search independently.
    """
    fn = _residual_fn(p, sol, n, method, expand=True)
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
    only the component it refines, and every point set evaluates what it
    needs in one :func:`~gfadm.grids.values_at` call.  By the Adomian
    identity that is psi_1n, psi_2n and the row sums S_{i,n} stored on
    the solution, since L psi_{i,n} = S_{i,n}: the search expands no f.
    With ``weighted=True`` the residual is multiplied by ``x^alpha_i``
    (the defect of the self-adjoint form ``(x^alpha y')' = x^alpha f``),
    which some published benchmark tables report.
    """
    fn = _residual_fn(p, sol, n, method)
    alphas = [c.alpha for c in p.components]

    def weigh(x, i, vals):
        return vals * x ** alphas[i] if weighted else vals

    dense = fn(_DENSE)
    out = []
    for i in range(2):
        zs, vals = _DENSE, weigh(_DENSE, i, dense[i])
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
    A divisor of f that takes both signs, or 0, at the samples raises
    :class:`EvaluationError`: the box is connected, so f has a pole in it.
    """
    (x0, x1), (a0, a1), (b0, b1) = box
    if x1 < x0 or a1 < a0 or b1 < b0:
        raise UsageError("empty Lipschitz box")
    xs = np.linspace(x0, x1, _LIPSCHITZ_SAMPLES)
    ys1 = np.linspace(a0, a1, _LIPSCHITZ_SAMPLES)
    ys2 = np.linspace(b0, b1, _LIPSCHITZ_SAMPLES)
    gx, gy1, gy2 = np.meshgrid(xs, ys1, ys2, indexing="ij")

    def divide(a, b):
        if not (np.all(np.real(b) > 0) or np.all(np.real(b) < 0)):
            raise EvaluationError("a divisor vanishes or changes sign in the box")
        return a / b

    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values raise below
        vals = [[evaluate(f, gx, y1, y2, float, divide) for f in (f1, f2)]
                for y1, y2 in ((gy1 + 1j * STEP, gy2), (gy1, gy2 + 1j * STEP))]
    if not all(np.all(np.isfinite(v)) for row in vals for v in row):
        raise EvaluationError("non-finite value while evaluating expression")
    l1, l2 = (max(np.max(np.abs(np.imag(v))) for v in row) for row in vals)
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
