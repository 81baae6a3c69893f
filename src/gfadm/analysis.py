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
  scales.  The pointwise report and the residual search both read the row
  sums S_n = sum_{j<n} A_j stored on the solution and expand no f; the
  tests hold them to a fresh expansion of the rows.

Both are one function of the points, which gives the two components'
residuals from one :func:`~gfadm.grids.values_at` call, so grid functions
share one barycentric matrix per point set and polynomials one stacked
Horner pass, and from one evaluation of the joined f, ``p.rhs``.  The
search's dense point set is :data:`~gfadm.grids.DENSE_POINTS`, whose
matrix is built once per grid size, and each of its zoom rounds is one
call on the point sets of the components still refining, stacked.

Near the singular point the operator value uses the regularity limit
``(1 + alpha) psi''(0)``; elsewhere it forms ``alpha (psi'(x) - psi'(0))/x``,
since the kernel enforces ``psi'(0) = 0`` and whatever a differentiated
interpolant shows there is rounding that the division by x would magnify.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import adomian
from .errors import BoundInapplicableError, EvaluationError, UsageError
from .expr import STEP, Expression, Joint, eval_scalar, evaluate
from .grids import BOX_POINTS, DENSE_POINTS, value_at_zero, values_at
from .kernels import kernel_bound_m
from .solver import ADOMIAN_IDENTITY, SPECTRAL, ProblemSpec, SolutionSeries, \
    build_baseline

# nothing here calls it; the benchmark's tracer binds the name (ROADMAP item 10)
adomian_coefficients = adomian.adomian_coefficients
_SINGULAR_X = 1e-10
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


def _residual_fn(p, sol, n, method):
    """|L psi_i - f_i(x, psi_1n, psi_2n)|, i = 1, 2, as one function of the points.

    ``residual_at(x)`` takes points of any shape, a stack of point sets
    included, and evaluates psi_1n, psi_2n and the parts of L psi_1n and
    L psi_2n in one :func:`~gfadm.grids.values_at` call, and f_1 and f_2 in
    one evaluation of their join ``p.rhs``.
    """
    if n > sol.n_terms:
        raise UsageError(f"order {n} exceeds stored terms {sol.n_terms}")
    if method == SPECTRAL:  # L psi from psi', psi'' and their values at 0
        psi = [sol.psi(1, n), sol.psi(2, n)]
        parts = [(d1, d1.derivative()) for d1 in (f.derivative() for f in psi)]
        at0 = [[value_at_zero(d) for d in pair] for pair in parts]
        L = lambda i, x, d: _operator_value(p.components[i], *d[2 * i : 2 * i + 2],
                                            *at0[i], x)
    elif method == ADOMIAN_IDENTITY:  # L psi_{i,n} is S_{i,n}, the stored row sum
        if n < 1:
            raise UsageError("adomian_identity needs n >= 1")
        psi = [sol.psi(1, n), sol.psi(2, n)]
        parts, L = [(sol.row_sum(1, n),), (sol.row_sum(2, n),)], lambda i, x, s: s[i]
    else:
        raise UsageError(f"unknown residual method {method!r}")

    def residual_at(x: np.ndarray):
        psi1, psi2, *vals = values_at(psi + [*parts[0], *parts[1]], x)
        return tuple(np.abs(L(i, x, vals) - f)
                     for i, f in enumerate(eval_scalar(p.rhs, x, psi1, psi2)))

    return residual_at


def residual(
    p: ProblemSpec,
    sol: SolutionSeries,
    n: int,
    xs,
    method: str = ADOMIAN_IDENTITY,
) -> ResidualReport:
    """Pointwise residual report at the requested abscissae.

    By the Adomian identity it reads the row sums stored on the solution,
    as :func:`max_residual` does, and expands no f.
    """
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

    The dense stage takes :data:`~gfadm.grids.DENSE_POINTS`, 0, 901 points
    in [0.001, 0.999] and 1; the refinement zooms in on the bracket around
    each component's maximizer, 41 points a round, until the bracket is
    narrower than 1e-10.  A round stacks the point sets of the components
    still refining, shape (2, 41) or, for a component left alone after the
    other has stopped, (1, 41), and makes one call of the residual function
    on them, each component reading its own set.  Every call is one
    :func:`~gfadm.grids.values_at` call and one evaluation of ``p.rhs``.
    By the Adomian identity that is psi_1n, psi_2n and the row sums
    S_{i,n} stored on the solution, since L psi_{i,n} = S_{i,n}: the
    search expands no f.
    With ``weighted=True`` the residual is multiplied by ``x^alpha_i``
    (the defect of the self-adjoint form ``(x^alpha y')' = x^alpha f``),
    which some published benchmark tables report.
    """
    fn = _residual_fn(p, sol, n, method)
    alphas = [c.alpha for c in p.components]

    def weigh(x, i, vals):
        return vals * x ** alphas[i] if weighted else vals

    dense = fn(DENSE_POINTS)
    # component -> the points of its latest set and its values there
    brackets = {i: (DENSE_POINTS, weigh(DENSE_POINTS, i, dense[i])) for i in range(2)}
    peaks = ([], [])
    while True:
        zooms = {}  # component -> the points of its next round
        for i, (zs, vals) in brackets.items():
            j = int(np.argmax(vals))
            peaks[i].append(vals[j])
            lo, hi = zs[max(j - 1, 0)], zs[min(j + 1, zs.size - 1)]
            if hi - lo > 1e-10:
                zooms[i] = np.linspace(lo, hi, 41)
        if not zooms:
            return tuple(float(np.max(pk)) for pk in peaks)
        # the m-th refining component reads its residual at the m-th set
        points = np.stack(list(zooms.values()))
        rs = fn(points)
        brackets = {i: (points[m], weigh(points[m], i, rs[i][m]))
                    for m, i in enumerate(zooms)}


def partials_sup(f: Expression | Joint, box) -> np.ndarray:
    """Sampled sups of |df_i/dy_j| over the box: one row per root, one column per y_j.

    f is one program, an expression or a join such as ``ProblemSpec.rhs``,
    whose roots f_i are the rows; for ``p.rhs`` this is the 2x2 matrix.
    ``box`` is ((x_lo, x_hi), (y1_lo, y1_hi), (y2_lo, y2_hi)), sampled at 11
    values per coordinate as an open grid, shapes (11,1,1), (1,11,1) and
    (1,1,11), so each step is evaluated at the shape its operands span: a
    step that reads no x runs on the 121 (y1, y2) pairs.  The partials are
    exact to rounding, the complex step ``Im f(y + i STEP e_j) / STEP``, but
    the sups are taken over the samples only, so they are estimates, not
    enclosures: a rigorous bound must enclose them.
    A divisor of f that takes both signs, or 0, at the samples raises
    :class:`EvaluationError`: the box is connected, so f has a pole in it.
    """
    (x0, x1), (a0, a1), (b0, b1) = box
    if x1 < x0 or a1 < a0 or b1 < b0:
        raise UsageError("empty Lipschitz box")
    xs = np.linspace(x0, x1, _LIPSCHITZ_SAMPLES)
    ys1 = np.linspace(a0, a1, _LIPSCHITZ_SAMPLES)
    ys2 = np.linspace(b0, b1, _LIPSCHITZ_SAMPLES)
    gx, gy1, gy2 = np.meshgrid(xs, ys1, ys2, indexing="ij", sparse=True)

    def divide(a, b):
        if not (np.all(np.real(b) > 0) or np.all(np.real(b) < 0)):
            raise EvaluationError("a divisor vanishes or changes sign in the box")
        return a / b

    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values raise below
        vals = [[v[r] for r in f.roots]
                for v in (evaluate(f.steps, gx, y1, y2, float, divide)
                          for y1, y2 in ((gy1 + 1j * STEP, gy2), (gy1, gy2 + 1j * STEP)))]
    if not all(np.all(np.isfinite(v)) for row in vals for v in row):
        raise EvaluationError("non-finite value while evaluating expression")
    # STEP is a power of two, so dividing by it is exact
    return np.array([[np.max(np.abs(np.imag(v))) for v in row] for row in vals]).T / STEP


def lipschitz_estimate(f: Expression | Joint, box) -> tuple[float, float]:
    """(l1, l2): the column maxima of :func:`partials_sup`, inflated by 10%.

    l_j is the largest sampled |df_i/dy_j| over the roots f_i of f, f1 and
    f2 for the join ``ProblemSpec.rhs``, and raises as
    :func:`partials_sup` does.
    """
    l1, l2 = 1.1 * partials_sup(f, box).max(axis=0)
    return float(l1), float(l2)


def solution_box(sol: SolutionSeries):
    """Rectangle spanned by the computed partial sums, padded.

    Both components' partial sums psi_{i,0..n} are evaluated at the 101
    :data:`~gfadm.grids.BOX_POINTS` in one :func:`~gfadm.grids.values_at`
    call, through the barycentric matrix cached for them on the grid
    backend, and each component's range is read from its own rows.
    """
    k = sol.n_terms + 1
    vals = values_at([sol.psi(i, n) for i in (1, 2) for n in range(k)], BOX_POINTS)
    ranges = []
    for rows in (vals[:k], vals[k:]):
        lo, hi = float(rows.min()), float(rows.max())
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
    """Kernel bound, Lipschitz constants, contraction factor and bounds.

    Each quantity is sampled once: the box of both components' partial sums
    from one evaluation (:func:`solution_box`), (l1, l2) from one open-grid
    sample of the joined f ``p.rhs`` on that box (:func:`lipschitz_estimate`)
    and max |f(x, y10, y20)| from one evaluation at 201 points.
    """
    m = max(kernel_bound_m(c.kernel()) for c in p.components)
    box = solution_box(sol)
    try:
        l1, l2 = lipschitz_estimate(p.rhs, box)
    except EvaluationError as exc:
        raise EvaluationError(f"pole inside Lipschitz box {box}: {exc}") from exc
    gamma = 2.0 * m * max(l1, l2)
    base1, base2 = build_baseline(p)
    xs = np.linspace(0.0, 1.0, 201)
    max_f0 = max(float(np.max(np.abs(f)))
                 for f in eval_scalar(p.rhs, xs, base1(xs), base2(xs)))
    bounds = {}
    if gamma < 1.0:
        bounds = {int(n): error_bound(m, max(l1, l2), max_f0, int(n))
                  for n in n_values}
    return ConvergenceEstimate(m, l1, l2, gamma, max_f0, bounds)
