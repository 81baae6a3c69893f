"""The Green's-function decomposition recursion.

Each component starts from a baseline term that absorbs the boundary data
(a constant c/a, or an affine interpolant for two-sided Dirichlet data).
Every further term is a kernel application of the previous Adomian row:

    y_{i,j}(x) = int_0^1 G_i(x, s) s^(alpha_i) A_{i,j-1}(s) ds.

No undetermined constants appear anywhere; the partial sums
``psi_{i,n} = sum_{j<=n} y_{i,j}`` are the approximants.

Two backends: ``grid`` stores each term as values on a Chebyshev-Lobatto
grid (works for any nonlinearity); ``exact_polynomial`` keeps every term as
an exact polynomial via closed-form monomial images (polynomial
nonlinearities and lane_emden kernels only).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adomian import adomian_coefficients, adomian_polynomial_rows
from .errors import DegreeCapError, UnsupportedBackendError, UsageError
from .expr import Expression, contains_division, parse_expression
from .grids import GridFunction, Polynomial, chebyshev_lobatto
from .kernels import DIRICHLET_DIRICHLET, LANE_EMDEN, KernelSpec, kernel_apply, \
    kernel_monomial_image

GRID = "grid"
EXACT = "exact_polynomial"
DEGREE_CAP = 60

NEUMANN_ZERO = "neumann0"
DIRICHLET = "dirichlet"


@dataclass(frozen=True)
class ComponentSpec:
    """One equation of the coupled system."""

    operator: str  # "lane_emden" | "flat"
    alpha: float
    left_kind: str  # NEUMANN_ZERO | DIRICHLET
    left_value: float
    a: float
    b: float
    c: float
    rhs: Expression
    rhs_text: str = ""

    def __post_init__(self):
        if self.operator not in ("lane_emden", "flat"):
            raise UsageError(f"unknown operator {self.operator!r}")
        if self.operator == "flat" and self.alpha != 0.0:
            raise UsageError("flat operator has no shape factor")
        if self.operator == "lane_emden" and self.alpha < 0:
            raise UsageError("shape factor must be >= 0")
        if self.left_kind not in (NEUMANN_ZERO, DIRICHLET):
            raise UsageError(f"unknown left boundary condition {self.left_kind!r}")
        if self.operator == "lane_emden" and self.left_kind != NEUMANN_ZERO:
            raise UsageError("the singular operator requires y'(0) = 0 (regularity)")
        if self.a == 0.0:
            raise UsageError("right boundary condition needs a != 0")
        if self.left_kind == DIRICHLET and self.b != 0.0:
            raise UsageError(
                "two-sided Dirichlet components support only b = 0 on the right"
            )

    @classmethod
    def make(cls, operator, alpha=0.0, left=NEUMANN_ZERO, left_value=0.0,
             a=1.0, b=0.0, c=0.0, rhs=""):
        tree = parse_expression(rhs) if isinstance(rhs, str) else rhs
        text = rhs if isinstance(rhs, str) else ""
        return cls(operator, float(alpha), left, float(left_value),
                   float(a), float(b), float(c), tree, text)

    def kernel(self) -> KernelSpec:
        if self.left_kind == NEUMANN_ZERO:
            return KernelSpec(LANE_EMDEN, alpha=self.alpha,
                              robin_shift=self.b / self.a)
        return KernelSpec(DIRICHLET_DIRICHLET,
                          left_value=self.left_value,
                          right_value=self.c / self.a)


@dataclass(frozen=True)
class ProblemSpec:
    """The full coupled boundary value problem."""

    component1: ComponentSpec
    component2: ComponentSpec
    name: str = ""

    @property
    def components(self):
        return (self.component1, self.component2)


def build_baseline(p: ProblemSpec) -> tuple[Polynomial, Polynomial]:
    """Zeroth terms: satisfy the boundary data exactly, annihilated by L."""
    out = []
    for comp in p.components:
        right = comp.c / comp.a
        if comp.left_kind == NEUMANN_ZERO:
            out.append(Polynomial([right]))
        else:
            u0 = comp.left_value
            out.append(Polynomial([u0, right - u0]))
    return tuple(out)


@dataclass
class SolutionSeries:
    """Computed term functions y_{i,0..n} plus the Adomian rows behind them."""

    backend: str
    problem: ProblemSpec
    terms1: list
    terms2: list
    rows1: list = field(default_factory=list)  # A_{1,j}, j = 0..n-1
    rows2: list = field(default_factory=list)
    nodes: np.ndarray | None = None

    @property
    def n_terms(self) -> int:
        return len(self.terms1) - 1

    def partial_sum(self, component: int, n: int, x):
        terms = self.terms1 if component == 1 else self.terms2
        if not 0 <= n <= self.n_terms:
            raise UsageError(f"partial-sum order {n} outside stored range")
        return sum(t(x) for t in terms[: n + 1])

    def partial_sum_polynomial(self, component: int, n: int) -> Polynomial:
        if self.backend != EXACT:
            raise UnsupportedBackendError("polynomial form needs the exact backend")
        terms = self.terms1 if component == 1 else self.terms2
        if not 0 <= n <= self.n_terms:
            raise UsageError(f"partial-sum order {n} outside stored range")
        out = Polynomial.zero()
        for t in terms[: n + 1]:
            out = out + t
        return out


def evaluate_partial_sum(sol: SolutionSeries, n: int, x: float):
    """(psi_1n(x), psi_2n(x)) from the stored terms."""
    if not 0.0 <= x <= 1.0:
        raise UsageError("evaluation point must lie in [0, 1]")
    return (sol.partial_sum(1, n, x), sol.partial_sum(2, n, x))


def _solve_grid(p: ProblemSpec, n_terms: int, grid_size: int) -> SolutionSeries:
    nodes = chebyshev_lobatto(grid_size)
    base1, base2 = build_baseline(p)
    kern = [c.kernel() for c in p.components]
    f = [c.rhs for c in p.components]

    vals1 = [base1(nodes)]
    vals2 = [base2(nodes)]
    rows1, rows2 = [], []
    for j in range(1, n_terms + 1):
        a1 = adomian_coefficients(f[0], nodes, vals1, vals2)[-1]
        a2 = adomian_coefficients(f[1], nodes, vals1, vals2)[-1]
        g1 = GridFunction(nodes, a1)
        g2 = GridFunction(nodes, a2)
        rows1.append(g1)
        rows2.append(g2)
        vals1.append(np.array([kernel_apply(kern[0], g1, x) for x in nodes]))
        vals2.append(np.array([kernel_apply(kern[1], g2, x) for x in nodes]))

    terms1 = [GridFunction(nodes, v) for v in vals1]
    terms2 = [GridFunction(nodes, v) for v in vals2]
    return SolutionSeries(GRID, p, terms1, terms2, rows1, rows2, nodes)


def _apply_monomial_images(kern: KernelSpec, row: Polynomial) -> Polynomial:
    out = Polynomial.zero()
    for m, cm in enumerate(row.coeffs):
        if cm != 0.0:
            out = out + cm * kernel_monomial_image(kern, m)
    return out


def _solve_exact(p: ProblemSpec, n_terms: int) -> SolutionSeries:
    for comp in p.components:
        if contains_division(comp.rhs):
            raise UnsupportedBackendError(
                "exact backend requires polynomial nonlinearities"
            )
        if comp.kernel().family != LANE_EMDEN:
            raise UnsupportedBackendError("exact backend requires lane_emden kernels")
    base1, base2 = build_baseline(p)
    kern = [c.kernel() for c in p.components]
    f = [c.rhs for c in p.components]

    terms1, terms2 = [base1], [base2]
    rows1, rows2 = [], []
    for j in range(1, n_terms + 1):
        r1 = adomian_polynomial_rows(f[0], terms1, terms2)[-1]
        r2 = adomian_polynomial_rows(f[1], terms1, terms2)[-1]
        rows1.append(r1)
        rows2.append(r2)
        t1 = _apply_monomial_images(kern[0], r1)
        t2 = _apply_monomial_images(kern[1], r2)
        if max(t1.degree, t2.degree) > DEGREE_CAP:
            raise DegreeCapError(
                f"term degree {max(t1.degree, t2.degree)} exceeds cap {DEGREE_CAP}"
            )
        terms1.append(t1)
        terms2.append(t2)
    return SolutionSeries(EXACT, p, terms1, terms2, rows1, rows2)


def gfadm_solve(
    p: ProblemSpec,
    n_terms: int,
    backend: str = GRID,
    grid_size: int = 64,
) -> SolutionSeries:
    """Run the recursion for ``n_terms`` iterations (n_terms + 1 terms)."""
    if n_terms < 1:
        raise UsageError("n_terms must be >= 1")
    if backend == GRID:
        return _solve_grid(p, n_terms, grid_size)
    if backend == EXACT:
        return _solve_exact(p, n_terms)
    raise UsageError(f"unknown backend {backend!r}")
