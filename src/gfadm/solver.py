"""The Green's-function decomposition recursion.

Each component starts from a baseline term that absorbs the boundary data
(a constant c/a, or an affine interpolant for two-sided Dirichlet data).
Every further term is a kernel application of the previous Adomian row:

    y_{i,j}(x) = int_0^1 G_i(x, s) s^(alpha_i) A_{i,j-1}(s) ds.

No undetermined constants appear anywhere; the partial sums
``psi_{i,n} = sum_{j<=n} y_{i,j}`` are the approximants.

Two backends: ``grid`` stores each term as values on a Chebyshev-Lobatto
grid (works for any nonlinearity) and takes each kernel application as the
exact image of the row's interpolant, evaluated at the nodes by one product
with the kernel's cached node matrix (see ``kernels.kernel_apply``); every
row must be resolved by the grid, its last two Chebyshev coefficients below
``RESOLVED`` times its largest, or the solve raises ``NumericError``.
``exact_polynomial`` keeps every term as an exact polynomial via
closed-form monomial images (polynomial nonlinearities only).  Each
component keeps one table of them per solve, one row per exponent, made by
one ``kernel_monomial_image`` call when a row's degree first reaches it;
the image of a row is its coefficients times their table rows, summed
over axis 0 as one array.  A row whose image would pass ``DEGREE_CAP``
raises ``DegreeCapError`` before the table grows.  Both run the same
recursion; they differ in how a row is computed and imaged.  A solve
records f1 and f2 on one series tape, a subexpression they share once,
and extends it once per step: one rows call gives both components' rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from .adomian import adomian_coefficients, adomian_expansion, adomian_polynomial_rows
from .errors import DegreeCapError, NumericError, UsageError
from .expr import Expression, Joint, join, parse_expression
from .grids import GridFunction, Polynomial, chebyshev_coefficient_matrix, grid_nodes
from .kernels import DIRICHLET_DIRICHLET, LANE_EMDEN, KernelSpec, kernel_apply, \
    kernel_monomial_image

GRID = "grid"
EXACT = "exact_polynomial"
DEGREE_CAP = 60
# largest relative size of a grid row's last two Chebyshev coefficients
RESOLVED = 1e-6

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
        if not all(map(math.isfinite, (self.alpha, self.left_value, self.a,
                                       self.b, self.c, self.b / self.a))):
            raise UsageError("alpha, the left value, a, b, c and b/a must be finite")
        if self.left_kind == DIRICHLET and self.b != 0.0:
            raise UsageError(
                "two-sided Dirichlet components support only b = 0 on the right"
            )

    @classmethod
    def make(cls, operator, alpha=0.0, left=NEUMANN_ZERO, left_value=0.0,
             a=1.0, b=0.0, c=0.0, rhs=""):
        f = parse_expression(rhs) if isinstance(rhs, str) else rhs
        return cls(operator, float(alpha), left, float(left_value),
                   float(a), float(b), float(c), f)

    def kernel(self) -> KernelSpec:
        if self.left_kind == NEUMANN_ZERO:
            return KernelSpec(LANE_EMDEN, alpha=self.alpha,
                              robin_shift=self.b / self.a)
        return KernelSpec(DIRICHLET_DIRICHLET)


@dataclass(frozen=True)
class ProblemSpec:
    """The full coupled boundary value problem."""

    component1: ComponentSpec
    component2: ComponentSpec
    name: str = ""

    @property
    def components(self):
        return (self.component1, self.component2)

    @cached_property
    def rhs(self) -> Joint:
        """f1 and f2 as one program (see :func:`~gfadm.expr.join`), joined once."""
        return join([c.rhs for c in self.components])


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
    """Computed term functions y_{i,0..n} plus the Adomian rows behind them.

    Terms and rows are Polynomials (exact backend) or GridFunctions (grid
    backend); the partial sums psi_{i,n} and the row sums
    S_{i,n} = sum_{j<n} A_{i,j}, which are L psi_{i,n}, are formed once, in
    the same type.
    """

    problem: ProblemSpec
    terms1: list
    terms2: list
    rows1: list  # A_{1,j}, j = 0..n-1
    rows2: list
    _sums: tuple = field(init=False, repr=False)
    _row_sums: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if not len(self.rows1) == len(self.rows2) == self.n_terms:
            raise UsageError(f"a solution of order {self.n_terms} needs"
                             f" {self.n_terms} Adomian rows per component")
        self._sums = (list(accumulate(self.terms1)), list(accumulate(self.terms2)))
        self._row_sums = (list(accumulate(self.rows1)), list(accumulate(self.rows2)))

    @property
    def n_terms(self) -> int:
        return len(self.terms1) - 1

    def psi(self, component: int, n: int):
        """The partial sum psi_{component,n}, in the type of the terms."""
        if not 0 <= n <= self.n_terms:
            raise UsageError(f"partial-sum order {n} outside stored range")
        return self._sums[component - 1][n]

    def row_sum(self, component: int, n: int):
        """S_{component,n} = L psi_{component,n}, in the type of the rows."""
        if not 1 <= n <= self.n_terms:
            raise UsageError(f"row-sum order {n} outside stored range")
        return self._row_sums[component - 1][n - 1]

    def partial_sum(self, component: int, n: int, x):
        return self.psi(component, n)(x)


def evaluate_partial_sum(sol: SolutionSeries, n: int, x: float):
    """(psi_1n(x), psi_2n(x)) from the stored partial sums."""
    if not 0.0 <= x <= 1.0:
        raise UsageError("evaluation point must lie in [0, 1]")
    return (sol.partial_sum(1, n, x), sol.partial_sum(2, n, x))


def _finite(data: np.ndarray, j: int, component: int) -> None:
    if not np.all(np.isfinite(data)):
        raise NumericError(f"term {j + 1} of component {component} is not finite")


def _recurse(p: ProblemSpec, n_terms: int, base, x, rows, image) -> SolutionSeries:
    """y_{i,j} = image(G_i, A_{i,j-1}) for j = 1..n_terms from the terms ``base``.

    ``rows(fs, terms1, terms2, expansion)`` is the last Adomian row of f1
    and of f2 over the terms so far, through their one running expansion
    at ``x``; ``image(kernel, row, j, i)`` is the next term of component i
    from its row j.
    """
    kern = [c.kernel() for c in p.components]
    fs = [c.rhs for c in p.components]
    expansion = adomian_expansion(p.rhs, x)  # f1 and f2 as joined once per problem
    terms = ([base[0]], [base[1]])
    adomian = ([], [])
    for j in range(n_terms):
        new = rows(fs, *terms, expansion)
        for i in range(2):
            adomian[i].append(new[i])
            # an image that overflows raises NumericError from the image's own
            # finiteness check, so numpy's warnings would only repeat it
            with np.errstate(over="ignore", invalid="ignore"):
                terms[i].append(image(kern[i], new[i], j, i + 1))
    return SolutionSeries(p, terms[0], terms[1], adomian[0], adomian[1])


def _solve_grid(p: ProblemSpec, n_terms: int, grid_size: int) -> SolutionSeries:
    nodes = grid_nodes(grid_size)

    def rows(fs, terms1, terms2, expansion):
        blocks = adomian_coefficients(fs, nodes, [t.values for t in terms1],
                                      [t.values for t in terms2], expansion)
        return [GridFunction(a[-1]) for a in blocks]

    def image(kern, row, j, component):
        coeffs = np.abs(chebyshev_coefficient_matrix(grid_size) @ row.values)
        if coeffs[-2:].max() > RESOLVED * coeffs.max():
            raise NumericError(
                f"grid size {grid_size} does not resolve Adomian row {j} of"
                f" component {component}: last coefficients"
                f" {coeffs[-2:].max():.3e} against largest {coeffs.max():.3e};"
                " use a larger grid"
            )
        values = kernel_apply(kern, row, nodes)
        _finite(values, j, component)
        return GridFunction(values)

    base = [GridFunction(b(nodes)) for b in build_baseline(p)]
    return _recurse(p, n_terms, base, nodes, rows, image)


class _MonomialImages:
    """The images of polynomials under one kernel, from a table of monomial images.

    Row m of the table holds the coefficients of ``kernel_monomial_image``
    of x^m, zero-padded, made by one call when a polynomial of degree m or
    more first needs it; rows up to degree ``DEGREE_CAP - 2``, whose images
    reach the cap, fit.  A solve keeps one per component.
    """

    def __init__(self, kern: KernelSpec):
        self.kern = kern
        self.table = np.zeros((DEGREE_CAP - 1, DEGREE_CAP + 1))
        self.known = 0

    def __call__(self, row: Polynomial) -> Polynomial:
        """The image of row: sum over m of c_m J_m, bitwise as Polynomials add."""
        c = row.coeffs
        for m in range(self.known, c.size):
            jm = kernel_monomial_image(self.kern, m).coeffs
            self.table[m, : jm.size] = jm
        self.known = max(self.known, c.size)
        if c.size == 1 and c[0] == 0.0:  # the zero polynomial
            return Polynomial.zero()
        # c_m J_m as Polynomial's product by a number makes it: the + 0.0
        # turns each -0.0 into +0.0, whatever value the reduction starts
        # from.  With no -0.0 addend a padding +0.0, and the row of a zero
        # c_m, add nothing, so the reduction over axis 0, row by row in m
        # order, is bitwise the loop of Polynomial additions over the
        # non-zero c_m (row is trimmed: its last one is c[-1])
        scaled = self.table[: c.size, : c.size + 2] * c[:, None]
        scaled += 0.0
        return Polynomial._of(np.add.reduce(scaled, axis=0))


def _solve_exact(p: ProblemSpec, n_terms: int) -> SolutionSeries:
    def rows(fs, terms1, terms2, expansion):
        return [a[-1] for a in adomian_polynomial_rows(fs, terms1, terms2, expansion)]

    images = [_MonomialImages(c.kernel()) for c in p.components]

    def image(kern, row, j, component):
        if row.degree + 2 > DEGREE_CAP:  # before the table would grow past it
            raise DegreeCapError(
                f"degree {row.degree + 2} of term {j + 1} of component {component}"
                f" exceeds cap {DEGREE_CAP}"
            )
        out = images[component - 1](row)
        _finite(out.coeffs, j, component)
        return out

    return _recurse(p, n_terms, build_baseline(p), Polynomial.identity(), rows, image)


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
