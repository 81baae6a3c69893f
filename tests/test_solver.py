import gc
import math
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from numpy_polynomial import OPERATORS
from reference_exact_image import row_image
from reference_image import image_at

from gfadm import (
    DIRICHLET,
    EXACT,
    GRID,
    NEUMANN_ZERO,
    ComponentSpec,
    DegreeCapError,
    NoConvergenceError,
    NumericError,
    ProblemSpec,
    SingularDivisionError,
    SolutionSeries,
    UnsupportedBackendError,
    UsageError,
    build_baseline,
    catalytic_problem,
    catalytic_symmetric_problem,
    co2_pge_problem,
    evaluate_partial_sum,
    gfadm_solve,
    oxygen_problem,
)
import gfadm.solver
from gfadm.cli import parse_problem_file
from gfadm.adomian import adomian_coefficients, adomian_polynomial_rows
from gfadm.grids import GridFunction, Polynomial, grid_nodes
from gfadm.kernels import DIRICHLET_DIRICHLET, LANE_EMDEN, KernelSpec, _node_image
from gfadm.series import SeriesTape
from gfadm.solver import MAX_GRID_SIZE


class TestComponentSpec:
    def test_lane_emden_requires_regularity(self):
        with pytest.raises(UsageError):
            ComponentSpec.make("lane_emden", alpha=2.0, left=DIRICHLET,
                               left_value=1.0, rhs="y1")

    def test_flat_has_no_shape_factor(self):
        with pytest.raises(UsageError):
            ComponentSpec.make("flat", alpha=2.0, rhs="y1")

    def test_right_condition_needs_a(self):
        with pytest.raises(UsageError):
            ComponentSpec.make("lane_emden", alpha=1.0, a=0.0, b=1.0, c=0.0,
                               rhs="y1")

    def test_unknown_operator(self):
        with pytest.raises(UsageError):
            ComponentSpec.make("heat", rhs="y1")


class TestBaseline:
    def test_example1(self):
        b1, b2 = build_baseline(catalytic_problem())
        assert np.allclose(b1.coeffs, [1.0])
        assert np.allclose(b2.coeffs, [2.0])

    def test_example2(self):
        b1, b2 = build_baseline(oxygen_problem(2.0))
        assert np.allclose(b1.coeffs, [1.0])
        assert np.allclose(b2.coeffs, [1.0])

    def test_example3_affine(self):
        b1, b2 = build_baseline(co2_pge_problem())
        assert np.allclose(b1.coeffs, [1.0, -0.5])  # 1 - 0.5 x
        assert np.allclose(b2.coeffs, [1.0])


def test_first_iterate_with_literal_negative_rhs():
    # rhs written with explicit minus signs: A_{1,0} = -1.8 and the first
    # iterate is its alpha=2 kernel image, y_11 = 0.3 (1 - x^2)
    c1 = ComponentSpec.make("lane_emden", alpha=2.0, left=NEUMANN_ZERO,
                            a=1, b=0, c=1, rhs="-1*y1^2 - 0.4*y1*y2")
    c2 = ComponentSpec.make("lane_emden", alpha=2.0, left=NEUMANN_ZERO,
                            a=1, b=0, c=2, rhs="-0.5*y1^2 - 1*y1*y2")
    sol = gfadm_solve(ProblemSpec(c1, c2), 1, backend=EXACT)
    assert np.allclose(sol.terms1[1].coeffs, [0.3, 0, -0.3], atol=1e-13)


def test_symmetric_components_differ_by_one():
    p = catalytic_symmetric_problem()
    sol = gfadm_solve(p, 8, backend=GRID)
    xs = np.linspace(0, 1, 41)
    for n in range(9):
        d = [sol.partial_sum(2, n, x) - sol.partial_sum(1, n, x) for x in xs]
        assert np.allclose(d, 1.0, atol=1e-10)


def test_backend_agreement():
    p = catalytic_problem()
    grid = gfadm_solve(p, 10, backend=GRID)
    exact = gfadm_solve(p, 10, backend=EXACT)
    for n in (5, 10):
        for x in [0.1 * i for i in range(1, 10)]:
            g = evaluate_partial_sum(grid, n, x)
            e = evaluate_partial_sum(exact, n, x)
            assert abs(g[0] - e[0]) <= 1e-9
            assert abs(g[1] - e[1]) <= 1e-9


def test_boundary_exactness():
    for p in (catalytic_problem(), oxygen_problem(2.0), co2_pge_problem()):
        sol = gfadm_solve(p, 6, backend=GRID)
        for n in range(7):
            v1, v2 = evaluate_partial_sum(sol, n, 1.0)
            assert v1 == pytest.approx(p.component1.c / p.component1.a, abs=1e-9)
            assert v2 == pytest.approx(p.component2.c / p.component2.a, abs=1e-9)


def test_left_derivative_vanishes():
    p = catalytic_problem()
    sol = gfadm_solve(p, 6, backend=GRID)
    for i in (1, 2):
        d = sol.psi(i, 6).derivative()
        assert abs(d(0.0)) <= 1e-6


def test_term_ode_property():
    # each term j >= 1 satisfies L y_ij = A_{i,j-1} (spectral check)
    p = catalytic_problem()
    sol = gfadm_solve(p, 4, backend=GRID)
    interior = np.linspace(0.1, 0.9, 17)
    for i, comp in enumerate(p.components, start=1):
        terms = (sol.terms1, sol.terms2)[i - 1]
        rows = (sol.rows1, sol.rows2)[i - 1]
        for j in range(1, 5):
            d1 = terms[j].derivative()
            d2 = d1.derivative()
            for x in interior:
                lhs = d2(x) + comp.alpha / x * d1(x)
                assert abs(lhs - rows[j - 1](x)) <= 1e-6


def test_exact_backend_rejects_division():
    p = oxygen_problem(2.0)
    with pytest.raises(UnsupportedBackendError):
        gfadm_solve(p, 2, backend=EXACT)


@pytest.mark.filterwarnings("error")
def test_row_overflow_is_typed_without_warnings():
    c1 = ComponentSpec.make("lane_emden", alpha=2.0, c=1.0, rhs="1e200*y1^2")
    c2 = ComponentSpec.make("lane_emden", alpha=2.0, c=2.0, rhs="0")
    with pytest.raises(NumericError, match="Adomian row"):
        gfadm_solve(ProblemSpec(c1, c2), 3, backend=EXACT)


def test_exact_backend_alpha1_matches_grid():
    c1 = ComponentSpec.make("lane_emden", alpha=1.0, left=NEUMANN_ZERO,
                            a=1, b=0, c=1, rhs="y1^2 - 0.5*x*y2")
    c2 = ComponentSpec.make("lane_emden", alpha=1.0, left=NEUMANN_ZERO,
                            a=1, b=0.5, c=2, rhs="0.3*y1*y2")
    p = ProblemSpec(c1, c2)
    exact = gfadm_solve(p, 4, backend=EXACT)
    grid = gfadm_solve(p, 4, backend=GRID)
    for x in (0.0, 0.25, 0.6, 1.0):
        for i in (1, 2):
            assert exact.partial_sum(i, 4, x) == pytest.approx(
                grid.partial_sum(i, 4, x), abs=1e-10)


def test_degree_cap():
    c = ComponentSpec.make("lane_emden", alpha=2.0, left=NEUMANN_ZERO,
                           a=1, b=0, c=1, rhs="y1^3")
    with pytest.raises(DegreeCapError):
        # from a constant baseline every power gives deg y_ij = 2j, the
        # image's 2 per term, so the cap of 60 trips at the 31st term
        gfadm_solve(ProblemSpec(c, c), 31, backend=EXACT)


def _counted_monomial_images(monkeypatch):
    """The (kernel, m) of every ``kernel_monomial_image`` call the solver makes."""
    calls = []
    original = gfadm.solver.kernel_monomial_image

    def counted(k, m):
        calls.append((k, m))
        return original(k, m)

    monkeypatch.setattr(gfadm.solver, "kernel_monomial_image", counted)
    return calls


def test_degree_cap_checked_before_the_table_grows(monkeypatch):
    # y_10 = 1 - x makes y1^5 gain 6 degrees per term, deg y_1j = 6j + 1:
    # row 9 has degree 59, past the table's last exponent, DEGREE_CAP - 2
    c1 = ComponentSpec.make("flat", left=DIRICHLET, left_value=1.0, c=0.0,
                            rhs="y1^5")
    c2 = ComponentSpec.make("lane_emden", alpha=2.0, c=1.0, rhs="y1*y2")
    calls = _counted_monomial_images(monkeypatch)
    with pytest.raises(DegreeCapError) as exc:
        gfadm_solve(ProblemSpec(c1, c2), 12, backend=EXACT)
    assert str(exc.value) == "degree 61 of term 10 of component 1 exceeds cap 60"
    # the table of component 1 stopped at row 8's degree, 53
    assert max(m for k, m in calls if k == c1.kernel()) == 53


BUNDLED = [catalytic_problem, catalytic_symmetric_problem,
           lambda: oxygen_problem(1.0), lambda: oxygen_problem(2.0),
           lambda: oxygen_problem(3.0), co2_pge_problem]


# the bundled problems whose right-hand sides are polynomial
EXACT_BUNDLED = [catalytic_problem, catalytic_symmetric_problem]


@pytest.mark.parametrize("backend, make", [(GRID, m) for m in BUNDLED]
                         + [(EXACT, m) for m in EXACT_BUNDLED])
def test_psi_matches_term_sums(backend, make):
    # the stored partial sums against term-by-term sums, the reference
    sol = gfadm_solve(make(), 11, backend=backend)
    kind = GridFunction if backend == GRID else Polynomial
    xs = np.linspace(0.0, 1.0, 101)
    for i, terms in ((1, sol.terms1), (2, sol.terms2)):
        for n in range(sol.n_terms + 1):
            psi = sol.psi(i, n)
            assert isinstance(psi, kind)
            old = sum(t(xs) for t in terms[: n + 1])
            assert np.max(np.abs(psi(xs) - old)) <= 1e-12
            assert sol.partial_sum(i, n, 0.37) == psi(0.37)
    # the stored row sums S_{i,n} = sum_{j<n} A_{i,j} against row-by-row sums
    for i, rows in ((1, sol.rows1), (2, sol.rows2)):
        for n in range(1, sol.n_terms + 1):
            s = sol.row_sum(i, n)
            assert isinstance(s, kind)
            assert np.max(np.abs(s(xs) - sum(r(xs) for r in rows[:n]))) <= 1e-12


@pytest.mark.parametrize("make", BUNDLED)
def test_grid_solve_matches_clenshaw_images(make, monkeypatch):
    """Images through the node matrix agree with Clenshaw's to rounding."""
    p = make()
    fast = gfadm_solve(p, 11)
    monkeypatch.setattr(gfadm.solver, "kernel_apply", image_at)
    slow = gfadm_solve(p, 11)
    for name in ("terms1", "terms2"):
        for a, b in zip(getattr(fast, name), getattr(slow, name), strict=True):
            assert np.max(np.abs(a.values - b.values)) <= 1e-14


@pytest.mark.parametrize("make", BUNDLED)
def test_one_node_matrix_per_kernel_and_grid_size(make, monkeypatch):
    p = make()
    points = []
    apply = gfadm.solver.kernel_apply

    def recorded(k, g, x):
        points.append(x)
        return apply(k, g, x)

    monkeypatch.setattr(gfadm.solver, "kernel_apply", recorded)
    _node_image.cache_clear()
    gfadm_solve(p, 11, grid_size=32)
    info = _node_image.cache_info()
    assert info.misses == len({c.kernel() for c in p.components})
    assert info.hits + info.misses == 22
    # the solver passes the cached nodes, which kernel_apply knows by identity
    assert len(points) == 22 and all(x is grid_nodes(32) for x in points)


def _flat_dirichlet_problem():
    c1 = ComponentSpec.make("flat", left=DIRICHLET, left_value=1.0, a=1, b=0,
                            c=0.5, rhs="0.5*y1*y2 - x^2")
    c2 = ComponentSpec.make("flat", left=NEUMANN_ZERO, a=1, b=0, c=1,
                            rhs="0.3*y1^2 + 0.2*x*y2")
    return ProblemSpec(c1, c2)


def test_exact_backend_flat_dirichlet_matches_grid():
    # a two-sided Dirichlet component runs on the exact backend through the
    # closed-form dirichlet_dirichlet monomial images
    p = _flat_dirichlet_problem()
    exact = gfadm_solve(p, 6, backend=EXACT)
    grid = gfadm_solve(p, 6, backend=GRID)
    assert isinstance(exact.terms1[6], Polynomial)
    xs = np.linspace(0.0, 1.0, 41)
    for i in (1, 2):
        for n in range(7):
            assert np.max(np.abs(exact.psi(i, n)(xs) - grid.psi(i, n)(xs))) <= 1e-10


@pytest.mark.parametrize("problem", [catalytic_problem, catalytic_symmetric_problem,
                                     _flat_dirichlet_problem])
def test_exact_solve_matches_numpy_polynomial(problem, monkeypatch):
    """The exact backend's series is bitwise the one numpy.polynomial gives.

    The slow side images each row term by term, as a loop of Polynomial
    operations, so that numpy.polynomial does all of its arithmetic.
    """
    p = problem()
    fast = gfadm_solve(p, 11, backend=EXACT)
    for name, op in OPERATORS.items():
        monkeypatch.setattr(Polynomial, name, op)
    monkeypatch.setattr(gfadm.solver._MonomialImages, "__call__",
                        lambda self, row: row_image(self.kern, row))
    slow = gfadm_solve(p, 11, backend=EXACT)
    for name in ("terms1", "terms2", "rows1", "rows2"):
        for a, b in zip(getattr(fast, name), getattr(slow, name), strict=True):
            assert a.coeffs.tobytes() == b.coeffs.tobytes()
    for i in (1, 2):
        for n in range(12):
            assert fast.psi(i, n).coeffs.tobytes() == slow.psi(i, n).coeffs.tobytes()


IMAGE_KERNELS = [KernelSpec(LANE_EMDEN, alpha=a, robin_shift=r)
                 for a in (0.0, 1.0, 2.0, 3.0) for r in (0.0, 0.5)]
IMAGE_KERNELS.append(KernelSpec(DIRICHLET_DIRICHLET))


def _image_rows():
    """Rows of degree 0..DEGREE_CAP - 2 with zero and -0.0 coefficients."""
    rng = np.random.default_rng(21)
    rows = [Polynomial([0.0]), Polynomial([-0.0]), Polynomial([-0.0, 0.0, 1.0]),
            # no positive coefficient: every c_m * 0.0 is -0.0 before the + 0.0
            Polynomial([-3.0]), Polynomial([-1.0, -0.0, -2.5]),
            Polynomial([0.0, -0.0, 0.0, -1.0]),
            Polynomial([1.0, 1e-320])]  # the top term of the image underflows
    for d in range(gfadm.solver.DEGREE_CAP - 1):
        c = rng.normal(size=d + 1) * 10.0 ** rng.integers(-30, 30, size=d + 1)
        c[rng.random(d + 1) < 0.3] = 0.0
        c[rng.random(d + 1) < 0.3] = -0.0
        c[-1] = rng.choice([-1.0, 1.0]) * rng.random()
        rows.append(Polynomial(c))
    return rows


@pytest.mark.parametrize("kern", IMAGE_KERNELS)
def test_row_image_matches_term_by_term_reference(kern):
    """The table's image is bitwise the per-monomial loop's, however it grows."""
    rows = _image_rows()
    assert rows[-1].degree == gfadm.solver.DEGREE_CAP - 2
    growing = gfadm.solver._MonomialImages(kern)
    for row in rows + rows[::-1]:
        slow = row_image(kern, row).coeffs.tobytes()
        assert growing(row).coeffs.tobytes() == slow
        # a fresh table, grown to the row's degree by one call
        assert gfadm.solver._MonomialImages(kern)(row).coeffs.tobytes() == slow
    assert growing.known == gfadm.solver.DEGREE_CAP - 1  # it never shrinks


@pytest.mark.parametrize("make, count", [(catalytic_problem, 2 * 21),
                                         (_flat_dirichlet_problem, 2 * 33)])
def test_one_monomial_image_per_exponent_component_and_solve(make, count,
                                                             monkeypatch):
    # row 10 has degree 20 in both catalytic components, and 32 in both
    # components of the flat Dirichlet problem
    p = make()
    calls = _counted_monomial_images(monkeypatch)
    for _ in range(2):  # a second solve makes its own tables
        calls.clear()
        sol = gfadm_solve(p, 11, backend=EXACT)
        expected = [(c.kernel(), m)
                    for c, rows in zip(p.components, (sol.rows1, sol.rows2))
                    for m in range(max(r.degree for r in rows) + 1)]
        assert sorted(calls, key=repr) == sorted(expected, key=repr)
        assert len(calls) == count


def test_non_finite_parameters_rejected():
    for kw in ({"alpha": float("nan")}, {"alpha": float("inf")},
               {"a": float("inf")}, {"b": float("nan")}, {"c": float("-inf")},
               {"a": 1e-300, "b": 1e300}):
        with pytest.raises(UsageError, match="finite"):
            ComponentSpec.make("lane_emden", **{"alpha": 2.0, "rhs": "y1", **kw})
    with pytest.raises(UsageError, match="finite"):
        ComponentSpec.make("flat", left=DIRICHLET, left_value=float("nan"),
                           rhs="y1")


def test_unresolved_grid_raises():
    with pytest.raises(NumericError, match="grid size 8 .* row 4 of component 1"):
        gfadm_solve(catalytic_problem(), 11, grid_size=8)


@pytest.mark.parametrize("grid_size", [16, 32, 64])
@pytest.mark.parametrize("make", BUNDLED)
def test_bundled_problems_resolved(make, grid_size):
    sol = gfadm_solve(make(), 11, grid_size=grid_size)
    assert sol.n_terms == 11


def test_usage_errors():
    p = catalytic_problem()
    with pytest.raises(UsageError):
        gfadm_solve(p, 0)
    with pytest.raises(UsageError):
        gfadm_solve(p, 2, backend="bogus")
    sol = gfadm_solve(p, 2)
    with pytest.raises(UsageError):
        evaluate_partial_sum(sol, 3, 0.5)
    with pytest.raises(UsageError):
        evaluate_partial_sum(sol, 2, 1.5)
    for n in (0, 3):
        with pytest.raises(UsageError, match="row-sum order"):
            sol.row_sum(1, n)
    # a solution carries one Adomian row per component and term after the first
    for rows1, rows2 in ((sol.rows1[:1], sol.rows2), (sol.rows1, sol.rows2 + sol.rows2[:1])):
        with pytest.raises(UsageError, match="needs 2 Adomian rows"):
            SolutionSeries(p, sol.terms1, sol.terms2, rows1, rows2)


def test_zero_rhs_keeps_baseline():
    c1 = ComponentSpec.make("lane_emden", alpha=2.0, left=NEUMANN_ZERO,
                            a=1, b=0, c=1, rhs="0")
    c2 = ComponentSpec.make("lane_emden", alpha=2.0, left=NEUMANN_ZERO,
                            a=1, b=0, c=2, rhs="0")
    sol = gfadm_solve(ProblemSpec(c1, c2), 3, backend=GRID)
    for x in (0.0, 0.4, 1.0):
        assert evaluate_partial_sum(sol, 3, x) == (pytest.approx(1.0, abs=1e-12),
                                                   pytest.approx(2.0, abs=1e-12))


def test_robin_right_condition():
    # y'' + (2/x) y' = -6 with y'(0)=0, y(1) + y'(1) = 1:
    # y = c - x^2 with y' = -2x; BC: (c - 1) + (-2) = 1 -> c = 4
    c1 = ComponentSpec.make("lane_emden", alpha=2.0, left=NEUMANN_ZERO,
                            a=1, b=1, c=1, rhs="-6")
    c2 = ComponentSpec.make("lane_emden", alpha=2.0, left=NEUMANN_ZERO,
                            a=1, b=0, c=1, rhs="0")
    sol = gfadm_solve(ProblemSpec(c1, c2), 1, backend=GRID)
    for x in (0.0, 0.5, 1.0):
        assert sol.partial_sum(1, 1, x) == pytest.approx(4 - x**2, abs=1e-9)


def _robin_alpha1_problem():
    c1 = ComponentSpec.make("lane_emden", alpha=1.0, left=NEUMANN_ZERO,
                            a=1, b=0.5, c=1, rhs="y1^2 - 0.5*x*y2")
    c2 = ComponentSpec.make("lane_emden", alpha=1.0, left=NEUMANN_ZERO,
                            a=1, b=0.5, c=2, rhs="0.3*y1*y2")
    return ProblemSpec(c1, c2)


def _one_shot_rows(monkeypatch):
    """Have the solver expand every row afresh, each f on its own tape."""
    monkeypatch.setattr(gfadm.solver, "adomian_coefficients",
                        lambda fs, x, t1, t2, expansion:
                        [adomian_coefficients(f, x, t1, t2) for f in fs])
    monkeypatch.setattr(gfadm.solver, "adomian_polynomial_rows",
                        lambda fs, t1, t2, expansion:
                        [adomian_polynomial_rows(f, t1, t2) for f in fs])


def _solve_bytes(p, n, backend):
    """Every term and row of a solve as bytes, or the error it raises."""
    try:
        sol = gfadm_solve(p, n, backend=backend)
    except Exception as exc:
        return type(exc), str(exc)
    return [(t.values if backend == GRID else t.coeffs).tobytes()
            for name in ("terms1", "terms2", "rows1", "rows2")
            for t in getattr(sol, name)]


RUNNING_PROBLEMS = BUNDLED + [_robin_alpha1_problem, _flat_dirichlet_problem]


@pytest.mark.parametrize("n", [11, 20])
@pytest.mark.parametrize("backend, make", [(GRID, m) for m in RUNNING_PROBLEMS]
                         + [(EXACT, m) for m in EXACT_BUNDLED]
                         + [(EXACT, _robin_alpha1_problem),
                            (EXACT, _flat_dirichlet_problem)])
def test_running_rows_match_one_shot(backend, make, n, monkeypatch):
    """Rows from the joint running expansion are bitwise each f's one-shot rows."""
    p = make()
    running = _solve_bytes(p, n, backend)
    _one_shot_rows(monkeypatch)
    assert running == _solve_bytes(p, n, backend)
    assert isinstance(running, list) or running[0] is DegreeCapError


def _pole_problem():
    # the divisor y1 - 2x vanishes at x = 0.5, a node of every even grid
    c1 = ComponentSpec.make("lane_emden", alpha=2.0, c=1.0, rhs="y2/(y1 - 2*x)")
    c2 = ComponentSpec.make("lane_emden", alpha=2.0, c=2.0, rhs="y1*y2")
    return ProblemSpec(c1, c2)


def _overflow_problem(rhs="1e200*y1^2"):
    c1 = ComponentSpec.make("lane_emden", alpha=2.0, c=1.0, rhs=rhs)
    c2 = ComponentSpec.make("lane_emden", alpha=2.0, c=2.0, rhs="0")
    return ProblemSpec(c1, c2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("make, backend, error", [
    (_pole_problem, GRID, SingularDivisionError),
    (_overflow_problem, GRID, NumericError),
    (_overflow_problem, EXACT, NumericError),
    # overflows in x alone, where the running expansion is built
    (lambda: _overflow_problem("1e300*x*1e300*y1"), GRID, NumericError),
    (lambda: _overflow_problem("1e300*x*1e300*y1"), EXACT, NumericError),
    (lambda: oxygen_problem(2.0), EXACT, UnsupportedBackendError),
])
def test_running_rows_fail_as_one_shot(make, backend, error, monkeypatch):
    p = make()
    outcomes = []
    for _ in range(2):
        with pytest.raises(error) as exc:
            gfadm_solve(p, 4, backend=backend)
        outcomes.append((str(exc.value), getattr(exc.value, "location", None)))
        _one_shot_rows(monkeypatch)
    assert outcomes[0] == outcomes[1]
    if error is SingularDivisionError:
        assert outcomes[0][1] == pytest.approx(0.5)


@pytest.mark.parametrize("backend, name", [(GRID, "adomian_coefficients"),
                                           (EXACT, "adomian_polynomial_rows")])
@pytest.mark.parametrize("n", [1, 7])
def test_one_row_call_per_step_and_component(backend, name, n, monkeypatch):
    """One rows call per step gives the rows of both components."""
    calls = []
    original = getattr(gfadm.solver, name)

    def counted(*args):
        calls.append(len(args[-2]))
        return original(*args)

    monkeypatch.setattr(gfadm.solver, name, counted)
    gfadm_solve(catalytic_problem(), n, backend=backend)
    assert calls == [j + 1 for j in range(n)]


def test_exact_row_work_is_quadratic(monkeypatch):
    """A row of order j costs j + 1 pair convolutions per series product, not O(j^2).

    Catalytic's two right-hand sides hold three series products on their
    one tape: y1*y1, which both share, and each its own (k*y1)*y2.  So
    n = 20 takes 3 * (1 + 2 + ... + 20) = 630 convolutions of a coefficient
    pair; a tape per component took 840, and expanding every row afresh at
    each step 6160.
    """
    pairs = []
    original = np.convolve

    def counted(a, b):
        pairs.append(1)
        return original(a, b)

    monkeypatch.setattr(np, "convolve", counted)
    gfadm_solve(catalytic_problem(), 20, backend=EXACT)
    assert len(pairs) == 630


@pytest.mark.parametrize("make, backend", [
    (catalytic_problem, EXACT),
    (lambda: oxygen_problem(2.0), GRID),  # quotients
])
def test_solve_frees_its_expansions_without_the_cyclic_collector(make, backend,
                                                                monkeypatch):
    """The kept expansion, its tape and every coefficient buffer die with the solve."""
    refs = []
    expansion = gfadm.solver.adomian_expansion
    extend = SeriesTape.extend

    def kept(fs, x):
        e = expansion(fs, x)
        tape = e[0].tape
        refs.extend([*map(weakref.ref, e), weakref.ref(tape),
                     *map(weakref.ref, tape.variables)])
        return e

    def extended(tape, *terms):
        extend(tape, *terms)
        refs.append(weakref.ref(tape.buf))  # each growth makes a new buffer

    monkeypatch.setattr(SeriesTape, "extend", extended)
    monkeypatch.setattr(gfadm.solver, "adomian_expansion", kept)
    p = make()
    gc.disable()
    try:
        sol = gfadm_solve(p, 6, backend=backend)
        assert len(refs) > 10 and all(r() is None for r in refs)
    finally:
        gc.enable()
    assert sol.n_terms == 6


DIVERGENT = Path(__file__).parent / "data" / "divergent_series.ini"
PROBLEMS = Path(gfadm.__file__).parent / "problems"
SIX_BUNDLED = [catalytic_problem, catalytic_symmetric_problem, co2_pge_problem,
               lambda: oxygen_problem(1.0), lambda: oxygen_problem(2.0),
               lambda: oxygen_problem(3.0)]


class TestDivergence:
    """A series whose increments grow is reported, not returned as an answer."""

    @pytest.mark.parametrize("backend, n", [(GRID, 4), (GRID, 11), (GRID, 40),
                                            (EXACT, 5), (EXACT, 11)])
    def test_divergent_series_raises(self, backend, n):
        p, _ = parse_problem_file(DIVERGENT)
        with pytest.raises(NoConvergenceError, match="the series diverges"):
            gfadm_solve(p, n, backend=backend)

    def test_divergent_series_below_four_terms_is_returned(self):
        """The check needs n >= 4: at n = 3 the trend rests on two terms."""
        p, _ = parse_problem_file(DIVERGENT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = gfadm_solve(p, 3)
        assert sol.observed_ratio > 1.0

    def test_growth_below_the_first_increment_warns(self):
        """A ratio >= 1 whose last increment is still below the first warns only."""
        c1 = ComponentSpec.make("lane_emden", alpha=1.0, left=NEUMANN_ZERO,
                                a=1, b=0.5, c=1, rhs="y1^2 - 0.5*x*y2")
        c2 = ComponentSpec.make("lane_emden", alpha=1.0, left=NEUMANN_ZERO,
                                a=1, b=0.5, c=2, rhs="0.3*y1*y2")
        for backend in (GRID, EXACT):
            with pytest.warns(UserWarning, match="the series may diverge"):
                sol = gfadm_solve(ProblemSpec(c1, c2), 20, backend=backend)
            assert sol.observed_ratio >= 1.0
            assert 0.0 < sol.increments[-1] < sol.increments[0]

    @pytest.mark.parametrize("n", [11, 20])
    @pytest.mark.parametrize("make", SIX_BUNDLED)
    def test_bundled_problems_are_silent(self, make, n):
        backends = [GRID] + [EXACT] * (make in (catalytic_problem,
                                                catalytic_symmetric_problem))
        for backend in backends:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                sol = gfadm_solve(make(), n, backend=backend)
            assert sol.observed_ratio < 1.0

    def test_bundled_files_are_silent_at_their_order(self):
        for path in sorted(PROBLEMS.glob("*.ini")):
            p, run = parse_problem_file(path)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                gfadm_solve(p, run["n_terms"], backend=run["backend"],
                            grid_size=run["grid_size"])

    @pytest.mark.parametrize("n", [9, 40])
    def test_erratic_single_ratios_do_not_trip_the_check(self, n):
        """co2_pge converges, yet one of its single ratios is 1.61."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = gfadm_solve(co2_pge_problem(), n)
        d = sol.increments
        assert max(b / a for a, b in zip(d, d[1:])) > 1.6
        assert sol.observed_ratio < 0.2

    @pytest.mark.parametrize("make", [catalytic_problem, catalytic_symmetric_problem])
    def test_increments_are_the_node_maxima(self, make):
        """Each backend's d_j is max_i max |y_{i,j}| at the nodes; the exact
        backend's at the 64-grid's nodes, through a product with their powers
        instead of Horner's rule."""
        p = make()
        grid = gfadm_solve(p, 11)
        assert grid.increments == tuple(
            max(np.abs(t1.values).max(), np.abs(t2.values).max())
            for t1, t2 in zip(grid.terms1[1:], grid.terms2[1:]))
        exact = gfadm_solve(p, 11, backend=EXACT)
        nodes = grid_nodes(64)
        expected = [max(np.abs(t1(nodes)).max(), np.abs(t2(nodes)).max())
                    for t1, t2 in zip(exact.terms1[1:], exact.terms2[1:])]
        assert np.allclose(exact.increments, expected, rtol=1e-13, atol=0.0)
        assert np.allclose(exact.increments, grid.increments, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("increments, ratio", [
        ((1.0, 5.0, 2.0, 4.0, 8.0), 2.0),  # the first two terms are left out
        ((9.0, 1.0, 0.5, 0.25), 0.5),
        ((1.0, 2.0, 0.0, 3.0), 0.0),  # a zero increment: the series stopped
        ((1.0, 2.0), math.nan),  # one term in the later half
    ])
    def test_observed_ratio_fits_the_later_half(self, increments, ratio):
        n = len(increments)
        zero = [Polynomial.zero()] * (n + 1)
        sol = SolutionSeries(catalytic_problem(), zero, zero, zero[:n], zero[:n],
                             increments)
        assert sol.observed_ratio == pytest.approx(ratio, rel=1e-14, nan_ok=True)

    def test_observed_ratio_is_the_least_squares_slope(self):
        d = tuple(np.random.default_rng(3).uniform(0.1, 2.0, 9))
        zero = [Polynomial.zero()] * 10
        sol = SolutionSeries(catalytic_problem(), zero, zero, zero[:9], zero[:9], d)
        slope = np.polyfit(np.arange(4, 9), np.log(d[4:]), 1)[0]
        assert sol.observed_ratio == pytest.approx(math.exp(slope), rel=1e-12)


def test_oversized_grid_raises_before_building(monkeypatch):
    """A grid size past the limit is a usage error before any array is
    built; only the limit + 1 is tried."""
    def forbidden(*args):
        raise AssertionError("built the grid")

    monkeypatch.setattr(gfadm.solver, "grid_nodes", forbidden)
    with pytest.raises(UsageError, match="exceeds the largest, 2048"):
        gfadm_solve(catalytic_problem(), 5, grid_size=MAX_GRID_SIZE + 1)
