import importlib.util
import itertools
import random
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
import sympy as sp
from scipy.optimize import minimize_scalar

from gfadm import (
    ADOMIAN_IDENTITY,
    EXACT,
    GRID,
    SPECTRAL,
    BoundInapplicableError,
    ComponentSpec,
    NEUMANN_ZERO,
    ProblemSpec,
    SolutionSeries,
    UsageError,
    catalytic_problem,
    catalytic_symmetric_problem,
    co2_pge_problem,
    adomian_coefficients,
    build_baseline,
    convergence_estimate,
    error_bound,
    eval_scalar,
    gfadm_solve,
    lipschitz_estimate,
    max_residual,
    oxygen_problem,
    parse_expression,
    partials_sup,
    residual,
    solution_box,
    to_text,
)
from gfadm import analysis, expr, grids, series, solver
from gfadm.cli import parse_problem_file
from gfadm.errors import EvaluationError, GfadmError
from gfadm.expr import STEP, join
import reference_bound
import reference_residual as reference

ABSCISSAE = [0.1 * i for i in range(1, 10)]
BUNDLED = {"catalytic": catalytic_problem,
           "symmetric": catalytic_symmetric_problem,
           "oxygen1": lambda: oxygen_problem(1.0),
           "oxygen2": lambda: oxygen_problem(2.0),
           "oxygen3": lambda: oxygen_problem(3.0),
           "co2_pge": co2_pge_problem}



def _pointwise_residual(p, sol, n, x):
    """|sum_{j<n} A_j(x) - f(x, psi1, psi2)| from scalar rows at one point."""
    t1 = [float(t(x)) for t in sol.terms1[: n + 1]]
    t2 = [float(t(x)) for t in sol.terms2[: n + 1]]
    return tuple(
        abs(float(np.sum(adomian_coefficients(c.rhs, x, t1[:n], t2[:n])))
            - eval_scalar(c.rhs, x, sum(t1), sum(t2)))
        for c in p.components
    )


def _pointwise_max_residual(p, sol, n, weighted):
    """The dense search plus bounded refinement, one point at a time."""
    alphas = [c.alpha for c in p.components]

    def r(x, i):
        x = float(np.clip(x, 0.0, 1.0))
        weight = x ** alphas[i] if weighted else 1.0
        return _pointwise_residual(p, sol, n, x)[i] * weight

    xs = np.concatenate(([0.0], np.linspace(0.001, 0.999, 901), [1.0]))
    dense = np.array([[r(x, 0), r(x, 1)] for x in xs])
    out = []
    for i in range(2):
        j = int(np.argmax(dense[:, i]))
        res = minimize_scalar(lambda x: -r(x, i), method="bounded",
                              bounds=(xs[max(j - 1, 0)], xs[min(j + 1, xs.size - 1)]),
                              options={"xatol": 1e-10})
        out.append(max(dense[j, i], -res.fun))
    return out


@pytest.mark.parametrize("make, backend, weighted", [
    (catalytic_problem, EXACT, False),
    (lambda: oxygen_problem(2.0), GRID, True),
    (co2_pge_problem, GRID, False),
])
def test_array_residuals_match_pointwise(make, backend, weighted):
    p = make()
    sol = gfadm_solve(p, 6, backend=backend)
    rep = residual(p, sol, 6, ABSCISSAE)
    for (x, r1), (_, r2) in zip(rep.points1, rep.points2):
        s1, s2 = _pointwise_residual(p, sol, 6, x)
        assert abs(r1 - s1) <= 1e-12 and abs(r2 - s2) <= 1e-12
    fast = max_residual(p, sol, 6, weighted=weighted)
    slow = _pointwise_max_residual(p, sol, 6, weighted)
    assert np.max(np.abs(np.subtract(fast, slow))) <= 1e-12


@pytest.mark.parametrize("make", [catalytic_problem, co2_pge_problem])
def test_array_spectral_residuals_match_single_points(make):
    p = make()
    sol = gfadm_solve(p, 4, backend=GRID)
    xs = [0.0, 1e-12] + ABSCISSAE + [1.0]
    rep = residual(p, sol, 4, xs, method=SPECTRAL)
    for (x, r1), (_, r2) in zip(rep.points1, rep.points2):
        one = residual(p, sol, 4, [x], method=SPECTRAL)
        assert abs(one.points1[0][1] - r1) <= 1e-12
        assert abs(one.points2[0][1] - r2) <= 1e-12


@pytest.mark.parametrize("make", [catalytic_problem, catalytic_symmetric_problem,
                                  lambda: oxygen_problem(1.0),
                                  lambda: oxygen_problem(2.0),
                                  lambda: oxygen_problem(3.0),
                                  co2_pge_problem])
def test_method_agreement_of_maxima(make):
    """No roundoff spike at the singular point in the spectral maxima."""
    p = make()
    sol = gfadm_solve(p, 11, backend=GRID)
    for n in range(1, 12):
        spec = max_residual(p, sol, n, method=SPECTRAL)
        adom = max_residual(p, sol, n, method=ADOMIAN_IDENTITY)
        for a, b in zip(spec, adom):
            assert abs(a - b) <= 1e-6 + 1e-3 * b, (n, spec, adom)


def test_zero_rhs_zero_residual():
    c1 = ComponentSpec.make("lane_emden", alpha=2.0, left=NEUMANN_ZERO,
                            a=1, b=0, c=1, rhs="0")
    c2 = ComponentSpec.make("lane_emden", alpha=2.0, left=NEUMANN_ZERO,
                            a=1, b=0, c=2, rhs="0")
    p = ProblemSpec(c1, c2)
    sol = gfadm_solve(p, 3, backend=GRID)
    for method in (SPECTRAL, ADOMIAN_IDENTITY):
        rep = residual(p, sol, 3, ABSCISSAE, method=method)
        assert all(r <= 1e-9 for _, r in rep.points1)
        assert all(r <= 1e-9 for _, r in rep.points2)


@pytest.mark.parametrize("make", [catalytic_problem, catalytic_symmetric_problem,
                                  lambda: oxygen_problem(1.0),
                                  lambda: oxygen_problem(2.0),
                                  lambda: oxygen_problem(3.0),
                                  co2_pge_problem])
def test_method_agreement(make):
    p = make()
    sol = gfadm_solve(p, 5, backend=GRID)
    spec = residual(p, sol, 5, ABSCISSAE, method=SPECTRAL)
    adom = residual(p, sol, 5, ABSCISSAE, method=ADOMIAN_IDENTITY)
    for (x, a), (_, b) in zip(spec.points1 + spec.points2,
                              adom.points1 + adom.points2):
        assert abs(a - b) <= 1e-6 + 1e-3 * max(a, b)


def test_max_dominates_pointwise():
    p = catalytic_problem()
    sol = gfadm_solve(p, 5, backend=GRID)
    rep = residual(p, sol, 5, ABSCISSAE)
    m1, m2 = max_residual(p, sol, 5)
    assert m1 >= max(r for _, r in rep.points1)
    assert m2 >= max(r for _, r in rep.points2)


def test_residual_order_check():
    p = catalytic_problem()
    sol = gfadm_solve(p, 3, backend=GRID)
    with pytest.raises(UsageError):
        residual(p, sol, 4, [0.5])
    with pytest.raises(UsageError):
        residual(p, sol, 3, [0.5], method="bogus")


@pytest.mark.parametrize("xs", [[1.5, -0.2], [0.5, float("nan")]])
def test_residual_abscissae_check(xs):
    p = catalytic_problem()
    sol = gfadm_solve(p, 4, backend=GRID)
    with pytest.raises(UsageError, match=r"abscissae must lie in \[0, 1\]"):
        residual(p, sol, 4, xs)


# per method, a problem whose grid search at n = 6 has zoom rounds of one
# component alone, and that component's index
SOLO_ROUNDS = {SPECTRAL: (catalytic_problem, 1),
               ADOMIAN_IDENTITY: (lambda: oxygen_problem(2.0), 0)}


@pytest.mark.parametrize("method", [ADOMIAN_IDENTITY, SPECTRAL])
def test_both_components_take_one_joined_evaluation(method, monkeypatch):
    """Every evaluation of f in analysis is one call of the join ``p.rhs``.

    The pointwise report, the dense stage of the search, every zoom round
    while both components refine (their two point sets stacked, (2, 41)),
    every round of a component left refining alone ((1, 41)) and the
    bound's max |f(x, y10, y20)|, made once per problem by ``solver``, each
    make one call.
    """
    p = SOLO_ROUNDS[method][0]()
    sol = gfadm_solve(p, 6, backend=GRID)
    assert p.rhs is p.rhs and len(p.rhs.roots) == 2  # joined once per problem
    calls = []

    def counted(e, x, *args):
        calls.append((e, np.shape(x)))
        return eval_scalar(e, x, *args)

    monkeypatch.setattr(analysis, "eval_scalar", counted)
    monkeypatch.setattr(solver, "eval_scalar", counted)
    residual(p, sol, 6, ABSCISSAE, method)
    assert calls == [(p.rhs, (9,))]
    calls.clear()
    max_residual(p, sol, 6, method)
    assert all(e is p.rhs for e, _ in calls)
    shapes = [shape for _, shape in calls]
    both = shapes.count((2, 41))
    assert shapes[0] == grids.DENSE_POINTS.shape and both > 1
    # the rounds of the component left alone come last
    alone = shapes[1 + both:]
    assert shapes[1 : 1 + both] == [(2, 41)] * both and alone == [(1, 41)] * len(alone)
    assert alone
    calls.clear()
    convergence_estimate(p, sol, [1])
    assert calls == [(p.rhs, (201,))]



def test_bound_evaluates_max_f0_once_per_problem(monkeypatch):
    """max |f(x, y10, y20)| depends on the problem alone: it is made by one
    201-point evaluation on a problem's first estimate, kept on the problem,
    and equals that evaluation's value bitwise."""
    p = catalytic_problem()
    sol = gfadm_solve(p, 5, backend=GRID)
    xs = np.linspace(0.0, 1.0, 201)
    base1, base2 = build_baseline(p)
    want = max(float(np.max(np.abs(f)))
               for f in eval_scalar(p.rhs, xs, base1(xs), base2(xs)))
    sizes = []

    def counted(e, x, *args):
        sizes.append(np.size(x))
        return eval_scalar(e, x, *args)

    monkeypatch.setattr(analysis, "eval_scalar", counted)
    monkeypatch.setattr(solver, "eval_scalar", counted)
    first = convergence_estimate(p, sol, [2])
    assert sizes == [201]
    second = convergence_estimate(p, gfadm_solve(p, 7, backend=GRID), [3])
    assert sizes == [201]
    assert first.max_f0 == second.max_f0 == want
    # an equal problem read again evaluates its own
    assert convergence_estimate(catalytic_problem(), sol, [2]).max_f0 == want
    assert sizes == [201, 201]

def _record_calls(monkeypatch, module):
    """Each call of the module's residual functions: the shape of its
    points for ``analysis``, the components it asks for in the reference.
    """
    seen, make_fn = [], module._residual_fn

    def counted_fn(*args, **kwargs):
        fn = make_fn(*args, **kwargs)

        def residual_at(x, components=(0, 1)):
            seen.append(components)
            return fn(x, components)

        def joined_residual_at(x):
            seen.append(np.shape(x))
            return fn(x)

        return residual_at if module is reference else joined_residual_at

    monkeypatch.setattr(module, "_residual_fn", counted_fn)
    return seen


@pytest.mark.parametrize("backend", [EXACT, GRID])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("method", [ADOMIAN_IDENTITY, SPECTRAL])
def test_search_makes_one_call_per_zoom_round(backend, weighted, method, monkeypatch):
    """1 + max(r_1, r_2) residual-function calls, r_i the zoom rounds of
    component i, which the per-component reference search takes in
    1 + r_1 + r_2: weighted catalytic at n = 11 makes 7 against 13.
    """
    p = catalytic_problem()
    sol = gfadm_solve(p, 11, backend=backend)
    calls = _record_calls(monkeypatch, analysis)
    slow_calls = _record_calls(monkeypatch, reference)
    got = max_residual(p, sol, 11, method=method, weighted=weighted)
    assert got == reference.max_residual(p, sol, 11, method, weighted, stored=True)
    rounds = [slow_calls[1:].count((i,)) for i in range(2)]
    assert len(slow_calls) == 1 + sum(rounds)
    assert len(calls) == 1 + max(rounds)
    if weighted:
        assert rounds == [6, 6] and len(calls) == 7


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("method", [ADOMIAN_IDENTITY, SPECTRAL])
def test_lone_rounds_are_bitwise_the_per_component_search(method, weighted, monkeypatch):
    """A search whose component left alone refines through the join, one
    (1, 41) call a round, is bitwise the reference's search component by
    component, each with its own f.  Unweighted, it has such rounds.
    """
    make, alone = SOLO_ROUNDS[method]
    p = make()
    sol = gfadm_solve(p, 6, backend=GRID)
    calls = _record_calls(monkeypatch, analysis)
    slow_calls = _record_calls(monkeypatch, reference)
    got = max_residual(p, sol, 6, method=method, weighted=weighted)
    assert got == reference.max_residual(p, sol, 6, method, weighted, stored=True)
    rounds = [slow_calls[1:].count((i,)) for i in range(2)]
    assert calls.count((1, 41)) == rounds[alone] - rounds[1 - alone]
    if not weighted:  # weighted, both components take 6 rounds
        assert rounds[alone] > rounds[1 - alone]


@pytest.mark.parametrize("name", BUNDLED)
def test_f1_and_f2_are_joined_once_per_problem(name, monkeypatch):
    """Solves on both backends, residuals and the bound use ``p.rhs``.

    Nothing joins f1 and f2 again, and the Lipschitz sample of the join
    is bitwise that of a fresh join, and of the two expressions given apart.
    """
    p = BUNDLED[name]()
    both = p.rhs
    box = ((0.0, 1.0), (0.5, 1.5), (0.5, 2.5))
    fresh = lipschitz_estimate(expr.join([p.component1.rhs, p.component2.rhs]), box)
    apart = [lipschitz_estimate(c.rhs, box) for c in p.components]

    def forbidden(exprs):
        raise AssertionError("f1 and f2 joined again")

    monkeypatch.setattr(expr, "join", forbidden)
    assert not hasattr(analysis, "join")
    assert lipschitz_estimate(both, box) == fresh == tuple(map(max, *apart))
    for backend in [GRID, EXACT] if name in ("catalytic", "symmetric") else [GRID]:
        sol = gfadm_solve(p, 4, backend=backend)
        residual(p, sol, 4, ABSCISSAE)
        max_residual(p, sol, 4)
        convergence_estimate(p, sol, [4])
    assert p.rhs is both


@pytest.mark.parametrize("method", [ADOMIAN_IDENTITY, SPECTRAL])
def test_max_residual_builds_one_matrix_per_point_set(method, monkeypatch):
    """One barycentric matrix per point set: the dense set's once per grid
    size and process, every zoom round's on every call.

    The search keeps nothing on the solution; the dense matrix is cached in
    ``grids`` for the constant DENSE_POINTS, which the search passes as is.
    """
    p = catalytic_problem()
    sols = [gfadm_solve(p, 11, backend=GRID, grid_size=size) for size in (64, 32)]
    builds, point_sets = [], []
    build, make_fn = grids._barycentric_matrix, analysis._residual_fn

    def counted_build(n, xs):
        builds.append(xs.copy())
        return build(n, xs)

    def counted_fn(*args, **kwargs):
        fn = make_fn(*args, **kwargs)

        def residual_at(x, *rest):
            point_sets.append(x)
            return fn(x, *rest)

        return residual_at

    monkeypatch.setattr(grids, "_barycentric_matrix", counted_build)
    monkeypatch.setattr(analysis, "_residual_fn", counted_fn)
    grids._fixed_matrix.cache_clear()
    for sol in sols:
        for call, n in enumerate((11, 7, 11)):
            builds.clear()
            point_sets.clear()
            max_residual(p, sol, n, method=method, weighted=True)
            # the dense set, then one set per zoom round
            dense, *zooms = point_sets
            assert dense is grids.DENSE_POINTS and len(zooms) > 1
            if call == 0:
                assert np.array_equal(builds.pop(0), grids.DENSE_POINTS)
            assert len(builds) == len(zooms)
            assert all(np.array_equal(b, x) for b, x in zip(builds, zooms))


def _perturbed_catalytic(seed):
    """Catalytic with its four rates scaled by seeded factors in [0.8, 1.2]."""
    rates = np.array([1.0, 0.4, 0.5, 1.0]) * np.random.default_rng(seed).uniform(
        0.8, 1.2, 4)
    return catalytic_problem(*rates.tolist())


# the later cases are named: another unnamed lambda would renumber the ids of the rest
SLOW_PATH_CASES = [
    (catalytic_problem, EXACT),
    (catalytic_symmetric_problem, EXACT),
    (catalytic_problem, GRID),
    (lambda: oxygen_problem(2.0), GRID),
    pytest.param(catalytic_symmetric_problem, GRID, id="symmetric-grid"),
    pytest.param(lambda: oxygen_problem(1.0), GRID, id="oxygen1-grid"),
    pytest.param(lambda: oxygen_problem(3.0), GRID, id="oxygen3-grid"),
    pytest.param(co2_pge_problem, GRID, id="co2_pge-grid"),
    pytest.param(lambda: _perturbed_catalytic(1), EXACT, id="rates1-exact"),
    pytest.param(lambda: _perturbed_catalytic(7), GRID, id="rates7-grid"),
]


@pytest.mark.parametrize("method", [ADOMIAN_IDENTITY, SPECTRAL])
@pytest.mark.parametrize("make, backend", SLOW_PATH_CASES)
def test_residuals_are_bitwise_the_slow_path(make, backend, method):
    """The pointwise report and the maxima by both methods are bitwise the
    per-polynomial ones of ``tests/reference_residual.py``, whose matrices
    are all built afresh.

    By the identity both read the stored row sums, as the slow path here
    does; :func:`test_identity_search_matches_the_expanding_slow_path` and
    :func:`test_stored_rows_agree_with_the_report` hold them to a fresh
    expansion of the rows.
    """
    p = make()
    sol = gfadm_solve(p, 7, backend=backend)
    for n in range(1, 8):
        slow = reference._residual_fn(p, sol, n, method, stored=True)
        want = [np.array(slow(np.array(ABSCISSAE)))]
        rep = residual(p, sol, n, ABSCISSAE, method=method)
        got = [np.array([[r for _, r in rep.points1], [r for _, r in rep.points2]])]
        for weighted in (False, True):
            want.append(reference.max_residual(p, sol, n, method, weighted, stored=True))
            got.append(max_residual(p, sol, n, method=method, weighted=weighted))
        for a, b in zip(got, want, strict=True):
            assert np.array(a).tobytes() == np.array(b).tobytes(), (n, a, b)


@pytest.mark.parametrize("make, backend", SLOW_PATH_CASES)
def test_identity_search_matches_the_expanding_slow_path(make, backend):
    """The identity's maxima from the stored rows against the reference,
    which expands the rows afresh at every point set of every order.

    The largest gap seen is 3.1e-15 (oxygen alpha = 2 and 3 on the grid).
    """
    p = make()
    sol = gfadm_solve(p, 11, backend=backend)
    for n in range(1, 12):
        for weighted in (False, True):
            got = max_residual(p, sol, n, weighted=weighted)
            want = reference.max_residual(p, sol, n, ADOMIAN_IDENTITY, weighted)
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-13, (n, got, want)


def _bump(row):
    """1e-9 as a function of the row's type."""
    if isinstance(row, grids.GridFunction):
        return grids.GridFunction(np.full(row.values.size, 1e-9))
    return 1e-9


@pytest.mark.parametrize("name", BUNDLED)
def test_stored_rows_agree_with_the_report(name):
    """The report from the stored rows against the reference's fresh
    expansion of the rows at the table abscissae, to 1e-13 (seen: 4.4e-15).

    Moving stored row A_3 by 1e-9 moves every maximum of order 4 and above,
    and the comparison catches it; orders below 4 do not read A_3.
    """
    p = BUNDLED[name]()
    backends = [GRID, EXACT] if name in ("catalytic", "symmetric") else [GRID]
    xs = np.array(ABSCISSAE)

    def report(sol, n):
        rep = residual(p, sol, n, xs)
        return np.array([[r for _, r in rep.points1], [r for _, r in rep.points2]])

    for backend in backends:
        sol = gfadm_solve(p, 11, backend=backend)
        bumped = SolutionSeries(p, sol.terms1, sol.terms2,
                                sol.rows1[:3] + [sol.rows1[3] + _bump(sol.rows1[3])]
                                + sol.rows1[4:], sol.rows2)
        for n in range(1, 12):
            want = np.array(reference._residual_fn(p, sol, n, ADOMIAN_IDENTITY)(xs))
            assert np.max(np.abs(report(sol, n) - want)) <= 1e-13, (backend, n)
            moved = report(bumped, n)
            assert (np.max(np.abs(moved - want)) > 1e-13) == (n >= 4), (backend, n)
            assert (max_residual(p, bumped, n)[0] != max_residual(p, sol, n)[0]) == (
                n >= 4), (backend, n)


def test_rows_past_the_order_are_never_read():
    """Order n reads the stored rows A_0..A_{n-1} only.

    With terms 1, 0, 1e200, 0, 0, 0 of y1^2, row A_4 holds 1e200^2 = inf;
    order 1 reads only A_0, and gives 0 as the re-expanding reference does.
    """
    c = ComponentSpec.make("lane_emden", alpha=2.0, left=NEUMANN_ZERO, a=1, b=0, c=1,
                           rhs="y1^2")
    p = ProblemSpec(c, c)
    terms = [grids.Polynomial([v]) for v in (1.0, 0.0, 1e200, 0.0, 0.0, 0.0)]
    rows = [grids.Polynomial([v]) for v in (1.0, 0.0, 2e200, 0.0, np.inf)]
    sol = SolutionSeries(p, terms, list(terms), rows, list(rows))
    for weighted in (False, True):
        got = max_residual(p, sol, 1, weighted=weighted)
        assert got == reference.max_residual(p, sol, 1, weighted=weighted) == (0.0, 0.0)


def test_residual_table_expands_no_rows(monkeypatch):
    """Orders 2..11 of one exact solution: the search reads the stored rows.

    No Adomian call and no series tape inside max_residual, and no
    polynomial evaluated by its own call.
    """
    p = catalytic_problem()
    sol = gfadm_solve(p, 11, backend=EXACT)

    def forbidden(*args, **kwargs):
        raise AssertionError("the residual search expanded a row")

    def own_call(self, x):
        raise AssertionError("a polynomial evaluated by its own call")

    monkeypatch.setattr(analysis, "adomian_coefficients", forbidden)
    monkeypatch.setattr(series.SeriesTape, "__init__", forbidden)
    monkeypatch.setattr(grids.Polynomial, "__call__", own_call)
    for n in range(2, 12):
        for weighted in (False, True):
            max_residual(p, sol, n, weighted=weighted)


@pytest.mark.parametrize("make, backend", [(catalytic_problem, EXACT),
                                           (lambda: oxygen_problem(2.0), GRID)])
def test_residual_report_expands_no_rows(make, backend, monkeypatch):
    """The pointwise report reads the stored rows, as the search does.

    No Adomian call and no series tape in a report by either method.
    """
    p = make()
    sol = gfadm_solve(p, 6, backend=backend)

    def forbidden(*args, **kwargs):
        raise AssertionError("the residual report expanded a row")

    monkeypatch.setattr(analysis, "adomian_coefficients", forbidden)
    monkeypatch.setattr(series.SeriesTape, "__init__", forbidden)
    for n in range(1, 7):
        for method in (ADOMIAN_IDENTITY, SPECTRAL):
            residual(p, sol, n, ABSCISSAE, method)


class TestLipschitz:
    def test_linear(self):
        l1, l2 = lipschitz_estimate(join([parse_expression("2*y1"),
                                          parse_expression("2*y1")]),
                                    ((0, 1), (0, 1), (0, 1)))
        # the estimate carries a deliberate 10% safety inflation of the
        # exact partial, which no difference quotient blurs
        assert l1 == pytest.approx(1.1 * 2, rel=1e-15)
        assert l2 == 0.0

    def test_other_variable(self):
        l1, l2 = lipschitz_estimate(join([parse_expression("y2"),
                                          parse_expression("y2")]),
                                    ((0, 1), (0, 1), (0, 1)))
        assert l1 == 0.0
        assert l2 == pytest.approx(1.1, rel=1e-15)

    def test_pole_on_a_sample_raises(self):
        # y1 = 0 is the first sample of y1; the partial in y2 meets 1/0 there
        f = parse_expression("1/y1^2")
        with pytest.raises(EvaluationError):
            lipschitz_estimate(join([f, f]), ((0, 1), (0, 2), (0, 1)))

    def test_pole_between_samples_raises(self):
        # the samples of y1 are 0, 0.1, ..., 1: the pole at 0.55 falls
        # between two of them, where |df/dy1| is 440 at the nearest
        for text in ("1/(y1 - 0.55)", "y2/(x - 0.55)", "y1/(1/(y2 - 0.55))"):
            f = parse_expression(text)
            with pytest.raises(EvaluationError, match="changes sign"):
                lipschitz_estimate(join([f, parse_expression("y1")]),
                                   ((0, 1), (0, 1), (0, 1)))

    def test_divisor_of_one_sign(self):
        # divisors of either sign: |df/dy1| = 1/(2 - y1)^2 is largest at
        # y1 = 1, and |dg/dy2| = 0.5/(y2 + 1)^2 at y2 = 0
        l1, l2 = lipschitz_estimate(join([parse_expression("1/(y1 - 2)"),
                                          parse_expression("0.5/(y2 + 1)")]),
                                    ((0, 1), (0, 1), (0, 1)))
        assert l1 == pytest.approx(1.1, rel=1e-15)
        assert l2 == pytest.approx(1.1 * 0.5, rel=1e-15)

    def test_quadratic_box(self):
        f = parse_expression("-0.5*y1^2 - 0.5*y1*y2")
        l1, _ = lipschitz_estimate(join([f, f]), ((0, 1), (0.8, 2.0), (0.8, 2.0)))
        # max |df/dy1| = |-y1 - 0.5 y2| = 3.0 at the (2, 2) corner
        assert 3.0 <= l1 <= 3.0 * 1.1 + 1e-9

    def test_empty_box(self):
        with pytest.raises(UsageError):
            lipschitz_estimate(join([parse_expression("y1"), parse_expression("y1")]),
                               ((0, 1), (2, 1), (0, 1)))


@pytest.mark.parametrize("name", BUNDLED)
def test_complex_step_partials_match_sympy(name):
    # Im f(y + i STEP e_j) / STEP against sympy's df/dy_j, evaluated in 40
    # digits, at seeded points of the padded solution box.  The partial
    # carries the rounding of the values f is built from: oxygen's
    # 5 y1 y2 / ((1e-4 + y1)(1e-4 + y2)) has partials near 1e-4 made of
    # terms near 5, so there the error is relative to max |f| (seen: 1.3e-15
    # absolute, 4.9e-12 relative to the partial; central differences were
    # off by 4e-7 relative)
    p = BUNDLED[name]()
    _, (a0, a1), (b0, b1) = solution_box(gfadm_solve(p, 5))
    x, y1, y2 = np.random.default_rng(len(name)).uniform(
        (0.0, a0, b0), (1.0, a1, b1), size=(20, 3)).T
    symbols = sp.symbols("x y1 y2")
    for c in p.components:
        f = sp.sympify(to_text(c.rhs), dict(zip(("x", "y1", "y2"), symbols)))
        value = eval_scalar(c.rhs, x, y1, y2)
        steps = (eval_scalar(c.rhs, x, y1 + 1j * STEP, y2),
                 eval_scalar(c.rhs, x, y1, y2 + 1j * STEP))
        for s, stepped in zip(symbols[1:], steps):
            partial = sp.lambdify(symbols, sp.diff(f, s), "mpmath")
            with mpmath.workdps(40):
                want = [float(partial(*map(mpmath.mpf, pt))) for pt in zip(x, y1, y2)]
            assert np.allclose(stepped.imag / STEP, want, rtol=1e-13,
                               atol=1e-14 * np.max(np.abs(value)))
            assert np.allclose(stepped.real, value, rtol=1e-15, atol=0)


class TestErrorBound:
    def test_reference_value(self):
        assert error_bound(1 / 6, 1.0, 1.0, 2) == pytest.approx(1 / 36)

    def test_zero_forcing(self):
        for n in (1, 3, 7):
            assert error_bound(0.2, 0.5, 0.0, n) == 0.0

    def test_gamma_too_large(self):
        with pytest.raises(BoundInapplicableError):
            error_bound(1 / 6, 4.0, 1.0, 2)

    def test_monotone_in_n(self):
        vals = [error_bound(1 / 6, 1.0, 2.5, n) for n in range(1, 8)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_solution_box_covers_partial_sums():
    p = catalytic_problem()
    sol = gfadm_solve(p, 5, backend=GRID)
    (x0, x1), (a0, a1), (b0, b1) = solution_box(sol)
    assert (x0, x1) == (0.0, 1.0)
    for n in range(6):
        for x in np.linspace(0, 1, 21):
            v1, v2 = sol.partial_sum(1, n, x), sol.partial_sum(2, n, x)
            assert a0 <= v1 <= a1
            assert b0 <= v2 <= b1


@pytest.mark.parametrize("make, backend", [
    (m, GRID) for m in (catalytic_problem, catalytic_symmetric_problem,
                        lambda: oxygen_problem(1.0), lambda: oxygen_problem(2.0),
                        lambda: oxygen_problem(3.0), co2_pge_problem)
] + [(catalytic_problem, EXACT), (catalytic_symmetric_problem, EXACT)])
def test_solution_box_matches_term_sums(make, backend):
    # the box from the stored partial sums against term-by-term cumulative
    # sums, the reference, padded by 10% of their range
    sol = gfadm_solve(make(), 11, backend=backend)
    xs = np.linspace(0.0, 1.0, 101)
    want = []
    for terms in (sol.terms1, sol.terms2):
        cum = np.cumsum([t(xs) for t in terms], axis=0)
        lo, hi = cum.min(), cum.max()
        pad = 0.1 * max(hi - lo, 1e-12)
        want.append((lo - pad, hi + pad))
    box = solution_box(sol)
    assert box[0] == (0.0, 1.0)
    assert np.max(np.abs(np.array(box[1:]) - want)) <= 1e-12


def test_convergence_estimate_structure():
    p = catalytic_symmetric_problem()
    sol = gfadm_solve(p, 6, backend=GRID)
    est = convergence_estimate(p, sol, [2, 4, 6])
    assert est.m == pytest.approx(1 / 6, abs=1e-8)
    assert est.gamma == pytest.approx(2 * est.m * est.l, rel=1e-12)
    if est.gamma < 1:
        assert sorted(est.bounds) == [2, 4, 6]
        assert est.bounds[6] < est.bounds[4] < est.bounds[2]


def test_convergence_estimate_reports_a_pole_between_samples():
    # catalytic's solution box, and a right-hand side with a pole at 37% of
    # its y1 range, between the samples at 30% and 40%
    sol = gfadm_solve(catalytic_problem(), 5, backend=GRID)
    _, (a0, a1), _ = solution_box(sol)
    c1, c2 = sol.problem.components
    at = a0 + 0.37 * (a1 - a0)
    pole = ComponentSpec.make("lane_emden", alpha=2.0, left=NEUMANN_ZERO, a=1.0,
                              b=0.0, c=2.0, rhs=f"0.5*y1^2 + y1*y2 + 1e-6/(y1 - {at!r})")
    with pytest.raises(EvaluationError, match="pole inside Lipschitz box"):
        convergence_estimate(ProblemSpec(c1, pole), sol, [2, 4])


BENCH_INPUTS = Path(__file__).parents[1] / "bench" / "inputs.py"


def _benchmark_problems(seed, tmp_path):
    """The benchmark's six problems at this seed, parsed from their problem files."""
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCH_INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs  # its dataclasses look their module up
    spec.loader.exec_module(inputs)
    rng = random.Random(seed)
    problems = {}
    for name in inputs.CATALOGUE:  # drawn in the benchmark's order, from one rng
        path = tmp_path / f"{name}.ini"
        path.write_text(inputs.make_problem(name, rng).ini())
        problems[name] = parse_problem_file(path)[0]
    return problems


def _outcome(fn, *args):
    """fn's value, or the type and message of the GfadmError it raises."""
    try:
        return fn(*args)
    except GfadmError as exc:
        return type(exc), str(exc)


# right-hand sides for the sample against the full grid: x-dependent,
# constant and pure-x roots, divisions and powers, poles on and between
# samples, divisors that change sign, and values that overflow
BOUND_PROGRAMS = ["x*y1^2 + y2", "2", "x^3 - x", "-0.5*y1^2 - 0.5*y1*y2", "1/y1^2",
                  "1/(y1 - 0.55)", "y2/(x - 0.55)", "y1/(1/(y2 - 0.55))",
                  "1/(y1 - 2) + x/(y2 + 1)", "1e300*y1^2*y2"]
BOUND_BOXES = [((0, 1), (0, 1), (0, 1)), ((0, 1), (0, 2), (0, 1)),
               ((0.2, 0.9), (0.8, 2.0), (1.0, 1.5)), ((0, 1), (0, 1e5), (0, 1)),
               ((0, 1), (2, 1), (0, 1))]


class TestBoundSamples:
    """The open-grid sample and the one-call box against the full-grid reference."""

    @pytest.mark.parametrize("first", BOUND_PROGRAMS)
    def test_programs_match_the_full_grid(self, first):
        for second, box in itertools.product(BOUND_PROGRAMS, BOUND_BOXES):
            f = join([parse_expression(first), parse_expression(second)])
            want = _outcome(reference_bound.lipschitz_estimate, f, box)
            # repr tells every float apart, -0.0 from 0.0 included
            assert repr(_outcome(lipschitz_estimate, f, box)) == repr(want), (second, box)

    def test_every_outcome_is_taken(self):
        # the programs above reach every error and finite values
        outcomes = {_outcome(lipschitz_estimate,
                             join([parse_expression(a), parse_expression("y1")]), box)[1]
                    for a in BOUND_PROGRAMS for box in BOUND_BOXES}
        assert {"a divisor vanishes or changes sign in the box",
                "non-finite value while evaluating expression",
                "empty Lipschitz box"} < outcomes
        assert any(isinstance(o, float) for o in outcomes)

    @pytest.mark.parametrize("name, backend", [(name, GRID) for name in BUNDLED]
                             + [("catalytic", EXACT), ("symmetric", EXACT)])
    def test_bundled_problems_match_the_full_grid(self, name, backend):
        p = BUNDLED[name]()
        for n in (1, 4, 11):
            sol = gfadm_solve(p, n, backend=backend)
            box = solution_box(sol)
            assert box == reference_bound.solution_box(sol)
            l1, l2 = reference_bound.lipschitz_estimate(p.rhs, box)
            assert lipschitz_estimate(p.rhs, box) == (l1, l2)
            est = convergence_estimate(p, sol, [n])
            assert (est.l1, est.l2) == (l1, l2)

    @pytest.mark.parametrize("seed", [1, 7])
    def test_benchmark_problems_match_the_full_grid(self, seed, tmp_path):
        for name, p in _benchmark_problems(seed, tmp_path).items():
            exact = name.startswith("catalytic")
            for backend in [GRID, EXACT] if exact else [GRID]:
                sol = gfadm_solve(p, 11, backend=backend)
                box = solution_box(sol)
                assert box == reference_bound.solution_box(sol), (name, backend)
                assert lipschitz_estimate(p.rhs, box) == \
                    reference_bound.lipschitz_estimate(p.rhs, box), (name, backend)

    @pytest.mark.parametrize("text, largest", [("0.5*y1^2 + y1*y2", 121),
                                               ("x*y1^2 + y2", 1331)])
    def test_sample_is_an_open_grid(self, text, largest, monkeypatch):
        """x, y1 and y2 span one axis each; a step that reads no x spans 121 pairs."""
        calls = []

        def recording(steps, x, y1, y2, *args):
            vals = expr.evaluate(steps, x, y1, y2, *args)
            calls.append(([np.shape(v) for v in (x, y1, y2)], [np.size(v) for v in vals]))
            return vals

        monkeypatch.setattr(analysis, "evaluate", recording)
        f = parse_expression(text)
        lipschitz_estimate(join([f, f]), ((0, 1), (0, 1), (0, 1)))
        assert len(calls) == 2
        for shapes, sizes in calls:
            assert shapes == [(11, 1, 1), (1, 11, 1), (1, 1, 11)]
            assert max(sizes) == largest

    def test_bundled_right_hand_sides_read_no_x(self, monkeypatch):
        sizes = []

        def recording(steps, *args):
            vals = expr.evaluate(steps, *args)
            sizes.extend(np.size(v) for v in vals)
            return vals

        monkeypatch.setattr(analysis, "evaluate", recording)
        for make in BUNDLED.values():
            lipschitz_estimate(make().rhs, ((0, 1), (0.5, 1.5), (0.5, 2.5)))
        assert max(sizes) == 121

    @pytest.mark.parametrize("backend", [GRID, EXACT])
    def test_solution_box_makes_one_values_at_call(self, backend, monkeypatch):
        sol = gfadm_solve(catalytic_problem(), 6, backend=backend)
        calls = []

        def counted(funcs, xs):
            calls.append(len(funcs))
            return grids.values_at(funcs, xs)

        monkeypatch.setattr(analysis, "values_at", counted)
        box = solution_box(sol)
        assert calls == [14]
        assert box == reference_bound.solution_box(sol)


class TestPartialsSup:
    def test_linear_partials(self):
        f = join([parse_expression("2*y1 + y2"), parse_expression("-3*y2 + x")])
        sup = partials_sup(f, ((0, 1), (0, 1), (0, 1)))
        # no inflation: the complex step of a linear f is exact
        assert sup.tolist() == [[2.0, 1.0], [0.0, 3.0]]

    @pytest.mark.parametrize("name", BUNDLED)
    def test_one_row_per_root(self, name):
        p = BUNDLED[name]()
        box = ((0.0, 1.0), (0.5, 1.5), (0.5, 2.5))
        sup = partials_sup(p.rhs, box)
        assert sup.shape == (2, 2)
        for row, c in zip(sup, p.components):
            own = partials_sup(c.rhs, box)
            assert own.shape == (1, 2)
            assert row.tolist() == own[0].tolist()

    @pytest.mark.parametrize("name", BUNDLED)
    def test_lipschitz_estimate_is_its_collapse(self, name):
        box = ((0.0, 1.0), (0.5, 1.5), (0.5, 2.5))
        f = BUNDLED[name]().rhs
        l1, l2 = 1.1 * partials_sup(f, box).max(axis=0)
        assert lipschitz_estimate(f, box) == (float(l1), float(l2))

    def test_raises_as_lipschitz_estimate(self):
        for text, box in (("1/(y1 - 0.55)", ((0, 1), (0, 1), (0, 1))),
                          ("y1", ((0, 1), (2, 1), (0, 1)))):
            f = parse_expression(text)
            assert _outcome(partials_sup, f, box) == _outcome(lipschitz_estimate, f, box)

    def test_a_subnormal_complex_step_is_scaled_before_the_inflation(self):
        """The one place the estimate may differ from the full-grid reference.

        A partial below 2^-958 has a subnormal imaginary part at the step,
        which the reference inflated by 10% before scaling by 1 / STEP, and
        so rounded twice; the estimate scales first, then inflates.
        """
        f = parse_expression("1e-300*y1*x")
        box = ((0, 1), (0, 1), (0, 1))
        [[sup, _]] = partials_sup(f, box)
        assert sup * STEP < np.finfo(float).tiny
        got, want = lipschitz_estimate(f, box)[0], reference_bound.lipschitz_estimate(f, box)[0]
        assert got == 1.1 * sup
        # half a subnormal spacing, 2^-1075, scaled by 1 / STEP = 2^64
        assert abs(got - want) <= 2.0**-1011 + np.spacing(got)


def test_bound_validity_desk_scale():
    # Theorem mechanism on the symmetric example: the distance to a
    # high-order reference stays below the theoretical bound
    p = catalytic_symmetric_problem()
    sol = gfadm_solve(p, 30, backend=EXACT)
    est = convergence_estimate(p, sol, range(1, 11))
    assert est.gamma < 1
    xs = np.linspace(0, 1, 101)
    for n in range(1, 11):
        dist = max(
            float(np.max(np.abs([sol.partial_sum(i, n, x) - sol.partial_sum(i, 30, x)
                                 for x in xs])))
            for i in (1, 2)
        )
        assert dist <= est.bounds[n]
