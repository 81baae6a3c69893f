import numpy as np
import pytest
from scipy.interpolate import interp1d

from gfadm import (
    ComponentSpec,
    DIRICHLET,
    NEUMANN_ZERO,
    NoConvergenceError,
    OracleSolution,
    ProblemSpec,
    UsageError,
    catalytic_problem,
    catalytic_symmetric_problem,
    co2_pge_problem,
    fd_solve,
    oxygen_problem,
)
from gfadm import oracle
from gfadm.expr import eval_scalar
from gfadm.oracle import _solve_blocks, _system


def _pair(c1, c2=None):
    return ProblemSpec(c1, c2 if c2 is not None else c1)


def test_manufactured_singular_linear():
    # y'' + (2/x) y' = -6, y'(0)=0, y(1)=0 has the solution 1 - x^2
    c = ComponentSpec.make("lane_emden", alpha=2.0, left=NEUMANN_ZERO,
                           a=1, b=0, c=0, rhs="-6")
    sol = fd_solve(_pair(c), M=64)
    exact = 1 - sol.nodes**2
    assert np.max(np.abs(sol.y1 - exact)) <= 1e-3
    assert np.max(np.abs(sol.y2 - exact)) <= 1e-3


def test_manufactured_quadratic_exact():
    # y'' = 2, y(0)=0, y(1)=1 gives x^2 exactly (scheme exact for quadratics)
    c = ComponentSpec.make("flat", left=DIRICHLET, left_value=0.0,
                           a=1, b=0, c=1, rhs="2")
    sol = fd_solve(_pair(c), M=32)
    assert np.max(np.abs(sol.y1 - sol.nodes**2)) <= 1e-9


def test_symmetric_structure():
    sol = fd_solve(catalytic_symmetric_problem(), M=256)
    assert np.max(np.abs(sol.y2 - sol.y1 - 1.0)) <= 1e-10


@pytest.mark.parametrize("make", [catalytic_problem,
                                  lambda: oxygen_problem(2.0),
                                  co2_pge_problem])
def test_grid_convergence(make):
    p = make()
    ref = fd_solve(p, M=1024)
    prev = None
    for M in (128, 256):
        sol = fd_solve(p, M=M)
        step = 1024 // M
        err = max(np.max(np.abs(sol.values(i) - ref.values(i)[::step]))
                  for i in (1, 2))
        if prev is not None:
            assert 3.0 <= prev / err <= 5.0
        prev = err


def test_values_accessor():
    sol = fd_solve(catalytic_problem(), M=64)
    assert sol.values(1) is sol.y1
    assert sol.values(2) is sol.y2
    assert sol.residual_norm <= 1e-9


def test_min_grid():
    with pytest.raises(UsageError):
        fd_solve(catalytic_problem(), M=8)


def _robin():
    # a Robin right end (b != 0) on the log kernel, coupled to a Dirichlet flat
    # component
    c1 = ComponentSpec.make("lane_emden", alpha=1.0, left=NEUMANN_ZERO,
                            a=1, b=0.5, c=1.0, rhs="0.3*y1*y2 - x")
    c2 = ComponentSpec.make("flat", left=DIRICHLET, left_value=0.5,
                            a=2, b=0, c=1.0, rhs="y1^2 - y2")
    return ProblemSpec(c1, c2)


# the four bundled problems and the Robin case
PROBLEMS = {"catalytic": catalytic_problem,
            "symmetric": catalytic_symmetric_problem,
            "oxygen": lambda: oxygen_problem(2.0),
            "co2_pge": co2_pge_problem,
            "robin": _robin}


def _dense(low, mid, upp):
    """The block-tridiagonal matrix of (n, 2, 2) blocks; unknown (i, k) is 2i + k."""
    n = len(mid)
    a = np.zeros((n, 2, n, 2))
    i = np.arange(n)
    a[i, :, i, :] = mid
    a[i[1:], :, i[:-1], :] = low[1:]
    a[i[:-1], :, i[1:], :] = upp[:-1]
    return a.reshape(2 * n, 2 * n)


@pytest.mark.parametrize("name", PROBLEMS)
def test_jacobian_is_derivative_of_defect(name):
    # the Jacobian assembled from its blocks and the Robin rows' y_{M-2}
    # term against central differences of the defect, one column at a
    # time, at a point off the solution
    M = 16
    x, corner, defect, jacobian = _system(PROBLEMS[name](), M)
    z = np.stack([1.0 + 0.3 * x**2, 1.5 - 0.2 * x], axis=1)
    z += 0.01 * np.random.default_rng(0).standard_normal(z.shape)
    jac = _dense(*jacobian(z))
    for k in (0, 1):
        jac[2 * M + k, 2 * (M - 2) + k] = corner[k]
    fd = np.empty_like(jac)
    for col in range(z.size):
        e = np.zeros(z.size)
        e[col] = 1e-6 * (1.0 + abs(z.flat[col]))
        e = e.reshape(z.shape)
        fd[:, col] = (defect(z + e) - defect(z - e)).ravel() / (2.0 * e.flat[col])
    assert np.allclose(jac, fd, rtol=1e-6, atol=1e-6)


def _with_rhs(*rhs):
    """Lane-Emden and flat Dirichlet components with the right-hand sides rhs."""
    c1 = ComponentSpec.make("lane_emden", alpha=2.0, left=NEUMANN_ZERO,
                            a=1, b=0.5, c=1.0, rhs=rhs[0])
    c2 = ComponentSpec.make("flat", left=DIRICHLET, left_value=0.5,
                            a=1, b=0, c=1.0, rhs=rhs[1])
    return ProblemSpec(c1, c2)


# the five PROBLEMS and right-hand sides free of y1 and y2
JACOBIAN_CASES = {**PROBLEMS,
                  "constants": lambda: _with_rhs("-6", "2"),
                  "x_only": lambda: _with_rhs("x", "3*x - 1"),
                  "mixed": lambda: _with_rhs("x*y2", "2")}


def _per_column_blocks(p, M, z, monkeypatch):
    """The Jacobian blocks with one evaluation of f per perturbed column."""
    x, _, _, jacobian = _system(p, M)
    with monkeypatch.context() as m:  # f1 = f2 = 0 leaves the stencil's blocks
        m.setattr(oracle, "eval_scalar",
                  lambda e, x, y1, y2: (np.zeros(np.broadcast(x, y1, y2).shape),) * 2)
        low, mid, upp = jacobian(z)
    mask = np.ones_like(z)
    mask[M] = 0.0
    for k, c in enumerate(p.components):
        if c.left_kind != NEUMANN_ZERO:
            mask[0, k] = 0.0

    def f(z):
        return np.stack([np.broadcast_to(eval_scalar(c.rhs, x, z[:, 0], z[:, 1]), x.shape)
                         for c in p.components], axis=1)

    eps = 1e-7 * (1.0 + np.abs(z))
    for j in (0, 1):
        e = np.zeros_like(z)
        e[:, j] = eps[:, j]
        mid[:, :, j] -= mask * (f(z + e) - f(z - e)) / (2.0 * eps[:, j, None])
    return low, mid, upp


@pytest.mark.parametrize("name", JACOBIAN_CASES)
def test_stacked_jacobian_is_per_column_bitwise(name, monkeypatch):
    # the four perturbations evaluated as columns of one call of f1 and f2
    # give the blocks of one evaluation per perturbed column, bit for bit
    M = 64
    p = JACOBIAN_CASES[name]()
    x, _, _, jacobian = _system(p, M)
    z = np.stack([1.0 + 0.3 * x**2, 1.5 - 0.2 * x], axis=1)
    z += 0.01 * np.random.default_rng(1).standard_normal(z.shape)
    z[3] = -0.0  # signed zeros stay as the per-column sums leave them
    for got, want in zip(jacobian(z), _per_column_blocks(p, M, z, monkeypatch)):
        assert got.tobytes() == want.tobytes()


def _counting(monkeypatch):
    """Count eval_scalar calls and defect evaluations in later fd_solve calls."""
    counts = {"eval": 0, "defect": 0}
    system = oracle._system

    def eval_counted(*args):
        counts["eval"] += 1
        return eval_scalar(*args)

    def counted(p, M):
        x, corner, defect, jacobian = system(p, M)

        def defect_counted(z):
            counts["defect"] += 1
            return defect(z)

        return x, corner, defect_counted, jacobian

    monkeypatch.setattr(oracle, "eval_scalar", eval_counted)
    monkeypatch.setattr(oracle, "_system", counted)
    return counts


@pytest.mark.parametrize("name", PROBLEMS)
def test_one_evaluation_per_component_per_newton_step(name, monkeypatch):
    # each defect evaluation makes one call, of f1 and f2 joined, and the
    # Jacobian reuses the call of the defect at the same unknowns: the
    # first guess's and one trial per Newton step, as no step here needs
    # halving
    counts = _counting(monkeypatch)
    sol = fd_solve(PROBLEMS[name](), M=64)
    assert counts["defect"] == sol.iterations + 1
    assert counts["eval"] == counts["defect"]


@pytest.mark.parametrize("n", [1, 2, 3, 31, 32, 33, 64, 65, 512, 513, 1025])
def test_block_solver_matches_dense(n):
    rng = np.random.default_rng(n)
    low, upp = rng.uniform(-1, 1, (2, n, 2, 2))
    mid = 5.0 * np.eye(2) + rng.uniform(-1, 1, (n, 2, 2))  # block diagonally dominant
    low[0], upp[-1] = 0.0, 0.0
    rhs = rng.standard_normal((n, 2))
    want = np.linalg.solve(_dense(low, mid, upp), rhs.ravel()).reshape(n, 2)
    got = _solve_blocks(low, mid, upp, rhs)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _zero_block(index):
    """fd_solve's system with every block of row ``index`` zeroed."""
    def singular(p, M):
        x, corner, defect, jacobian = _system(p, M)

        def zero_row(z):
            low, mid, upp = jacobian(z)
            low[index] = mid[index] = upp[index] = 0.0
            return low, mid, upp

        return x, corner, defect, zero_row

    return singular


@pytest.mark.filterwarnings("error")  # the typed error is the only report
def test_singular_jacobian(monkeypatch):
    # a zero block row makes the Jacobian singular and one block singular
    monkeypatch.setattr(oracle, "_system", _zero_block(5))
    with pytest.raises(NoConvergenceError, match="singular Jacobian"):
        fd_solve(catalytic_problem(), M=64)


@pytest.mark.filterwarnings("error")
def test_singular_jacobian_in_dense_base(monkeypatch):
    # of 65 block rows, row 32 stays even through two levels of reduction
    # (65 -> 33 -> 17 rows) and is never inverted: only the dense solve of
    # the last 17 rows meets its zero pivot
    rng = np.random.default_rng(7)
    low, upp = rng.uniform(-1, 1, (2, 65, 2, 2))
    mid = 5.0 * np.eye(2) + rng.uniform(-1, 1, (65, 2, 2))
    low[32] = mid[32] = upp[32] = 0.0
    solve_dense = oracle._solve_dense
    reached = []

    def spy(low, mid, upp, rhs):
        reached.append(len(mid))
        return solve_dense(low, mid, upp, rhs)

    monkeypatch.setattr(oracle, "_solve_dense", spy)
    assert not np.isfinite(_solve_blocks(low, mid, upp, rng.standard_normal((65, 2)))).any()
    assert reached == [17]
    monkeypatch.setattr(oracle, "_system", _zero_block(32))
    with pytest.raises(NoConvergenceError, match="singular Jacobian"):
        fd_solve(catalytic_problem(), M=64)


@pytest.mark.filterwarnings("error")
def test_failed_line_search_stops_newton(monkeypatch):
    # y'' = -5 - 5 y^2 with y(0) = y(1) = 0 has no solution near the first
    # guess: a step whose 20 halvings all raise the defect ends the solve
    c = ComponentSpec.make("flat", left=DIRICHLET, left_value=0.0,
                           a=1, b=0, c=0, rhs="-5 - 5*y1^2")
    counts = _counting(monkeypatch)
    with pytest.raises(NoConvergenceError, match=r"Newton step \d+: .* defect norm") as err:
        fd_solve(_pair(c), M=256)
    step = int(str(err.value).split()[2].rstrip(":"))
    assert f"{err.value.last_residual:g}" in str(err.value)
    # it stops at the failed step: the first guess, then at most 20 trials a step
    assert step < oracle.MAX_ITERS and counts["defect"] <= 20 * step + 1


def _on_grid(M, fn):
    x = np.linspace(0.0, 1.0, M + 1)
    return OracleSolution(x, fn(x), 2.0 * fn(x), 0, 0.0)


def _spline_gap(sol, xs):
    return max(np.max(np.abs(sol.interpolate(i, xs)
                             - interp1d(sol.nodes, sol.values(i), kind="cubic")(xs)))
               for i in (1, 2))


XS = np.concatenate([np.linspace(0.0, 1.0, 101), [1.0 - 1e-15]])


@pytest.mark.parametrize("M", [512, 513, 1024])
def test_interpolate_matches_cubic_spline(M):
    # on smooth data the local cubic agrees with scipy's not-a-knot spline
    sol = _on_grid(M, lambda x: np.sin(2.0 * x) + 1.0 / (1.5 + x))
    assert _spline_gap(sol, XS) <= 1e-10


@pytest.mark.parametrize("name", PROBLEMS)
def test_interpolate_oracle_matches_cubic_spline(name):
    assert _spline_gap(fd_solve(PROBLEMS[name](), M=512), XS) <= 1e-10


def test_interpolate_exact_on_cubics():
    def cubic(x):
        return 0.7 - 1.3 * x + 2.1 * x**2 - 4.0 * x**3

    sol = _on_grid(16, cubic)
    xs = np.linspace(0.0, 1.0, 97)
    assert np.max(np.abs(sol.interpolate(1, xs) - cubic(xs))) <= 1e-13
    assert np.max(np.abs(sol.interpolate(2, xs) - 2.0 * cubic(xs))) <= 1e-13
    assert sol.interpolate(1, 0.5) == pytest.approx(cubic(0.5), abs=1e-14)


# fd_solve(M=512) at every 64th node, (y1, y2), and its Newton steps, as
# computed by the node-by-node Jacobian assembly the sparse operator replaced
REFERENCE = {
    "catalytic": (
        [0.7813731024843521, 0.7843453776930153, 0.7933375546848149,
         0.8085798495323533, 0.8304702289093364, 0.859597279492301,
         0.8967753718455738, 0.9430958473917586, 1.0],
        [1.690667915458744, 1.694911433903588, 1.707742625500291,
         1.729468721465562, 1.7606200137919257, 1.8019790331659873,
         1.8546253125825696, 1.9200003627091398, 2.0], 3),
    "symmetric": (
        [0.8047401300433236, 0.8074789551958181, 0.8157498865406343,
         0.8297186082266386, 0.8496691546032868, 0.876016374978296,
         0.9093247064660295, 0.9503347649411128, 1.0],
        [1.8047401300433237, 1.8074789551958181, 1.8157498865406343,
         1.8297186082266386, 1.8496691546032868, 1.8760163749782959,
         1.9093247064660295, 1.9503347649411127, 2.0], 3),
    "oxygen": (
        [1.666527270291485, 1.6561126566369342, 1.6248688352562468,
         1.572795866560231, 1.4998938571368574, 1.4061629700308254,
         1.2916034426398466, 1.1562156177811194, 1.0],
        [1.0249958181087446, 1.024605254699108, 1.0234335650576873,
         1.021480750996807, 1.0187468157141057, 1.0152317641009247,
         1.0109356032791954, 1.0058583435334336, 1.0], 2),
    "co2_pge": (
        [1.0, 0.9289199033041945, 0.8605848183775472, 0.7948430257434147,
         0.731548290218195, 0.6705578154382977, 0.6117304576834854,
         0.5549252160509242, 0.5],
        [0.8399199774309083, 0.8427697868604337, 0.8511096198282756,
         0.8646360373811471, 0.8830565691518442, 0.906085622413186,
         0.9334409097246981, 0.9648404292807119, 1.0], 3),
    "robin": (
        [1.205315309705666, 1.2057670277401475, 1.206125774422693,
         1.2049472627453763, 1.2008546757596696, 1.1925382021372137,
         1.1787520438158705, 1.1583078442997985, 1.1300637474658513],
        [0.5, 0.44339430555480563, 0.40255651438166123, 0.37813285561844284,
         0.3704558175601303, 0.37948757581042736, 0.4047730326426753,
         0.44540448256927717, 0.5], 3),
}


@pytest.mark.parametrize("name", REFERENCE)
def test_newton_steps_at_1024(name):
    # the step counts at M = 1024 that the REFERENCE solves' code took
    steps = {"catalytic": 3, "symmetric": 3, "oxygen": 2, "co2_pge": 2, "robin": 3}
    assert fd_solve(PROBLEMS[name](), M=1024).iterations == steps[name]


@pytest.mark.parametrize("name", REFERENCE)
def test_matches_node_by_node_assembly(name):
    ref1, ref2, iterations = REFERENCE[name]
    sol = fd_solve(PROBLEMS[name](), M=512)
    assert sol.iterations == iterations
    assert np.max(np.abs(sol.y1[::64] - ref1)) <= 1e-11
    assert np.max(np.abs(sol.y2[::64] - ref2)) <= 1e-11
