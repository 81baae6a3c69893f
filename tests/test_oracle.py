import numpy as np
import pytest

from gfadm import (
    ComponentSpec,
    DIRICHLET,
    NEUMANN_ZERO,
    ProblemSpec,
    UsageError,
    catalytic_problem,
    catalytic_symmetric_problem,
    co2_pge_problem,
    fd_solve,
    oxygen_problem,
)
from gfadm.oracle import _system


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


@pytest.mark.parametrize("name", PROBLEMS)
def test_jacobian_is_derivative_of_defect(name):
    # the assembled Jacobian against central differences of the defect,
    # one column at a time, at a point off the solution
    x, defect, jacobian = _system(PROBLEMS[name](), 16)
    z = np.concatenate([1.0 + 0.3 * x**2, 1.5 - 0.2 * x])
    z += 0.01 * np.random.default_rng(0).standard_normal(z.size)
    jac = jacobian(z).toarray()
    fd = np.empty_like(jac)
    for k in range(z.size):
        e = np.zeros(z.size)
        e[k] = 1e-6 * (1.0 + abs(z[k]))
        fd[:, k] = (defect(z + e) - defect(z - e)) / (2.0 * e[k])
    assert np.allclose(jac, fd, rtol=1e-6, atol=1e-6)


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
def test_matches_node_by_node_assembly(name):
    ref1, ref2, iterations = REFERENCE[name]
    sol = fd_solve(PROBLEMS[name](), M=512)
    assert sol.iterations == iterations
    assert np.max(np.abs(sol.y1[::64] - ref1)) <= 1e-11
    assert np.max(np.abs(sol.y2[::64] - ref2)) <= 1e-11
