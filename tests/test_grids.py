import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy_polynomial import OPERATORS, trim

from gfadm import GridFunction, Polynomial, chebyshev_lobatto
from gfadm.errors import UsageError
from gfadm.grids import _barycentric_matrix, value_at_zero, values_at


class TestPolynomial:
    def test_eval_and_deriv(self):
        p = Polynomial([1, 0, 3])  # 1 + 3x^2
        assert p(2.0) == pytest.approx(13.0)
        assert np.allclose(p.derivative().coeffs, [0, 6])

    def test_trailing_zero_trim(self):
        assert Polynomial([1, 2, 0, 0]).degree == 1
        assert Polynomial([0, 0]).degree == 0

    def test_arithmetic(self):
        p = Polynomial([1, 1])
        q = Polynomial([0, 2])
        assert np.allclose((p + q).coeffs, [1, 3])
        assert np.allclose((p - q).coeffs, [1, -1])
        assert np.allclose((p * q).coeffs, [0, 2, 2])
        assert np.allclose((2.0 * p).coeffs, [2, 2])
        assert np.allclose((1.0 - p).coeffs, [0, -1])


# signed zeros, and coefficients whose products underflow to 0
COEFF = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1e-200, -3e-190]))
COEFFS = st.lists(COEFF, min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(a=COEFFS, b=COEFFS, s=st.one_of(COEFF, st.integers(-3, 3)), x=st.floats(-2, 2))
@example(a=[1.0, 1e-200], b=[2.0, 1e-200], s=0.0, x=0.5)  # top coefficient underflows
@example(a=[0.0, -0.0], b=[-0.0], s=-0.0, x=-0.0)  # zero polynomials
@example(a=[-0.0, 1.0, 0.0], b=[0.0, 1.0], s=-2.0, x=1.0)  # -0.0 products of a number
def test_operators_match_numpy_polynomial(a, b, s, x):
    """Every operator is bitwise the numpy.polynomial one, signed zeros included."""
    p, q = Polynomial(a), Polynomial(b)
    assert p.coeffs.tobytes() == trim(a).tobytes()
    op = OPERATORS
    pairs = [
        (p + q, op["__add__"](p, q)), (p + s, op["__add__"](p, s)),
        (s + p, op["__radd__"](p, s)),
        (p - q, op["__sub__"](p, q)), (q - p, op["__sub__"](q, p)),
        (p - p, op["__sub__"](p, p)), (p - s, op["__sub__"](p, s)),
        (s - p, op["__rsub__"](p, s)),
        (p * q, op["__mul__"](p, q)), (q * p, op["__mul__"](q, p)),
        (p * s, op["__mul__"](p, s)), (s * p, op["__rmul__"](p, s)),
        (-p, op["__neg__"](p)), (p.derivative(), op["derivative"](p)),
    ]
    for fast, slow in pairs:
        assert fast.coeffs.tobytes() == slow.coeffs.tobytes()
    for xs in (x, np.array([x, -x, 0.5, 0.0])):
        fast, slow = p(xs), op["__call__"](p, xs)
        assert type(fast) is type(slow)
        assert np.asarray(fast).tobytes() == np.asarray(slow).tobytes()


class TestGrid:
    def test_lobatto_nodes(self):
        nodes = chebyshev_lobatto(4)
        assert nodes[0] == 0.0 and nodes[-1] == 1.0
        assert np.all(np.diff(nodes) > 0)
        assert nodes[2] == pytest.approx(0.5)

    def test_too_small(self):
        with pytest.raises(UsageError):
            chebyshev_lobatto(0)

    def test_interpolation_reproduces_nodes(self):
        nodes = chebyshev_lobatto(16)
        g = GridFunction(np.sin(3 * nodes))
        assert np.allclose(g(nodes), np.sin(3 * nodes), atol=0)

    def test_interpolation_accuracy(self):
        nodes = chebyshev_lobatto(32)
        g = GridFunction(np.exp(np.sin(5 * nodes)))
        xs = np.linspace(0, 1, 113)
        assert np.max(np.abs(g(xs) - np.exp(np.sin(5 * xs)))) <= 1e-10

    def test_spectral_derivative(self):
        nodes = chebyshev_lobatto(32)
        g = GridFunction(np.cos(2 * nodes))
        d = g.derivative()
        xs = np.linspace(0, 1, 57)
        assert np.max(np.abs(d(xs) + 2 * np.sin(2 * xs))) <= 1e-9

    def test_needs_two_values(self):
        with pytest.raises(UsageError):
            GridFunction([1.0])

    @pytest.mark.filterwarnings("error")
    def test_point_nearer_a_node_than_tiny_is_the_node(self):
        # w_j / (x - x_j) would overflow and give inf / inf
        g = GridFunction(np.arange(1.0, 10.0))
        assert g(1e-320) == g(0.0) == 1.0
        assert np.array_equal(values_at([g], [1e-320, 0.0]), [[1.0, 1.0]])

    @pytest.mark.filterwarnings("error")
    def test_point_just_past_tiny_from_a_node_does_not_overflow(self):
        # w_0 / 3e-308 is near the largest float; times 100 it would overflow
        g = GridFunction(np.full(9, 100.0))
        assert g(3e-308) == 100.0
        assert np.array_equal(values_at([g], [3e-308, 1.0 - 1e-16]), [[100.0, 100.0]])
        big = GridFunction(np.linspace(-1e300, 1e300, 9))
        assert big(3e-308) == -1e300

    def test_scalar_call_returns_float(self):
        g = GridFunction(np.arange(9.0))
        assert type(g(0.3)) is float
        assert type(g(0.0)) is float and g(0.0) == 0.0


@pytest.mark.parametrize("scale", [1.0, 1e300])
def test_finite_products_keep_the_barycentric_formula(scale):
    """Off the nodes, every finite interpolation is ``(terms @ v) / den`` bitwise.

    Only a point whose product overflows is computed otherwise.
    """
    rng = np.random.default_rng(3)
    xs = np.concatenate([rng.random(50), [3e-308, 1e-300]])
    v = scale * rng.standard_normal(65)
    terms, den, _ = _barycentric_matrix(64, xs)
    with np.errstate(over="ignore", invalid="ignore"):
        plain = (terms @ v) / den
    finite = np.isfinite(plain)
    g = GridFunction(v)
    for got in (g(xs), values_at([g], xs)[0]):
        assert np.array_equal(got[finite], plain[finite])
        assert np.all(np.isfinite(got))
    assert finite.sum() == (52 if scale == 1.0 else 50)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1, 8, 64])
def test_one_point_call_matches_matrix_row(n):
    """A call at one point is bitwise the one-point row of the matrix path.

    Off the nodes, at them, nearer to them than tiny, just farther, and
    where the products overflow and the terms are rescaled.
    """
    rng = np.random.default_rng(n)
    nodes = chebyshev_lobatto(n)
    tiny = np.finfo(float).tiny
    xs = np.concatenate([rng.random(200), nodes, nodes + tiny / 2, nodes - tiny / 2,
                         nodes + 2 * tiny, [3e-308, 1e-300, 1e-320, -0.0]])
    for scale in (1.0, 100.0, 1e300):
        g = GridFunction(scale * rng.standard_normal(n + 1))
        for x in xs:
            one = g(float(x))
            assert type(one) is float
            assert (np.float64(one).tobytes() == g(np.array([x])).tobytes()
                    == values_at([g], [x]).tobytes())
    assert GridFunction(np.full(9, 100.0))(3e-308) == 100.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [8, 64])
def test_values_at_matches_own_calls(n):
    """Each row of the shared-matrix evaluation is bitwise the function's call.

    Points at nodes, 0 and 1 among them, raise no floating-point warning.
    """
    rng = np.random.default_rng(n)
    nodes = chebyshev_lobatto(n)
    grid = [GridFunction(rng.standard_normal(n + 1)) for _ in range(3)]
    polys = [Polynomial(rng.standard_normal(k)) for k in (1, 4, 9)]
    mixed = grid + polys + [GridFunction(rng.standard_normal(n + 4))]
    point_sets = [rng.random(37), nodes, np.array([0.0, 1.0]),
                  np.concatenate([rng.random(5), nodes[::3]]), 0.3, 0.0, 1.0]
    for funcs in (grid, polys, mixed):
        for xs in point_sets:
            rows = values_at(funcs, xs)
            assert rows.shape == (len(funcs), np.size(xs))
            for f, row in zip(funcs, rows):
                assert np.array_equal(row, np.atleast_1d(f(xs)))
    for f in mixed:
        assert value_at_zero(f) == f(0.0)
