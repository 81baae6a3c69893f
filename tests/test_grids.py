import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy_polynomial import OPERATORS, trim

from gfadm import GridFunction, Polynomial, chebyshev_lobatto
from gfadm.errors import UsageError
from gfadm import grids
from gfadm.grids import DENSE_POINTS, _barycentric_matrix, value_at_zero, values_at


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


def test_results_are_trimmed_as_numpy_polynomial():
    """Arithmetic results skip the constructor's conversion, not its trim."""
    op = OPERATORS
    tiny = Polynomial([1.0, 1e-200])
    # the leading 1e-200 * 1e-200 underflows to 0 and is trimmed
    product = tiny * tiny
    assert product.coeffs.tobytes() == op["__mul__"](tiny, tiny).coeffs.tobytes()
    assert product.degree == 1 and type(product) is Polynomial
    # the zero polynomial from each operation is [+0.0]
    p, minus_zero = Polynomial([1.0, -0.0, 2.0]), Polynomial([-0.0])
    zeros = [
        (p - p, op["__sub__"](p, p)), (p + -p, op["__add__"](p, -p)),
        (-minus_zero, op["__neg__"](minus_zero)),
        (minus_zero * minus_zero, op["__mul__"](minus_zero, minus_zero)),
        (p * -0.0, op["__mul__"](p, -0.0)),
        (Polynomial([5.0]).derivative(), op["derivative"](Polynomial([5.0]))),
    ]
    for fast, slow in zeros:
        assert fast.coeffs.tobytes() == slow.coeffs.tobytes() == np.zeros(1).tobytes()
    # -0.0 interior coefficients through +, - and *
    q = Polynomial([-0.0, -0.0, 3.0, -0.0, 4.0])
    pairs = [
        (p + q, op["__add__"](p, q)), (q + p, op["__radd__"](p, q)),
        (p - q, op["__sub__"](p, q)), (q - p, op["__sub__"](q, p)),
        (-1.0 - q, op["__rsub__"](q, -1.0)),
        (p * q, op["__mul__"](p, q)), (q * -2.0, op["__mul__"](q, -2.0)),
        (-q, op["__neg__"](q)), (q.derivative(), op["derivative"](q)),
    ]
    for fast, slow in pairs:
        assert fast.coeffs.tobytes() == slow.coeffs.tobytes()
    assert np.signbit((p + q).coeffs[1]) and np.signbit((q - p).coeffs[3])


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


@pytest.mark.parametrize("n", [1, 16, 64])
def test_dense_matrix_is_a_fresh_build_read_only(n):
    """The cached matrix at DENSE_POINTS is bitwise a fresh build, and read-only.

    values_at takes it for the constant itself, and gives the rows it gives
    at an equal copy of the points, which builds a matrix afresh.
    """
    grids._dense_matrix.cache_clear()
    cached = grids._dense_matrix(n)
    assert grids._dense_matrix(n) is cached
    terms, den, (exact_i, exact_j) = cached
    fresh, fresh_den, (fresh_i, fresh_j) = _barycentric_matrix(n, DENSE_POINTS.copy())
    for a, b in ((terms, fresh), (den, fresh_den), (exact_i, fresh_i), (exact_j, fresh_j)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert not a.flags.writeable
    assert not DENSE_POINTS.flags.writeable
    with pytest.raises(ValueError):
        terms[0, 0] = 0.0
    rng = np.random.default_rng(n)
    funcs = [GridFunction(scale * rng.standard_normal(n + 1)) for scale in (1.0, 1e300)]
    got = values_at(funcs + [Polynomial([1.0, 2.0])], DENSE_POINTS)
    assert got.tobytes() == values_at(funcs + [Polynomial([1.0, 2.0])],
                                      DENSE_POINTS.copy()).tobytes()
    assert grids._dense_matrix.cache_info().currsize == 1


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
    """Each row of values_at is bitwise the function's own call.

    Points at nodes, 0 and 1 among them, raise no floating-point warning.
    """
    rng = np.random.default_rng(n)
    nodes = chebyshev_lobatto(n)
    grid = [GridFunction(rng.standard_normal(n + 1)) for _ in range(3)]
    # mixed degrees, the zero polynomial, signed zeros and degree >= 40
    polys = [Polynomial(rng.standard_normal(k)) for k in (1, 4, 9, 45)] + [
        Polynomial.zero(), Polynomial([-0.0, 1.0, -0.0, 2.0]), Polynomial([-3.0])]
    mixed = grid + polys + [GridFunction(rng.standard_normal(n + 4))]
    dense = np.concatenate(([0.0], np.linspace(0.001, 0.999, 901), [1.0]))
    point_sets = [rng.random(37), nodes, np.array([0.0, 1.0]), dense,
                  np.concatenate([rng.random(5), nodes[::3]]), 0.3, 0.0, 1.0,
                  np.array([-0.0, -0.5, 1.7])]
    for funcs in (grid, polys, mixed, polys[4:5], polys[3:4] + grid[:1]):
        for xs in point_sets:
            rows = values_at(funcs, xs)
            assert rows.shape == (len(funcs), np.size(xs))
            for f, row in zip(funcs, rows):
                assert row.tobytes() == np.atleast_1d(f(xs)).astype(float).tobytes()
    for f in mixed:
        assert value_at_zero(f) == f(0.0)


def test_values_at_does_not_call_polynomials(monkeypatch):
    """Polynomials are evaluated by the stacked pass, not one call each."""
    polys = [Polynomial([1.0, 2.0]), Polynomial([0.5] * 41)]
    want = [p(np.linspace(0, 1, 9)) for p in polys]

    def own_call(self, x):
        raise AssertionError("a polynomial evaluated by its own call")

    monkeypatch.setattr(Polynomial, "__call__", own_call)
    for funcs in (polys, polys + [GridFunction(np.ones(9))]):
        assert np.array_equal(values_at(funcs, np.linspace(0, 1, 9))[:2], want)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [8, 64])
def test_values_at_on_stacked_point_sets_is_each_sets_own_call(n):
    """A (k, m) stack of point sets gives, per set, bitwise the 1-D call;
    a function's own call on the stack gives the same.

    Grid functions, polynomials and the two mixed; sets with a point on a
    node, and with one within tiny of a node where values near 1e300 make
    the products overflow and the terms are rescaled.
    """
    rng = np.random.default_rng(n + 1)
    nodes = chebyshev_lobatto(n)
    tiny = np.finfo(float).tiny
    grid = [GridFunction(rng.standard_normal(n + 1)) for _ in range(2)] + [
        GridFunction(rng.standard_normal(n + 4))]
    big = GridFunction(1e300 * rng.uniform(0.5, 1.0, n + 1))
    polys = [Polynomial(rng.standard_normal(k)) for k in (1, 5, 12)] + [
        Polynomial([-0.0, 1.0, -0.0, 2.0])]
    mixed = [polys[1], grid[0], polys[3], grid[2], big, polys[0]]
    stacks = [rng.random((2, 41)), rng.random((3, 7)), rng.random((1, 5)),
              np.stack([rng.random(9), np.concatenate([rng.random(8), nodes[n // 2:][:1]])]),
              np.stack([np.append(rng.random(6), 2 * tiny), np.append(rng.random(6), 1.0)]),
              np.stack([rng.random(4), [3e-308, 0.5, 1.0 - 1e-16, nodes[1] + 4 * tiny]])]
    rescaled = 0
    for funcs in (grid, polys, mixed, [big]):
        for xs in stacks:
            got = values_at(funcs, xs)
            assert got.shape == (len(funcs),) + xs.shape
            for f, values in zip(funcs, got):  # a call on the stack is values_at's
                assert values.tobytes() == np.asarray(f(xs), dtype=float).tobytes()
            for k, points in enumerate(xs):
                own = values_at(funcs, points.copy())
                assert got[:, k].tobytes() == own.tobytes()
                for f, row in zip(funcs, own):
                    assert row.tobytes() == np.asarray(f(points), dtype=float).tobytes()
            if big in funcs:
                terms, den, _ = _barycentric_matrix(n, xs)
                with np.errstate(over="ignore", invalid="ignore"):
                    rescaled += np.sum(~np.isfinite((terms @ big.values) / den))
    assert rescaled > 0
