import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_product import product_coefficient

from gfadm import (
    NumericError,
    OrderMismatchError,
    Polynomial,
    SingularDivisionError,
    UnsupportedBackendError,
    eval_series,
    parse_expression,
)
from gfadm.series import SeriesTape


def expand(fn, *coeffs):
    """Coefficients of ``fn`` of series with the given coefficients, on one fresh tape."""
    tape = SeriesTape(len(coeffs))
    out = fn(*tape.variables)
    tape.extend(*(list(c) for c in coeffs))
    return out.coeffs


def eq(got, *want):
    return got.shape == np.shape(want) and np.array_equal(got, want)


class TestAdd:
    def test_coefficientwise(self):
        assert eq(expand(lambda a, b: a + b, [1, 2], [3, 4]), 4, 6)

    def test_additive_identity(self):
        assert eq(expand(lambda a, b: a + b, [1, 0, 0], [0, 0, 0]), 1, 0, 0)

    def test_additive_inverse(self):
        assert eq(expand(lambda a, b: a + b, [0.5, -0.5], [-0.5, 0.5]), 0, 0)

    def test_order_mismatch(self):
        # series combine only on one tape, which gives them one order
        a, b = SeriesTape(1).variables[0], SeriesTape(1).variables[0]
        with pytest.raises(OrderMismatchError):
            a + b
        with pytest.raises(OrderMismatchError):
            a - b


class TestMul:
    def test_square_binomial(self):
        assert eq(expand(lambda a: a * a, [1, 1, 0]), 1, 2, 1)

    def test_annihilator(self):
        assert eq(expand(lambda a, b: a * b, [1, 2, 3], [0, 0, 0]), 0, 0, 0)

    def test_scalar_scaling(self):
        assert eq(expand(lambda a, b: a * b, [2, 0, 0], [1, 1, 1]), 2, 2, 2)

    def test_order_mismatch(self):
        a, b = SeriesTape(1).variables[0], SeriesTape(1).variables[0]
        with pytest.raises(OrderMismatchError):
            a * b
        with pytest.raises(OrderMismatchError):
            a / b


class TestDiv:
    def test_geometric_series(self):
        q = expand(lambda a, b: a / b, [1, 0, 0, 0], [1, 1, 0, 0])
        assert np.allclose(q, [1, -1, 1, -1], atol=1e-14)

    def test_exact_factor(self):
        q = expand(lambda a, b: a / b, [1, 2, 1], [1, 1, 0])
        assert np.allclose(q, [1, 1, 0], atol=1e-14)

    def test_zero_constant_term(self):
        with pytest.raises(SingularDivisionError):
            expand(lambda a, b: a / b, [1, 0], [0, 1])


def power(text, coeffs):
    """Coefficients of the expression ``text`` in y1 (its powers are products)."""
    return expand(lambda y1: eval_series(parse_expression(text), 0.0, y1, y1), coeffs)


class TestPow:
    def test_square(self):
        assert eq(power("y1^2", [1, 1, 0]), 1, 2, 1)

    def test_empty_product(self):
        assert eq(power("y1^0", [3, 0, 0]), 1, 0, 0)

    def test_lambda_cubed(self):
        assert eq(power("y1^3", [0, 1, 0, 0]), 0, 0, 0, 1)


coeff = st.floats(min_value=-10, max_value=10, allow_nan=False)
triples = st.tuples(
    st.lists(coeff, min_size=4, max_size=4),
    st.lists(coeff, min_size=4, max_size=4),
    st.lists(coeff, min_size=4, max_size=4),
)


def _close(a, b, rtol=1e-12):
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return bool(np.all(np.abs(a - b) <= rtol * scale))


@settings(max_examples=200, deadline=None)
@given(triples)
def test_ring_axioms(abc):
    pairs = [
        (lambda a, b, c: a + b, lambda a, b, c: b + a),
        (lambda a, b, c: a * b, lambda a, b, c: b * a),
        (lambda a, b, c: (a + b) + c, lambda a, b, c: a + (b + c)),
        (lambda a, b, c: (a * b) * c, lambda a, b, c: a * (b * c)),
        (lambda a, b, c: a * (b + c), lambda a, b, c: a * b + a * c),
    ]
    for left, right in pairs:
        assert _close(expand(left, *abc), expand(right, *abc))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(coeff, min_size=5, max_size=5),
    st.lists(coeff, min_size=5, max_size=5).filter(lambda v: abs(v[0]) >= 0.1),
)
@example(av=[4, 0, 0, 0, 0], bv=[0.421875, 9.5, 0, 0, 0])
def test_div_mul_roundtrip(av, bv):
    q = expand(lambda a, b: a / b, av, bv)
    # q_k grows like (b1/b0)^k, so the roundoff of coefficient k of q*b
    # scales with sum_i |q_i| |b_{k-i}|, not with a; subnormal results add
    # an absolute error of one subnormal unit per operation
    k = np.arange(len(av))
    scale = expand(lambda a, b: a * b, np.abs(q), np.abs(bv))
    fp = np.finfo(float)
    bound = 8 * (k + 1) * (fp.eps * scale + fp.smallest_subnormal)
    assert np.all(np.abs(expand(lambda a, b: a * b, q, bv) - av) <= bound)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(coeff, min_size=6, max_size=6),
    st.lists(coeff, min_size=6, max_size=6),
    st.integers(min_value=1, max_value=4),
)
def test_truncation_consistency(av, bv, m):
    full = expand(lambda a, b: a * b, av, bv)[: m + 1]
    short = expand(lambda a, b: a * b, av[: m + 1], bv[: m + 1])
    assert np.allclose(full, short, rtol=0, atol=1e-12)


def test_constant_series():
    # a result free of the variables is a ring element on the zero series
    assert eq(power("2.5", [1, 1, 1, 1]), 2.5, 0, 0, 0)


class TestRingElements:
    def test_scalar_scales(self):
        assert eq(expand(lambda s: 2.0 * s, [1, 2, 3]), 2, 4, 6)
        assert eq(expand(lambda s: s * 2.0, [1, 2, 3]), 2, 4, 6)

    def test_scalar_shifts_coefficient0(self):
        assert eq(expand(lambda s: s + 1.5, [1, 2, 3]), 2.5, 2, 3)
        assert eq(expand(lambda s: 1.5 - s, [1, 2, 3]), 0.5, -2, -3)
        assert eq(expand(lambda s: s - 1.0, [1, 2, 3]), 0, 2, 3)

    def test_point_values(self):
        x = np.array([0.0, 0.5, 1.0])
        terms = [1.0 + x, x, x**2]
        prod = expand(lambda s: x * s + 1.0, terms)
        assert prod.shape == (3, 3)
        assert np.allclose(prod, [1 + x * (1 + x), x**2, x**3])
        # one point of the product equals the product at that point
        sq = expand(lambda s: s * s, terms)
        for k in range(3):
            at_k = expand(lambda s: s * s, [t[k] for t in terms])
            assert np.allclose(sq[:, k], at_k, rtol=0, atol=1e-15)

    def test_point_values_division_index(self):
        with pytest.raises(SingularDivisionError) as exc:
            expand(lambda a, b: a / b, [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]],
                   [[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        assert exc.value.index == 1

    def test_polynomial_coefficients(self):
        x = Polynomial.identity()
        sq = expand(lambda s: x * s * s - 1.0, [Polynomial([1.0]), x])
        assert sq.dtype == object
        assert np.allclose(sq[0].coeffs, [-1.0, 1.0])
        assert np.allclose(sq[1].coeffs, [0.0, 0.0, 2.0])
        with pytest.raises(UnsupportedBackendError):
            expand(lambda s: s / s, [Polynomial([1.0]), x])


def test_empty_terms_raise():
    tape = SeriesTape(2)
    with pytest.raises(OrderMismatchError):
        tape.extend([], [])


# every operation of the tape, with floats and an element p of the coefficient ring
OPERATIONS = {
    "shift": lambda a, b, p: a + 0.75,
    "rshift": lambda a, b, p: p + a,
    "rsub": lambda a, b, p: 0.5 - a,
    "sub_ring": lambda a, b, p: a - p,
    "neg": lambda a, b, p: -a,
    "add": lambda a, b, p: a + b,
    "sub": lambda a, b, p: a - b,
    "mul": lambda a, b, p: a * b,
    "square": lambda a, b, p: a * a,
    "scale": lambda a, b, p: a * p,
    "rscale": lambda a, b, p: -1.5 * a,
    "div": lambda a, b, p: a / b,
    "div_of_product": lambda a, b, p: (a * b - 1.0) / (b * b),
}


def _blocks(tape_terms, splits, ring_element, ops):
    """Coefficient bytes of every operation after extending in the given blocks.

    ``splits`` None extends a fresh tape once by all the terms, as a
    one-shot expansion does.
    """
    tape = SeriesTape(2)
    a, b = tape.variables
    series = {name: OPERATIONS[name](a, b, ring_element) for name in ops}
    if splits is None:
        tape.extend(*tape_terms)
    n = 0
    for step in splits or []:
        n += step
        tape.extend(*(t[:n] for t in tape_terms))
    return {name: [_bytes(c) for c in s.coeffs] for name, s in series.items()}


def _bytes(c):
    return c.coeffs.tobytes() if isinstance(c, Polynomial) else np.asarray(c).tobytes()


@st.composite
def _splits(draw, n):
    """[n], [1]*n or a random split of n orders into blocks."""
    kind = draw(st.sampled_from(["whole", "ones", "random"]))
    if kind == "whole" or n == 1:
        return [n]
    if kind == "ones":
        return [1] * n
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1)))
    return [hi - lo for lo, hi in zip([0] + cuts, cuts + [n])]


# values with exact and negative zeros among them, for the signed-zero paths
value = st.one_of(coeff, st.sampled_from([0.0, -0.0]))


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(["float", "points", "polynomial"]),
       st.integers(min_value=1, max_value=8))
def test_any_split_of_orders_is_bitwise_one_block(data, ring, n):
    """Extending by any blocks of orders gives the coefficients of one block, bitwise."""
    def term(k, at_zero):
        if ring == "float":
            v = data.draw(value)
            return v if k else at_zero + 0.1 * v
        if ring == "points":
            v = np.array(data.draw(st.lists(value, min_size=3, max_size=3)))
            return v if k else at_zero + 0.1 * v
        v = data.draw(st.lists(value, min_size=1, max_size=3))
        return Polynomial(v if k else [at_zero] + v[1:])

    # divisors keep a constant term of at least 1 in size, with an inexact
    # reciprocal, so that dividing and multiplying by it differ
    terms = [[term(k, at_zero) for k in range(n)] for at_zero in (1.3, -2.7)]
    p = {"float": 0.3, "points": np.array([0.0, -0.0, 2.5]),
         "polynomial": Polynomial([0.5, -1.0])}[ring]
    ops = [name for name in OPERATIONS if ring != "polynomial" or "div" not in name]
    whole = _blocks(terms, [n], p, ops)
    assert _blocks(terms, data.draw(_splits(n)), p, ops) == whole
    assert _blocks(terms, [1] * n, p, ops) == whole
    assert _blocks(terms, None, p, ops) == whole


def _exposing_terms(ring, n):
    """Two coefficient lists of n orders whose products expose the order of a sum.

    ``a_0 = 1e16`` meets unit addends: added one by one in i order each 1
    is lost to rounding (1e16 + 1 is 1e16), while a pairwise sum adds the
    ones up first.  On 65 points a second column has only -0.0 products,
    whose sum is -0.0 from its first addend but +0.0 from a +0.0 start; the
    others hold values of many magnitudes with exact and negative zeros.
    """
    big = [1e16] + [1.0] * (n - 1)
    ones = [1.0] * n
    if ring == "float":
        return big, ones
    if ring == "one point":
        return [np.array([v]) for v in big], [np.array([v]) for v in ones]
    rng = np.random.default_rng(12)
    if ring == "65 points":
        a = rng.normal(size=(n, 65)) * 10.0 ** rng.integers(-8, 8, size=(n, 65))
        b = rng.normal(size=(n, 65)) * 10.0 ** rng.integers(-8, 8, size=(n, 65))
        for c in (a, b):
            c[rng.random(c.shape) < 0.2] = 0.0
            c[rng.random(c.shape) < 0.2] = -0.0
        a[:, 0], b[:, 0] = big, ones
        a[:, 1], b[:, 1] = -0.0, 1.0
        return list(a), list(b)
    a = [Polynomial([v, *rng.normal(size=3)]) for v in big]
    b = [Polynomial([v, *rng.choice([0.0, -0.0, 2.5], size=2)]) for v in ones]
    return a, b


@pytest.mark.parametrize("ring", ["float", "one point", "65 points", "polynomial"])
def test_product_is_the_pair_loop_bitwise(ring):
    """Every coefficient of a product, the tape grown by one order or by all, is the loop's."""
    n = 16
    a_terms, b_terms = _exposing_terms(ring, n)
    want = [_bytes(product_coefficient(a_terms, b_terms, k)) for k in range(n)]
    for steps in (range(1, n + 1), [n]):
        tape = SeriesTape(2)
        a, b = tape.variables
        product = a * b
        for k in steps:
            tape.extend(a_terms[:k], b_terms[:k])
        assert [_bytes(c) for c in product.coeffs] == want
    if ring != "polynomial":
        # the data tell the orders of summation apart: numpy's own sum of
        # the last coefficient's addends differs from the loop's
        addends = np.array([a_terms[i] * b_terms[n - 1 - i] for i in range(n)])
        assert np.add.reduce(addends, axis=0).tobytes() != want[-1]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", [0.5, np.linspace(0.0, 1.0, 3)], ids=["point", "points"])
def test_inf_hidden_by_a_division_raises(x):
    """1/(1 + y1^2) is finite at y1 = 1e200, but y1^2 on the way is not."""
    f = parse_expression("1/(1 + y1^2)")
    big, one = 1e200 + 0 * np.asarray(x), 1.0 + 0 * np.asarray(x)
    tapes = SeriesTape(2), SeriesTape(2)
    kept, fresh = (eval_series(f, x, *t.variables) for t in tapes)
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="series arithmetic"):
        tapes[0].extend([big], [one])
    assert tapes[0].known == 0
    for t in tapes:  # the failed tape then extends as a fresh one does
        t.extend([one, one], [one, one])
    assert kept.coeffs.tobytes() == fresh.coeffs.tobytes()
