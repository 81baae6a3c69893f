import numpy as np
import pytest
import sympy as sp

from gfadm import (
    NumericError,
    OrderMismatchError,
    Polynomial,
    SingularDivisionError,
    UnsupportedBackendError,
    UsageError,
    adomian_coefficients,
    adomian_polynomial_rows,
    parse_expression,
)
from gfadm.adomian import adomian_expansion


class TestPointwise:
    def test_classical_square_polynomials(self):
        y0, y1, y2 = 1.3, -0.4, 0.25
        rows = adomian_coefficients(parse_expression("y1^2"), 0.0,
                                    [y0, y1, y2], [0, 0, 0])
        expected = [y0**2, 2 * y0 * y1, y1**2 + 2 * y0 * y2]
        assert np.allclose(rows, expected, atol=1e-13)

    def test_example1_row0(self):
        rows = adomian_coefficients(parse_expression("-1*y1^2-0.4*y1*y2"),
                                    0.0, [1.0], [2.0])
        assert rows == pytest.approx([-1.8], abs=1e-14)

    def test_bilinear(self):
        rows = adomian_coefficients(parse_expression("y1*y2"), 0.0,
                                    [1, 0.1, 0], [2, 0.2, 0])
        assert np.allclose(rows, [2, 0.4, 0.02], atol=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(UnsupportedBackendError):
            adomian_coefficients(parse_expression("y1"), 0.0, [1, 2], [1])

    def test_empty_terms(self):
        f = parse_expression("y1*y2 + x")
        with pytest.raises(OrderMismatchError):
            adomian_coefficients(f, 0.3, [], [])
        with pytest.raises(OrderMismatchError):
            adomian_coefficients(f, 0.3, [], [], adomian_expansion(f, 0.3))
        with pytest.raises(OrderMismatchError):
            adomian_polynomial_rows(f, [], [])
        expansion = adomian_expansion(f, Polynomial.identity())
        with pytest.raises(OrderMismatchError):
            adomian_polynomial_rows(f, [], [], expansion)
        # an expansion that has seen terms still wants some
        adomian_polynomial_rows(f, [Polynomial([1.0])], [Polynomial([2.0])], expansion)
        with pytest.raises(OrderMismatchError):
            adomian_polynomial_rows(f, [], [], expansion)
        assert expansion.order == 0

    def test_singular_division_carries_location(self):
        with pytest.raises(SingularDivisionError) as exc:
            adomian_coefficients(parse_expression("1/(y1-1)"), 0.25, [1.0], [0.0])
        assert exc.value.location == pytest.approx(0.25)


def _sympy_rows(text, y1_terms, y2_terms):
    lam = sp.symbols("lam")
    y1 = sum(sp.Float(t, 20) * lam**j for j, t in enumerate(y1_terms))
    y2 = sum(sp.Float(t, 20) * lam**j for j, t in enumerate(y2_terms))
    u, v = sp.symbols("u v")
    f = sp.sympify(text.replace("y1", "u").replace("y2", "v"))
    n = len(y1_terms)
    expanded = sp.expand(f.subs({u: y1, v: y2}))
    return [float(expanded.coeff(lam, k)) for k in range(n)]


@pytest.mark.parametrize("seed", range(20))
def test_bruteforce_oracle_equivalence(seed):
    rng = np.random.default_rng(seed)
    monomials = ["1", "y1", "y2", "x", "y1^2", "y1*y2", "y2^2", "y1^3",
                 "y1^2*y2", "y1*y2^2", "y2^3"]
    # random polynomial of total degree <= 3
    picks = rng.choice(len(monomials), size=4, replace=False)
    coefs = np.round(rng.uniform(-2, 2, size=4), 6)
    text = " + ".join(f"{c}*{monomials[i]}" for c, i in zip(coefs, picks))
    n = int(rng.integers(1, 5))
    y1_terms = list(np.round(rng.uniform(-1.5, 1.5, size=n + 1), 6))
    y2_terms = list(np.round(rng.uniform(-1.5, 1.5, size=n + 1), 6))
    x = float(np.round(rng.uniform(0, 1), 6))

    ours = adomian_coefficients(parse_expression(text), x, y1_terms, y2_terms)
    theirs = _sympy_rows(text.replace("x", repr(x)), y1_terms, y2_terms)
    scale = max(1.0, float(np.max(np.abs(theirs))))
    assert np.max(np.abs(np.array(ours) - theirs)) <= 1e-11 * scale


def test_linearity():
    g = parse_expression("y1^2 + x*y2")
    h = parse_expression("y1*y2 - 0.3*y2^2")
    s = parse_expression("y1^2 + x*y2 + y1*y2 - 0.3*y2^2")
    y1_terms, y2_terms = [1.0, 0.2, -0.1], [0.5, 0.4, 0.3]
    a_g = adomian_coefficients(g, 0.7, y1_terms, y2_terms)
    a_h = adomian_coefficients(h, 0.7, y1_terms, y2_terms)
    a_s = adomian_coefficients(s, 0.7, y1_terms, y2_terms)
    assert np.allclose(np.array(a_g) + a_h, a_s, atol=1e-12)


def test_substitution_consistency():
    # with all mass in term 0, row 0 is f(y0) and higher rows vanish
    f = parse_expression("y1^2*y2 - y2^3 + x")
    rows = adomian_coefficients(f, 0.3, [1.7, 0, 0, 0], [0.6, 0, 0, 0])
    from gfadm import eval_scalar
    assert rows[0] == pytest.approx(eval_scalar(f, 0.3, 1.7, 0.6), abs=1e-13)
    assert np.allclose(rows[1:], 0.0, atol=1e-14)


class TestPolynomialRows:
    def test_matches_pointwise(self):
        f = parse_expression("y1^2 - 0.4*y1*y2")
        y1_terms = [Polynomial([1.0]), Polynomial([0.0, 0.0, 0.5])]
        y2_terms = [Polynomial([2.0]), Polynomial([0.0, 1.0])]
        rows = adomian_polynomial_rows(f, y1_terms, y2_terms)
        for x in (0.0, 0.3, 0.9):
            pointwise = adomian_coefficients(
                f, x, [t(x) for t in y1_terms], [t(x) for t in y2_terms])
            assert np.allclose([r(x) for r in rows], pointwise, atol=1e-12)

    def test_division_rejected(self):
        f = parse_expression("y1/(1+y2)")
        with pytest.raises(UnsupportedBackendError):
            adomian_polynomial_rows(f, [Polynomial([1.0])], [Polynomial([1.0])])

    @pytest.mark.filterwarnings("error")  # the typed error is the only report
    def test_overflow_raises(self):
        f = parse_expression("1e200*y1^2")
        terms = [Polynomial([1.0]), Polynomial([1e200])]
        with pytest.raises(NumericError, match="Adomian row"):
            adomian_polynomial_rows(f, terms, terms)


NUMBER_TERMS_TEXT = "x*y1^2 - 0.4*y1*y2 + y2^3"


def test_number_terms_at_points_are_their_values_there():
    """A number term is its value at every point: the explicit arrays' rows, bitwise."""
    f, xs = parse_expression(NUMBER_TERMS_TEXT), np.linspace(0.0, 1.0, 3)
    for y1_terms, y2_terms in [([1.0, 2.0], [2.0, 1.0]),
                               ([1.0, 0.5 + xs, -0.0], [np.full(3, 2.0), 1, 0.25])]:
        explicit = [[np.broadcast_to(np.asarray(t, dtype=float), xs.shape).copy()
                     for t in terms] for terms in (y1_terms, y2_terms)]
        want = adomian_coefficients(f, xs, *explicit)
        got = adomian_coefficients(f, xs, y1_terms, y2_terms)
        assert got.shape == want.shape == (len(y1_terms), 3)
        assert got.tobytes() == want.tobytes()
        # grown by one term at a time through a kept expansion
        expansion = adomian_expansion(f, xs)
        for n in range(1, len(y1_terms) + 1):
            got = adomian_coefficients(f, xs, y1_terms[:n], y2_terms[:n], expansion)
        assert got.tobytes() == want.tobytes()
    # a term of one value broadcasts as a number does
    got = adomian_coefficients(f, xs, [np.array([1.0])], [np.array(2.0)])
    want = adomian_coefficients(f, xs, [np.ones(3)], [np.full(3, 2.0)])
    assert got.tobytes() == want.tobytes()


def test_number_terms_of_polynomial_rows_are_constant_polynomials():
    """A number term is the constant Polynomial: explicit Polynomials' rows, bitwise."""
    f = parse_expression(NUMBER_TERMS_TEXT)
    for y1_terms, y2_terms in [([1.0, 2.0], [0.5, 0.1]),
                               ([Polynomial([1.0, 0.5]), -0.0, 3],
                                [2, Polynomial([0.0, 1.0]), 0.25])]:
        explicit = [[t if isinstance(t, Polynomial) else Polynomial([t]) for t in terms]
                    for terms in (y1_terms, y2_terms)]
        want = [r.coeffs.tobytes() for r in adomian_polynomial_rows(f, *explicit)]
        got = adomian_polynomial_rows(f, y1_terms, y2_terms)
        assert all(isinstance(r, Polynomial) for r in got)
        assert [r.coeffs.tobytes() for r in got] == want
        expansion = adomian_expansion(f, Polynomial.identity())
        for n in range(1, len(y1_terms) + 1):
            got = adomian_polynomial_rows(f, y1_terms[:n], y2_terms[:n], expansion)
        assert [r.coeffs.tobytes() for r in got] == want


def test_terms_outside_the_ring_raise_usage_error():
    f = parse_expression(NUMBER_TERMS_TEXT)
    xs = np.linspace(0.0, 1.0, 3)
    with pytest.raises(UsageError, match="term 1"):
        adomian_coefficients(f, xs, [1.0, np.ones(4)], [1.0, 1.0])
    with pytest.raises(UsageError, match="term 0"):
        adomian_coefficients(f, 0.5, [np.ones(3)], [1.0])
    with pytest.raises(UsageError, match="term 1"):
        adomian_polynomial_rows(f, [1.0, 1.0], [Polynomial([1.0]), np.ones(3)])
    # a kept expansion keeps its order after the refusal
    expansion = adomian_expansion(f, xs)
    adomian_coefficients(f, xs, [1.0], [1.0], expansion)
    with pytest.raises(UsageError):
        adomian_coefficients(f, xs, [1.0, np.ones(2)], [1.0, 1.0], expansion)
    assert expansion.order == 0


@pytest.mark.filterwarnings("error")
def test_overflow_on_points_raises():
    f = parse_expression("1e200*y1^2")
    with pytest.raises(NumericError, match="series arithmetic"):
        adomian_coefficients(f, np.linspace(0, 1, 3), [np.ones(3), np.full(3, 1e200)],
                             [np.ones(3), np.ones(3)])


def test_rows_on_point_array_triangular():
    f1 = parse_expression("y1*y2")
    f2 = parse_expression("y1^2")
    grid = np.linspace(0, 1, 5)
    y1_terms = [np.ones(5), 0.1 * grid]
    y2_terms = [2 * np.ones(5), 0.2 * grid]
    rows1 = adomian_coefficients(f1, grid, y1_terms, y2_terms)
    rows2 = adomian_coefficients(f2, grid, y1_terms, y2_terms)
    assert rows1.shape == rows2.shape == (2, 5)
    # row 0 is f at the zeroth terms
    assert np.allclose(rows1[0], 2.0)
    assert np.allclose(rows2[0], 1.0)
    # row 1 of y1*y2: y10*y21 + y11*y20
    assert np.allclose(rows1[1], 0.2 * grid + 0.2 * grid)
    assert np.all(np.isfinite(rows1)) and np.all(np.isfinite(rows2))


@pytest.mark.parametrize("text", [
    "x*y1^3 - 0.4*y1*y2 + 2 - x^2",
    "1 - 5*y1*y2/((0.0001 + y1)*(0.0001 + y2)) + y2/(2 + x)",
])
def test_array_rows_match_pointwise(text):
    f = parse_expression(text)
    rng = np.random.default_rng(5)
    xs = np.linspace(0.0, 1.0, 17)
    y1_terms = [1.0 + 0.5 * xs] + list(rng.uniform(-0.3, 0.3, size=(6, xs.size)))
    y2_terms = [0.8 + xs**2] + list(rng.uniform(-0.3, 0.3, size=(6, xs.size)))
    rows = adomian_coefficients(f, xs, y1_terms, y2_terms)
    assert rows.shape == (7, xs.size)
    for k, x in enumerate(xs):
        slow = adomian_coefficients(f, float(x), [t[k] for t in y1_terms],
                                    [t[k] for t in y2_terms])
        assert np.max(np.abs(rows[:, k] - slow)) <= 1e-12


def test_array_singular_division_carries_first_location():
    xs = np.linspace(0.0, 1.0, 9)
    # the denominator y1 - 2x vanishes at x = 0.5 and x = 0.75
    y1_terms = [np.where(xs == 0.75, 1.5, 2.0 * xs + 0.1), np.zeros(9)]
    y1_terms[0][4] = 1.0
    with pytest.raises(SingularDivisionError) as exc:
        adomian_coefficients(parse_expression("y2/(y1 - 2*x)"), xs, y1_terms,
                             [np.ones(9), np.ones(9)])
    assert exc.value.location == pytest.approx(0.5)
    with pytest.raises(SingularDivisionError) as exc:
        adomian_coefficients(parse_expression("y1/(x - 0.25)"), xs,
                             [np.ones(9)], [np.ones(9)])
    assert exc.value.location == pytest.approx(0.25)


RUNNING_TEXTS = [
    "x*y1^3 - 0.4*y1*y2 + 2 - x^2",
    "1 - 5*y1*y2/((0.0001 + y1)*(0.0001 + y2)) + y2/(2 + x)",
    "-(x - y1)/(3 - y2) - y1 + 0*y2",
    "(y1 - x)*(2 - y2)^3 - -y2",
    "x", "2", "y1",
]


def _random_terms(rng, shape, n):
    """Terms with exact and negative zeros among them, for signed-zero paths."""
    terms = [1.0 + rng.uniform(0.0, 0.5, size=shape)]
    for _ in range(n):
        t = rng.uniform(-0.3, 0.3, size=shape)
        terms.append(np.where(rng.random(shape) < 0.3, rng.choice([0.0, -0.0]), t))
    return terms


@pytest.mark.parametrize("text", RUNNING_TEXTS)
@pytest.mark.parametrize("steps", [[1] * 9, [3, 1, 5]], ids=["by_one", "by_chunks"])
@pytest.mark.parametrize("x", [0.3, np.linspace(0.0, 1.0, 17)], ids=["point", "points"])
def test_running_expansion_matches_one_shot(text, steps, x):
    """Rows of a running expansion, extended in any steps, are the one-shot rows bitwise."""
    f = parse_expression(text)
    rng = np.random.default_rng(len(text))
    y1_terms = _random_terms(rng, np.shape(x), 8)
    y2_terms = _random_terms(rng, np.shape(x), 8)
    expansion = adomian_expansion(f, x)
    n = 0
    for step in steps:
        n += step
        rows = adomian_coefficients(f, x, y1_terms[:n], y2_terms[:n], expansion)
        fresh = adomian_coefficients(f, x, y1_terms[:n], y2_terms[:n])
        assert rows.shape == fresh.shape and rows.tobytes() == fresh.tobytes()
    assert expansion.order == 8


@pytest.mark.parametrize("text", [RUNNING_TEXTS[0], RUNNING_TEXTS[3], "x", "y1"])
def test_running_polynomial_rows_match_one_shot(text):
    f = parse_expression(text)
    rng = np.random.default_rng(len(text))
    y1_terms = [Polynomial(c) for c in _random_terms(rng, 4, 6)]
    y2_terms = [Polynomial(c) for c in _random_terms(rng, 3, 6)]
    expansion = adomian_expansion(f, Polynomial.identity())
    for n in range(1, 8):
        rows = adomian_polynomial_rows(f, y1_terms[:n], y2_terms[:n], expansion)
        fresh = adomian_polynomial_rows(f, y1_terms[:n], y2_terms[:n])
        assert [r.coeffs.tobytes() for r in rows] == [r.coeffs.tobytes() for r in fresh]


@pytest.mark.filterwarnings("error")
def test_running_expansion_keeps_its_order_after_an_error():
    f = parse_expression("1e200*y1^2 + y2/(1 + x)")
    xs = np.linspace(0.0, 1.0, 3)
    ones = [np.ones(3)] * 2
    expansion = adomian_expansion(f, xs)
    adomian_coefficients(f, xs, ones[:1], ones[:1], expansion)
    with pytest.raises(NumericError, match="series arithmetic"):
        adomian_coefficients(f, xs, [np.ones(3), np.full(3, 1e200)], ones, expansion)
    assert expansion.order == 0
    y1_terms = [np.ones(3), np.full(3, 0.5)]
    rows = adomian_coefficients(f, xs, y1_terms, ones, expansion)
    assert rows.tobytes() == adomian_coefficients(f, xs, y1_terms, ones).tobytes()


@pytest.mark.filterwarnings("error")
def test_running_polynomial_rows_keep_their_order_after_an_error():
    f = parse_expression("1e200*y1^2")
    one = [Polynomial([1.0])]
    expansion = adomian_expansion(f, Polynomial.identity())
    adomian_polynomial_rows(f, one, one, expansion)
    with pytest.raises(NumericError, match="Adomian row"):
        adomian_polynomial_rows(f, one + [Polynomial([1e200])], one * 2, expansion)
    assert expansion.order == 0
    y1_terms = one + [Polynomial([0.0, 0.5])]
    rows = adomian_polynomial_rows(f, y1_terms, one * 2, expansion)
    fresh = adomian_polynomial_rows(f, y1_terms, one * 2)
    assert [r.coeffs.tobytes() for r in rows] == [r.coeffs.tobytes() for r in fresh]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ring", ["points", "polynomial"])
def test_failed_block_leaves_a_kept_expansion_as_it_was(ring):
    # an overflowing term in a block of several orders, on the first
    # extension and on a later one: the order stays, and good terms then
    # give the one-shot's rows, bitwise
    if ring == "points":
        f, x = parse_expression("1e200*y1^2 + y2/(1 + x)"), np.linspace(0.0, 1.0, 3)
        make, error = (lambda v: np.full(3, v)), "series arithmetic"
    else:
        f, x = parse_expression("1e200*y1^2 - x*y2"), Polynomial.identity()
        make, error = (lambda v: Polynomial([v, 0.5 * v])), "Adomian row"
    good = [make(0.5**k) for k in range(5)]
    bad = good[:3] + [make(1e200)] + good[4:]
    twos = [make(2.0)] * 5
    expansion = adomian_expansion(f, x)
    for seen in (0, 2):
        if seen:
            adomian_coefficients(f, x, good[:seen], twos[:seen], expansion)
        with pytest.raises(NumericError, match=error):
            adomian_coefficients(f, x, bad, twos, expansion)
        assert expansion.order == seen - 1
    rows = adomian_coefficients(f, x, good, twos, expansion)
    fresh = adomian_coefficients(f, x, good, twos)
    assert [_bytes(r) for r in rows] == [_bytes(r) for r in fresh]


def _bytes(r):
    return r.coeffs.tobytes() if isinstance(r, Polynomial) else r.tobytes()


def test_running_expansion_errors_as_one_shot():
    xs = np.linspace(0.0, 1.0, 9)
    f = parse_expression("y2/(y1 - 2*x)")
    with pytest.raises(SingularDivisionError) as exc:
        adomian_coefficients(f, xs, [np.ones(9)], [np.ones(9)], adomian_expansion(f, xs))
    assert exc.value.location == 0.5
    f = parse_expression("y1/(1 + y2)")
    with pytest.raises(UnsupportedBackendError):
        adomian_polynomial_rows(f, [Polynomial([1.0])], [Polynomial([1.0])],
                                adomian_expansion(f, Polynomial.identity()))


def test_kept_expansion_refuses_fewer_terms_than_it_has_seen():
    # fewer terms would hand back the rows of the terms seen before; as many
    # terms as seen extend nothing
    f = parse_expression("y1*y2")
    terms = [1.0, 0.5, 0.25]
    expansion = adomian_expansion(f, 0.5)
    rows = adomian_coefficients(f, 0.5, terms, terms, expansion)
    again = adomian_coefficients(f, 0.5, terms, terms, expansion)
    assert again.tobytes() == rows.tobytes()
    with pytest.raises(OrderMismatchError):
        adomian_coefficients(f, 0.5, terms[:1], terms[:1], expansion)
    assert expansion.order == 2
    polys = [Polynomial([t]) for t in terms]
    expansion = adomian_expansion(f, Polynomial.identity())
    rows = adomian_polynomial_rows(f, polys, polys, expansion)
    again = adomian_polynomial_rows(f, polys, polys, expansion)
    assert [r.coeffs.tobytes() for r in again] == [r.coeffs.tobytes() for r in rows]
    with pytest.raises(OrderMismatchError):
        adomian_polynomial_rows(f, polys[:1], polys[:1], expansion)
    assert expansion.order == 2


# pairs (f1, f2) that share nothing, share a subtree, are one f twice, or
# hold an f free of y1 and y2
JOINT_PAIRS = {
    "apart": ("x*y1^3 - 0.4*y1*y2", "2 - y2^2 + x*y2"),
    "shared": ("1 - 5*y1*y2/((0.0001 + y1)*(0.0001 + y2))",
               "-0.1*y1*y2/((0.0001 + y1)*(0.0001 + y2)) + y1^2"),
    "identical": ("0.5*y1^2 + 0.5*y1*y2", "0.5*y1^2 + 0.5*y1*y2"),
    "free of y": ("x^2 - 3", "y1*y2 - x*y1"),
}


def _rule_count(expansion):
    tape = (expansion[0] if isinstance(expansion, list) else expansion).tape
    return sum(rule is not None for rule in tape.rules)


@pytest.mark.parametrize("pair, x", [
    pytest.param(pair, x, id=f"{name}-{ring}")
    for name, pair in JOINT_PAIRS.items()
    for ring, x in [("point", 0.3), ("points", np.linspace(0.0, 1.0, 17)),
                    ("polynomial", Polynomial.identity())]
    # the exact backend takes polynomial f only
    if ring != "polynomial" or "/" not in "".join(pair)])
def test_joint_rows_are_each_fs_own_bitwise(pair, x):
    """Both f on one tape, one-shot or running, give each f's own rows, bitwise."""
    fs = [parse_expression(t) for t in pair]
    if isinstance(x, Polynomial):
        rng = np.random.default_rng(3)
        y1_terms = [Polynomial(c) for c in _random_terms(rng, 4, 7)]
        y2_terms = [Polynomial(c) for c in _random_terms(rng, 3, 7)]
    else:
        rng = np.random.default_rng(len(pair[0]))
        y1_terms = _random_terms(rng, np.shape(x), 7)
        y2_terms = _random_terms(rng, np.shape(x), 7)
    own = [[_bytes(r) for r in adomian_coefficients(f, x, y1_terms, y2_terms)]
           for f in fs]
    joint = adomian_coefficients(fs, x, y1_terms, y2_terms)
    assert [[_bytes(r) for r in rows] for rows in joint] == own
    expansion = adomian_expansion(fs, x)
    for n in range(1, 9):
        running = adomian_coefficients(fs, x, y1_terms[:n], y2_terms[:n], expansion)
        assert [[_bytes(r) for r in rows] for rows in running] == [o[:n] for o in own]
    # a subtree of both is recorded once: one f twice costs one f's rules
    counts = [_rule_count(adomian_expansion(f, x)) for f in fs]
    assert _rule_count(expansion) <= sum(counts)
    if pair[0] == pair[1]:
        assert _rule_count(expansion) == counts[0]
        assert expansion[0] is expansion[1]



def test_joint_polynomial_rows_are_lists_per_f():
    fs = [parse_expression("y1*y2"), parse_expression("x + y1^2")]
    one = [Polynomial([1.0]), Polynomial([0.0, 2.0])]
    rows = adomian_polynomial_rows(fs, one, one)
    assert [len(r) for r in rows] == [2, 2]
    assert all(isinstance(p, Polynomial) for r in rows for p in r)
    assert [p.coeffs.tobytes() for p in rows[1]] == \
        [p.coeffs.tobytes() for p in adomian_polynomial_rows(fs[1], one, one)]


@pytest.mark.filterwarnings("error")
def test_overflow_before_a_singular_division_is_reported_first():
    """Errors come in the order of the operations, as with a check per operation."""
    f = parse_expression("1e200*y2^2 + y1/(y1 - 2*x)")
    with pytest.raises(NumericError, match="series arithmetic"):
        adomian_coefficients(f, 0.5, [1.0], [1e200])
    with pytest.raises(SingularDivisionError):  # the division alone
        adomian_coefficients(f, 0.5, [1.0], [1.0])
