import numpy as np
import pytest
import reference_expr as reference
import sympy as sp

import gfadm.adomian
from gfadm import (
    ComponentSpec,
    EvaluationError,
    ExpressionError,
    GfadmError,
    OrderMismatchError,
    Polynomial,
    ProblemSpec,
    adomian_polynomial_rows,
    catalytic_problem,
    catalytic_symmetric_problem,
    co2_pge_problem,
    eval_scalar,
    eval_series,
    gfadm_solve,
    oxygen_problem,
    parse_expression,
    to_text,
)
from gfadm.adomian import adomian_coefficients, adomian_expansion
from gfadm.expr import MAX_NESTING, STEP, Expression, Joint, evaluate, join
from gfadm.series import SeriesTape


def series(e, x, y1, y2):
    """Coefficients of e on one fresh tape extended by the terms y1 and y2."""
    tape = SeriesTape(2)
    out = eval_series(e, x, *tape.variables)
    tape.extend(y1, y2)
    return out.coeffs


class TestParse:
    def test_example1_rhs(self):
        e = parse_expression("-1*y1^2 - 0.4*y1*y2")
        assert eval_scalar(e, 0.0, 1.0, 2.0) == pytest.approx(-1.8, abs=1e-14)

    def test_bare_variable(self):
        e = parse_expression("x")
        assert e == Expression((("x", None, None),))
        assert eval_scalar(e, 0.3, 0.0, 0.0) == pytest.approx(0.3)

    def test_rational(self):
        e = parse_expression("y1/(1+y1+3*y2)")
        assert eval_scalar(e, 0.0, 1.0, 1.0) == pytest.approx(0.2)

    def test_power_binds_tightest(self):
        e = parse_expression("-y1^2")
        assert eval_scalar(e, 0.0, 3.0, 0.0) == pytest.approx(-9.0)

    def test_syntax_error_has_position(self):
        with pytest.raises(ExpressionError) as exc:
            parse_expression("y1 + ")
        assert exc.value.position is not None

    def test_negative_exponent_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression("y1^-2")

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression("y1^1.5")

    def test_unknown_identifier(self):
        with pytest.raises(ExpressionError):
            parse_expression("y3 + 1")

    def test_unexpected_character(self):
        with pytest.raises(ExpressionError):
            parse_expression("y1 @ y2")

    @pytest.mark.parametrize("text, position", [("y1 @ y2", 3), ("y1@y2", 2),
                                                ("y1 +\t\n $", 7), ("   ?", 3)])
    def test_unexpected_character_is_reported_where_it_stands(self, text, position):
        """The character itself and its position, not the whitespace before it."""
        with pytest.raises(ExpressionError) as exc:
            parse_expression(text)
        char = text[position]
        assert str(exc.value) == f"unexpected character {char!r} (at position {position})"
        assert exc.value.position == position

    @pytest.mark.parametrize("text", ["(" * 300 + "y1" + ")" * 300, "-" * 2000 + "y1",
                                      "-(" * 60 + "y1" + ")" * 60])
    def test_nesting_past_the_limit_is_an_expression_error(self, text):
        with pytest.raises(ExpressionError, match="nested deeper") as exc:
            parse_expression(text)
        assert exc.value.position == MAX_NESTING  # the first opening past it

    @pytest.mark.parametrize("text", ["(" * MAX_NESTING + "y1" + ")" * MAX_NESTING,
                                      "-" * MAX_NESTING + "y1",
                                      "-(" * (MAX_NESTING // 2) + "y1" + ")" * (MAX_NESTING // 2)])
    def test_nesting_up_to_the_limit_parses(self, text):
        sign = -1.0 if text.count("-") % 2 else 1.0
        assert eval_scalar(parse_expression(text), 0.0, 2.0, 0.0) == 2.0 * sign

    def test_equal_subexpressions_are_one_step(self):
        e = parse_expression("y1*y2/(1 + y1*y2) + (1 + y1*y2)")
        assert [op for op, _, _ in e.steps] == ["y1", "y2", "*", "num", "+", "/", "+"]
        assert e.steps[-1] == ("+", 5, 4)

    def test_zeroth_power_is_one_and_its_base_is_not_evaluated(self):
        e = parse_expression("(1/(y1 - y1))^0 * y2")
        assert e == parse_expression("1*y2")
        assert eval_scalar(e, 0.0, 2.0, 3.0) == 3.0


class TestEvalScalar:
    def test_oxygen_uptake_value(self):
        text = ("0.1*y1*y2/((0.0001 + y1)*(0.0001 + y2))"
                " + 0.05*y1*y2/((0.0001 + y1)*(0.0001 + y2))")
        e = parse_expression(text)
        expected = 0.15 / (1.0001 * 1.0001)
        assert eval_scalar(e, 0.0, 1.0, 1.0) == pytest.approx(expected, rel=1e-12)
        assert f"{eval_scalar(e, 0.0, 1.0, 1.0):.6f}" == "0.149970"

    def test_constant(self):
        assert eval_scalar(parse_expression("2.5"), 0.7, 1.0, 1.0) == 2.5

    def test_product_zero(self):
        assert eval_scalar(parse_expression("y1*y2"), 0.0, 0.0, 7.0) == 0.0

    def test_division_by_zero(self):
        with pytest.raises(EvaluationError):
            eval_scalar(parse_expression("1/y1"), 0.0, 0.0, 1.0)

    def test_array_evaluation(self):
        e = parse_expression("x*y1 + y2^2")
        x = np.array([0.0, 1.0])
        out = eval_scalar(e, x, np.array([2.0, 3.0]), np.array([1.0, 2.0]))
        assert np.allclose(out, [1.0, 7.0])

    @pytest.mark.parametrize("text", ["1/y1", "1/(y2 - y2)", "(y1 - y1)/(y1 - y1)",
                                      "1/(1 - 1)", "0/0 + y1"])
    def test_division_by_zero_on_arrays(self, text):
        # a zero divisor among array values, or in the constants alone
        y = np.array([1.0, 0.0, 2.0])
        with pytest.raises(EvaluationError):
            eval_scalar(parse_expression(text), np.zeros(3), y, y)
        with pytest.raises(EvaluationError):
            eval_scalar(parse_expression(text), 0.5, 0.0, 0.0)

    @pytest.mark.parametrize("text", ["2.5", "x", "x^2 - 1", "y1"])
    def test_result_has_the_argument_shape(self, text):
        x = np.linspace(0.0, 1.0, 4)
        y = np.ones((3, 4))
        out = eval_scalar(parse_expression(text), x, y, 2 * y)
        assert out.shape == (3, 4) and out.dtype == float
        at_point = eval_scalar(parse_expression(text), x[2], 1.0, 2.0)
        assert isinstance(at_point, float) and out[1, 2] == at_point

    @pytest.mark.parametrize("text", ["2.5", "x", "x^2 - 1", "y1"])
    def test_complex_step_keeps_the_argument_shape(self, text):
        # the result is complex, on arrays and on scalars, when f reads the
        # stepped argument
        kind = complex if text == "y1" else float
        x = np.linspace(0.0, 1.0, 4)
        y = np.ones((3, 4)) + 1j * STEP
        out = eval_scalar(parse_expression(text), x, y, 2.0)
        assert out.shape == (3, 4) and out.dtype == kind
        at_point = eval_scalar(parse_expression(text), x[2], y[1, 2], 2.0)
        assert isinstance(at_point, kind) and out[1, 2] == at_point


def _eval_scalar_full_constants(e, x, y1, y2):
    """eval_scalar with every constant lifted to a full array, as it once was."""
    with np.errstate(divide="raise", invalid="raise"):
        val = evaluate(e.steps, x, y1, y2,
                       lambda c: np.full(np.broadcast(x, y1, y2).shape, c))[-1]
    return np.asarray(val, dtype=float)


@pytest.mark.parametrize("problem", [catalytic_problem(), catalytic_symmetric_problem(),
                                     oxygen_problem(1.0), oxygen_problem(2.0),
                                     oxygen_problem(3.0), co2_pge_problem()],
                         ids=lambda p: p.name)
def test_plain_constants_are_bitwise_full_ones(problem):
    """Plain float constants give the array of full-array constants, bitwise.

    The arguments have the shapes the oracle passes: nodes (513,) and the
    unknowns with their perturbations (5, 513), signed zeros among them.
    """
    rng = np.random.default_rng(17)
    x = np.linspace(0.0, 1.0, 513)
    y1, y2 = rng.uniform(-0.5, 1.5, size=(2, 5, 513))
    y1[0, :7], y2[1, :7] = 0.0, -0.0
    for c in problem.components:
        got = eval_scalar(c.rhs, x, y1, y2)
        want = _eval_scalar_full_constants(c.rhs, x, y1, y2)
        assert got.shape == want.shape == (5, 513)
        assert got.tobytes() == want.tobytes()


class TestEvalSeries:
    def test_square(self):
        out = series(parse_expression("y1^2"), 0.0, [1, 0.3, 0], [0, 0, 0])
        assert np.allclose(out, [1, 0.6, 0.09], atol=1e-14)

    def test_bilinear(self):
        a, b = 0.7, -1.2
        out = series(parse_expression("y1*y2"), 0.0, [1, a, 0], [2, b, 0])
        assert np.allclose(out, [2, 2 * a + b, a * b], atol=1e-13)

    def test_rational_taylor(self):
        # f = y1/(1+y1) with y1 = 1 + t*lam: expansion (1+t lam)/(2+t lam)
        t = 0.83
        out = series(parse_expression("y1/(1+y1)"), 0.0, [1, t, 0, 0], [0, 0, 0, 0])
        expected = [0.5, t / 4, -t**2 / 8, t**3 / 16]
        assert np.allclose(out, expected, atol=1e-13)

    def test_rational_taylor_sympy_oracle(self):
        lam = sp.symbols("lam")
        t = sp.Rational(83, 100)
        f = (1 + t * lam) / (2 + t * lam)
        want = [float(f.series(lam, 0, 4).removeO().coeff(lam, k)) for k in range(4)]
        out = series(parse_expression("y1/(1+y1)"), 0.0, [1, 0.83, 0, 0], [0, 0, 0, 0])
        assert np.allclose(out, want, atol=1e-13)

    def test_arguments_share_one_tape(self):
        y1, y2 = SeriesTape(1).variables[0], SeriesTape(1).variables[0]
        with pytest.raises(OrderMismatchError):
            eval_series(parse_expression("y1"), 0.0, y1, y2)


RANDOM_EXPRS = [
    "y1^2 + 0.3*y2",
    "y1*y2 - x*y1",
    "y1/(2 + y2)",
    "(1 - y1*y2)/(1 + y1 + 3*y2)",
    "1 - 5*y1*y2/((0.0001 + y1)*(0.0001 + y2))",
]


@pytest.mark.parametrize("text", RANDOM_EXPRS)
def test_coefficient0_matches_scalar(text):
    rng = np.random.default_rng(7)
    e = parse_expression(text)
    for _ in range(20):
        x = rng.uniform(0, 1)
        y10, y20 = rng.uniform(0.5, 2.0, size=2)
        out = series(e, x, [y10, 0.1, 0], [y20, -0.2, 0])
        assert abs(out[0] - eval_scalar(e, x, y10, y20)) <= 1e-14


@pytest.mark.parametrize("text", RANDOM_EXPRS)
def test_coefficient1_matches_central_difference(text):
    rng = np.random.default_rng(11)
    e = parse_expression(text)
    h = 1e-5
    for _ in range(20):
        x = rng.uniform(0, 1)
        y10, y20 = rng.uniform(0.5, 2.0, size=2)
        y11, y21 = rng.uniform(-1, 1, size=2)
        out = series(e, x, [y10, y11, 0], [y20, y21, 0])
        plus = eval_scalar(e, x, y10 + h * y11, y20 + h * y21)
        minus = eval_scalar(e, x, y10 - h * y11, y20 - h * y21)
        assert abs(out[1] - (plus - minus) / (2 * h)) <= 1e-7


@pytest.mark.parametrize("text", RANDOM_EXPRS + ["-y1^2", "-(y1 + y2)^3"])
def test_parser_roundtrip(text):
    rng = np.random.default_rng(3)
    e = parse_expression(text)
    e2 = parse_expression(to_text(e))
    for _ in range(100):
        x = rng.uniform(0, 1)
        y1, y2 = rng.uniform(0.5, 2.0, size=2)
        assert abs(eval_scalar(e, x, y1, y2) - eval_scalar(e2, x, y1, y2)) <= 1e-14


def test_long_chains_round_trip():
    """Chains of sums and products print flat, so their text parses to the same program."""
    for text in [" + ".join(f"{k}e-8*y1*y2" for k in range(1, 3001)),
                 "/".join(["x"] + ["(1 - y1)"] * 500) + " * y2", "-" * MAX_NESTING + "y1"]:
        e = parse_expression(text)
        assert parse_expression(to_text(e)) == e


def _unshared(e):
    """e's program with no step read twice: a step read again is copied."""
    steps = []

    def copy(i):
        op, a, b = e.steps[i]
        if op in ("+", "-", "*", "/"):
            a, b = copy(a), copy(b)
        elif op in ("neg", "^"):
            a = copy(a)
        steps.append((op, a, b))
        return len(steps) - 1

    copy(len(e.steps) - 1)
    return Expression(tuple(steps))


def test_repeated_subexpression_is_recorded_once():
    """Oxygen's second f holds its denominator twice; it is parsed and recorded once.

    Its rows and values are bitwise those of the same program without sharing.
    """
    f = oxygen_problem(2.0).component2.rhs
    g = _unshared(f)
    assert to_text(g) == to_text(f) and len(g.steps) > len(f.steps)
    xs = np.linspace(0.0, 1.0, 7)
    y1 = [1.0 + 0.1 * xs, -0.2 * xs**2, 0.05 * xs, 0.01 + 0 * xs]
    y2 = [2.0 - 0.3 * xs, 0.1 * xs, -0.02 * xs**3, 0.003 * xs]
    counts, rows, values = [], [], []
    for e in (f, g):
        expansion = adomian_expansion(e, xs)
        counts.append(sum(rule is not None for rule in expansion.tape.rules))
        rows.append([adomian_coefficients(e, xs, y1[:k], y2[:k], expansion).tobytes()
                     for k in (1, 2, 4)])
        rows[-1].append(adomian_coefficients(e, xs, y1, y2).tobytes())
        values.append([eval_scalar(e, xs, y1[0], y2[0]).tobytes(),
                       eval_scalar(e, xs, y1[0] + 1j * STEP, y2[0]).tobytes(),
                       np.float64(eval_scalar(e, 0.3, 1.2, 0.8)).tobytes()])
    assert counts == [10, 13]
    assert rows[0] == rows[1] and values[0] == values[1]


def test_a_3000_term_sum_parses_evaluates_and_solves():
    """A long sum is a long chain of steps, not a deep recursion."""
    text = " + ".join(f"{k}e-8*y1*y2" for k in range(1, 3001))
    f = parse_expression(text)
    rate = sum(k * 1e-8 for k in range(1, 3001))
    assert eval_scalar(f, 0.5, 2.0, 3.0) == pytest.approx(6.0 * rate, rel=1e-12)
    other = ComponentSpec.make("lane_emden", alpha=2, c=2.0, rhs="-0.1*y1")
    long, short = (gfadm_solve(ProblemSpec(ComponentSpec.make("lane_emden", alpha=2,
                                                              c=1.0, rhs=rhs), other), 2)
                   for rhs in (text, f"{rate!r}*y1*y2"))
    for a, b in zip(long.terms1 + long.terms2, short.terms1 + short.terms2):
        assert np.allclose(a.values, b.values, rtol=1e-12, atol=0.0)


BUNDLED = [catalytic_problem(), catalytic_symmetric_problem(), oxygen_problem(1.0),
           oxygen_problem(2.0), oxygen_problem(3.0), co2_pge_problem()]
# f1 and f2 of each bundled problem, and of each RANDOM_EXPRS entry with the next
PAIRS = ([tuple(c.rhs for c in p.components) for p in BUNDLED]
         + [(parse_expression(a), parse_expression(b))
            for a, b in zip(RANDOM_EXPRS, RANDOM_EXPRS[1:] + RANDOM_EXPRS[:1])])
PAIR_IDS = [p.name for p in BUNDLED] + [f"random{k}" for k in range(len(RANDOM_EXPRS))]


def _bits(v):
    """v bitwise: arrays by dtype, shape and bytes, Polynomials by coefficients."""
    if isinstance(v, Polynomial):
        return "P", v.coeffs.tobytes()
    if isinstance(v, (list, tuple)):
        return [_bits(u) for u in v]
    a = np.asarray(v)
    return a.dtype.str, a.shape, a.tobytes()


def _outcome(fn, *args):
    """The bits of ``fn(*args)``, or the type and message of the error it raises."""
    try:
        return _bits(fn(*args))
    except GfadmError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("pair", PAIRS, ids=PAIR_IDS)
def test_eval_scalar_is_the_recursive_evaluation(pair):
    """Reals, complex steps and arrays, signed zeros among them, bitwise."""
    rng = np.random.default_rng(29)
    x = np.linspace(0.0, 1.0, 9)
    y1, y2 = rng.uniform(0.2, 1.5, size=(2, 3, 9))
    y1[0, :3], y2[1, :2] = 0.0, -0.0
    cases = [(0.3, 1.2, 0.7), (0.0, 0.0, -0.0), (0.3, 1.2 + 1j * STEP, 0.7),
             (0.3, 1.2, 0.7 + 1j * STEP), (x, y1, y2), (x, y1 + 1j * STEP, y2),
             (x, y1, y2 + 1j * STEP), (x[3], y1, 0.5)]
    for f in pair:
        for args in cases:
            got, want = (_outcome(fn, f, *args) for fn in (eval_scalar, reference.eval_scalar))
            assert got == want


@pytest.mark.parametrize("pair", PAIRS, ids=PAIR_IDS)
def test_joint_evaluation_is_each_expressions_own(pair):
    """``eval_scalar`` of the join gives each f's own value bitwise, or its first error."""
    rng = np.random.default_rng(31)
    x = np.linspace(0.0, 1.0, 9)
    y1, y2 = rng.uniform(0.2, 1.5, size=(2, 3, 9))
    y1[0, :3], y2[1, :2] = 0.0, -0.0
    cases = [(0.3, 1.2, 0.7), (0.0, 0.0, -0.0), (0.3, 1.2 + 1j * STEP, 0.7),
             (x, y1, y2), (x, y1 + 1j * STEP, y2), (x, y1, y2 + 1j * STEP),
             (x[3], y1, 0.5), (x, 0.0, -0.0)]
    both = join(pair)
    assert isinstance(both, Joint) and len(both.roots) == 2
    assert len(both.steps) <= sum(len(f.steps) for f in pair)
    for args in cases:
        own = [_outcome(eval_scalar, f, *args) for f in pair]
        errors = [o for o in own if len(o) == 2]  # (type, message)
        assert _outcome(eval_scalar, both, *args) == (errors[0] if errors else own)


def test_join_keeps_a_step_equal_in_both_once():
    f1, f2 = parse_expression("y1*y2 + x"), parse_expression("2*(y1*y2)")
    both = join([f1, f2])
    assert [op for op, _, _ in both.steps] == ["y1", "y2", "*", "x", "+", "num", "*"]
    assert both.roots == (4, 6)
    assert join([f1, f1]).roots == (4, 4)


@pytest.mark.parametrize("pair", PAIRS, ids=PAIR_IDS)
def test_adomian_rows_are_the_recursive_evaluations(pair, monkeypatch):
    """Rows at points, at one point and as polynomials, for each f and both, bitwise.

    The series counts of the expansions are the recursive evaluation's too.
    """
    xs = np.linspace(0.0, 1.0, 7)
    t1 = [1.0 + 0.1 * xs, -0.2 * xs**2, 0.05 * xs, 0.01 + 0 * xs]
    t2 = [2.0 - 0.3 * xs, 0.1 * xs, -0.02 * xs**3, 0.003 * xs]
    p1 = [Polynomial([1.0, 0.1]), Polynomial([0.0, 0.0, -0.2]), Polynomial([0.0, 0.05])]
    p2 = [Polynomial([2.0, -0.3]), Polynomial([0.0, 0.1]), 0.25]

    def outcomes():
        out = []
        for f in (pair[0], pair[1], list(pair)):
            expansion = adomian_expansion(f, xs)
            tape = (expansion[0] if isinstance(f, list) else expansion).tape
            out.append(sum(rule is not None for rule in tape.rules))
            out.append(_outcome(adomian_coefficients, f, xs, t1, t2))
            out.append(_outcome(adomian_coefficients, f, xs, t1[:2], t2[:2], expansion))
            out.append(_outcome(adomian_coefficients, f, xs, t1, t2, expansion))
            out.append(_outcome(adomian_coefficients, f, 0.4, [t[2] for t in t1],
                                [t[2] for t in t2]))
            out.append(_outcome(adomian_polynomial_rows, f, p1, p2))
        return out

    ours = outcomes()
    monkeypatch.setattr(gfadm.adomian, "eval_series", reference.eval_series)
    assert outcomes() == ours
