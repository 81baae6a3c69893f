import dataclasses

import numpy as np
import pytest
import sympy as sp

from gfadm import (
    EvaluationError,
    ExpressionError,
    OrderMismatchError,
    catalytic_problem,
    catalytic_symmetric_problem,
    co2_pge_problem,
    eval_scalar,
    eval_series,
    oxygen_problem,
    parse_expression,
    to_text,
)
from gfadm.adomian import adomian_coefficients, adomian_expansion
from gfadm.expr import STEP, Var, evaluate
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
        assert e == Var("x")
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
        val = evaluate(e, x, y1, y2,
                       lambda c: np.full(np.broadcast(x, y1, y2).shape, c))
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


def _unshared(e):
    """A copy of the tree e in which no two nodes are one object."""
    return type(e)(**{f.name: _unshared(v) if dataclasses.is_dataclass(v) else v
                      for f in dataclasses.fields(e)
                      for v in [getattr(e, f.name)]})


def test_repeated_subexpression_is_recorded_once():
    """Oxygen's second f holds its denominator twice; it is parsed and recorded once.

    Its rows and values are bitwise those of the same tree without sharing.
    """
    f = oxygen_problem(2.0).component2.rhs
    g = _unshared(f)
    assert g == f and g is not f
    assert f.left.right is f.right.right and g.left.right is not g.right.right
    xs = np.linspace(0.0, 1.0, 7)
    y1 = [1.0 + 0.1 * xs, -0.2 * xs**2, 0.05 * xs, 0.01 + 0 * xs]
    y2 = [2.0 - 0.3 * xs, 0.1 * xs, -0.02 * xs**3, 0.003 * xs]
    counts, rows, values = [], [], []
    for e in (f, g):
        expansion = adomian_expansion(e, xs)
        counts.append(len(expansion.tape.series))
        rows.append([adomian_coefficients(e, xs, y1[:k], y2[:k], expansion).tobytes()
                     for k in (1, 2, 4)])
        rows[-1].append(adomian_coefficients(e, xs, y1, y2).tobytes())
        values.append([eval_scalar(e, xs, y1[0], y2[0]).tobytes(),
                       eval_scalar(e, xs, y1[0] + 1j * STEP, y2[0]).tobytes(),
                       np.float64(eval_scalar(e, 0.3, 1.2, 0.8)).tobytes()])
    assert counts == [10, 13]
    assert rows[0] == rows[1] and values[0] == values[1]
