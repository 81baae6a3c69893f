import numpy as np
import pytest
import sympy as sp

from gfadm import (
    EvaluationError,
    ExpressionError,
    TruncatedSeries,
    eval_scalar,
    eval_series,
    parse_expression,
    to_text,
)
from gfadm.expr import Var


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


class TestEvalSeries:
    def test_square(self):
        e = parse_expression("y1^2")
        y1 = TruncatedSeries([1, 0.3, 0])
        y2 = TruncatedSeries([0, 0, 0])
        out = eval_series(e, 0.0, y1, y2)
        assert np.allclose(out.coeffs, [1, 0.6, 0.09], atol=1e-14)

    def test_bilinear(self):
        a, b = 0.7, -1.2
        e = parse_expression("y1*y2")
        out = eval_series(e, 0.0, TruncatedSeries([1, a, 0]), TruncatedSeries([2, b, 0]))
        assert np.allclose(out.coeffs, [2, 2 * a + b, a * b], atol=1e-13)

    def test_rational_taylor(self):
        # f = y1/(1+y1) with y1 = 1 + t*lam: expansion (1+t lam)/(2+t lam)
        t = 0.83
        e = parse_expression("y1/(1+y1)")
        y1 = TruncatedSeries([1, t, 0, 0])
        out = eval_series(e, 0.0, y1, TruncatedSeries.constant(0.0, 3))
        expected = [0.5, t / 4, -t**2 / 8, t**3 / 16]
        assert np.allclose(out.coeffs, expected, atol=1e-13)

    def test_rational_taylor_sympy_oracle(self):
        lam = sp.symbols("lam")
        t = sp.Rational(83, 100)
        f = (1 + t * lam) / (2 + t * lam)
        want = [float(f.series(lam, 0, 4).removeO().coeff(lam, k)) for k in range(4)]
        e = parse_expression("y1/(1+y1)")
        out = eval_series(e, 0.0, TruncatedSeries([1, 0.83, 0, 0]),
                          TruncatedSeries.constant(0.0, 3))
        assert np.allclose(out.coeffs, want, atol=1e-13)


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
        series = eval_series(e, x, TruncatedSeries([y10, 0.1, 0]),
                             TruncatedSeries([y20, -0.2, 0]))
        assert abs(series[0] - eval_scalar(e, x, y10, y20)) <= 1e-14


@pytest.mark.parametrize("text", RANDOM_EXPRS)
def test_coefficient1_matches_central_difference(text):
    rng = np.random.default_rng(11)
    e = parse_expression(text)
    h = 1e-5
    for _ in range(20):
        x = rng.uniform(0, 1)
        y10, y20 = rng.uniform(0.5, 2.0, size=2)
        y11, y21 = rng.uniform(-1, 1, size=2)
        series = eval_series(e, x, TruncatedSeries([y10, y11, 0]),
                             TruncatedSeries([y20, y21, 0]))
        plus = eval_scalar(e, x, y10 + h * y11, y20 + h * y21)
        minus = eval_scalar(e, x, y10 - h * y11, y20 - h * y21)
        assert abs(series[1] - (plus - minus) / (2 * h)) <= 1e-7


@pytest.mark.parametrize("text", RANDOM_EXPRS + ["-y1^2", "-(y1 + y2)^3"])
def test_parser_roundtrip(text):
    rng = np.random.default_rng(3)
    e = parse_expression(text)
    e2 = parse_expression(to_text(e))
    for _ in range(100):
        x = rng.uniform(0, 1)
        y1, y2 = rng.uniform(0.5, 2.0, size=2)
        assert abs(eval_scalar(e, x, y1, y2) - eval_scalar(e2, x, y1, y2)) <= 1e-14
