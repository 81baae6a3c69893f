import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfadm import (
    OrderMismatchError,
    Polynomial,
    SingularDivisionError,
    TruncatedSeries,
    UnsupportedBackendError,
)


def ts(*coeffs):
    return TruncatedSeries(list(coeffs))


class TestAdd:
    def test_coefficientwise(self):
        assert ts(1, 2) + ts(3, 4) == ts(4, 6)

    def test_additive_identity(self):
        assert ts(1, 0, 0) + ts(0, 0, 0) == ts(1, 0, 0)

    def test_additive_inverse(self):
        assert ts(0.5, -0.5) + ts(-0.5, 0.5) == ts(0, 0)

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatchError):
            ts(1, 2) + ts(1, 2, 3)


class TestMul:
    def test_square_binomial(self):
        assert ts(1, 1, 0) * ts(1, 1, 0) == ts(1, 2, 1)

    def test_annihilator(self):
        assert ts(1, 2, 3) * ts(0, 0, 0) == ts(0, 0, 0)

    def test_scalar_scaling(self):
        assert ts(2, 0, 0) * ts(1, 1, 1) == ts(2, 2, 2)

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatchError):
            ts(1) * ts(1, 2)


class TestDiv:
    def test_geometric_series(self):
        q = ts(1, 0, 0, 0) / ts(1, 1, 0, 0)
        assert np.allclose(q.coeffs, [1, -1, 1, -1], atol=1e-14)

    def test_exact_factor(self):
        q = ts(1, 2, 1) / ts(1, 1, 0)
        assert np.allclose(q.coeffs, [1, 1, 0], atol=1e-14)

    def test_zero_constant_term(self):
        with pytest.raises(SingularDivisionError):
            ts(1, 0) / ts(0, 1)


class TestPow:
    def test_square(self):
        assert ts(1, 1, 0) ** 2 == ts(1, 2, 1)

    def test_empty_product(self):
        assert ts(3, 0, 0) ** 0 == ts(1, 0, 0)

    def test_lambda_cubed(self):
        assert ts(0, 1, 0, 0) ** 3 == ts(0, 0, 0, 1)

    def test_negative_exponent_rejected(self):
        with pytest.raises(OrderMismatchError):
            ts(1, 1) ** -1


coeff = st.floats(min_value=-10, max_value=10, allow_nan=False)
triples = st.tuples(
    st.lists(coeff, min_size=4, max_size=4),
    st.lists(coeff, min_size=4, max_size=4),
    st.lists(coeff, min_size=4, max_size=4),
)


def _close(a, b, rtol=1e-12):
    scale = max(1.0, float(np.max(np.abs(a.coeffs))), float(np.max(np.abs(b.coeffs))))
    return bool(np.all(np.abs(a.coeffs - b.coeffs) <= rtol * scale))


@settings(max_examples=200, deadline=None)
@given(triples)
def test_ring_axioms(abc):
    a, b, c = (ts(*v) for v in abc)
    assert _close(a + b, b + a)
    assert _close(a * b, b * a)
    assert _close((a + b) + c, a + (b + c))
    assert _close((a * b) * c, a * (b * c))
    assert _close(a * (b + c), a * b + a * c)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(coeff, min_size=5, max_size=5),
    st.lists(coeff, min_size=5, max_size=5).filter(lambda v: abs(v[0]) >= 0.1),
)
@example(av=[4, 0, 0, 0, 0], bv=[0.421875, 9.5, 0, 0, 0])
def test_div_mul_roundtrip(av, bv):
    a, b = ts(*av), ts(*bv)
    q = a / b
    # q_k grows like (b1/b0)^k, so the roundoff of coefficient k of q*b
    # scales with sum_i |q_i| |b_{k-i}|, not with a; subnormal results add
    # an absolute error of one subnormal unit per operation
    k = np.arange(len(av))
    scale = (ts(*np.abs(q.coeffs)) * ts(*np.abs(b.coeffs))).coeffs
    fp = np.finfo(float)
    bound = 8 * (k + 1) * (fp.eps * scale + fp.smallest_subnormal)
    assert np.all(np.abs((q * b).coeffs - a.coeffs) <= bound)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(coeff, min_size=6, max_size=6),
    st.lists(coeff, min_size=6, max_size=6),
    st.integers(min_value=1, max_value=4),
)
def test_truncation_consistency(av, bv, m):
    full = (ts(*av) * ts(*bv)).coeffs[: m + 1]
    short = (ts(*av[: m + 1]) * ts(*bv[: m + 1])).coeffs
    assert np.allclose(full, short, rtol=0, atol=1e-12)


def test_constant_constructor():
    s = TruncatedSeries.constant(2.5, 3)
    assert s.order == 3
    assert s == ts(2.5, 0, 0, 0)


class TestRingElements:
    def test_scalar_scales(self):
        assert 2.0 * ts(1, 2, 3) == ts(2, 4, 6)
        assert ts(1, 2, 3) * 2.0 == ts(2, 4, 6)

    def test_scalar_shifts_coefficient0(self):
        assert ts(1, 2, 3) + 1.5 == ts(2.5, 2, 3)
        assert 1.5 - ts(1, 2, 3) == ts(0.5, -2, -3)
        assert ts(1, 2, 3) - 1.0 == ts(0, 2, 3)

    def test_point_values(self):
        x = np.array([0.0, 0.5, 1.0])
        s = TruncatedSeries([1.0 + x, x, x**2])
        assert s.coeffs.shape == (3, 3)
        prod = x * s + 1.0
        assert np.allclose(prod.coeffs, [1 + x * (1 + x), x**2, x**3])
        # one point of the product equals the product at that point
        sq = (s * s).coeffs
        for k in range(3):
            assert np.allclose(sq[:, k], (ts(*s.coeffs[:, k]) ** 2).coeffs,
                               rtol=0, atol=1e-15)

    def test_point_values_division_index(self):
        a = TruncatedSeries([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        b = TruncatedSeries([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        with pytest.raises(SingularDivisionError) as exc:
            a / b
        assert exc.value.index == 1

    def test_polynomial_coefficients(self):
        x = Polynomial.identity()
        s = TruncatedSeries([Polynomial([1.0]), x])
        sq = x * s * s - 1.0
        assert np.allclose(sq[0].coeffs, [-1.0, 1.0])
        assert np.allclose(sq[1].coeffs, [0.0, 0.0, 2.0])
        with pytest.raises(UnsupportedBackendError):
            s / s
