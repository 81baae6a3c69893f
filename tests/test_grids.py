import numpy as np
import pytest

from gfadm import GridFunction, Polynomial, chebyshev_lobatto
from gfadm.errors import UsageError


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
        g = GridFunction(nodes, np.sin(3 * nodes))
        assert np.allclose(g(nodes), np.sin(3 * nodes), atol=0)

    def test_interpolation_accuracy(self):
        nodes = chebyshev_lobatto(32)
        g = GridFunction(nodes, np.exp(np.sin(5 * nodes)))
        xs = np.linspace(0, 1, 113)
        assert np.max(np.abs(g(xs) - np.exp(np.sin(5 * xs)))) <= 1e-10

    def test_spectral_derivative(self):
        nodes = chebyshev_lobatto(32)
        g = GridFunction(nodes, np.cos(2 * nodes))
        d = g.derivative()
        xs = np.linspace(0, 1, 57)
        assert np.max(np.abs(d(xs) + 2 * np.sin(2 * xs))) <= 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(UsageError):
            GridFunction(chebyshev_lobatto(4), np.zeros(3))
