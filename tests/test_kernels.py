import numpy as np
import pytest
import reference_image
from reference_image import image_at

from gfadm import (
    DIRICHLET_DIRICHLET,
    LANE_EMDEN,
    KernelSpec,
    UsageError,
    kernel_apply,
    kernel_bound_m,
    kernel_monomial_image,
)
from gfadm.grids import GridFunction, Polynomial, chebyshev_lobatto, grid_nodes
from gfadm.kernels import _image_coeffs, _kernel_values, _node_image

LE0 = KernelSpec(LANE_EMDEN, alpha=0.0)
LE1 = KernelSpec(LANE_EMDEN, alpha=1.0)
LE2 = KernelSpec(LANE_EMDEN, alpha=2.0)
LE3 = KernelSpec(LANE_EMDEN, alpha=3.0)
DD = KernelSpec(DIRICHLET_DIRICHLET)


def kernel_eval(k: KernelSpec, x: float, s: float) -> float:
    """G(x, s) at one point of the unit square, rejecting points outside it."""
    if not (0.0 <= x <= 1.0 and 0.0 <= s <= 1.0):
        raise UsageError("kernel arguments must lie in [0, 1]")
    if k.family == LANE_EMDEN and k.alpha >= 1.0 and max(x, s) == 0.0:
        raise UsageError("lane_emden kernel with alpha >= 1 needs max(x, s) > 0")
    return float(_kernel_values(k, x, np.asarray(s, dtype=float)))


class TestKernelEval:
    def test_alpha2_branch(self):
        assert kernel_eval(LE2, 0.5, 0.8) == pytest.approx(1 - 1 / 0.8)

    def test_alpha1_log_branch(self):
        assert kernel_eval(LE1, 0.5, 0.25) == pytest.approx(np.log(0.5))

    def test_dirichlet_branch(self):
        assert kernel_eval(DD, 0.25, 0.5) == pytest.approx(0.25 * (0.5 - 1))

    def test_vanishes_at_right_end(self):
        for k in (LE0, LE1, LE2, DD):
            assert kernel_eval(k, 1.0, 0.37) == pytest.approx(0.0, abs=1e-14)

    def test_robin_shift_at_right_end(self):
        k = KernelSpec(LANE_EMDEN, alpha=2.0, robin_shift=0.5)
        assert kernel_eval(k, 1.0, 0.37) == pytest.approx(-0.5)

    def test_domain_violation(self):
        with pytest.raises(UsageError):
            kernel_eval(LE2, 1.5, 0.5)
        with pytest.raises(UsageError):
            kernel_eval(LE1, 0.0, 0.0)

    def test_dd_symmetry(self):
        rng = np.random.default_rng(0)
        for x, s in rng.uniform(0, 1, size=(50, 2)):
            assert kernel_eval(DD, x, s) == kernel_eval(DD, s, x)

    def test_kink_continuity(self):
        eps = 1e-8
        for k in (LE0, LE1, LE2, LE3, DD):
            for x in (0.3, 0.5, 0.9):
                jump = abs(kernel_eval(k, x, x - eps) - kernel_eval(k, x, x + eps))
                assert jump <= 1e-6


ONES = lambda s: np.ones_like(s)


class TestKernelApply:
    def test_alpha2_at_zero(self):
        # u'' + (2/x)u' = 1, u'(0)=0, u(1)=0 has u = (x^2-1)/6
        assert kernel_apply(LE2, ONES, 0.0) == pytest.approx(-1 / 6, abs=1e-10)

    def test_alpha2_at_one(self):
        assert kernel_apply(LE2, ONES, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_dirichlet_midpoint(self):
        # u'' = 1, u(0)=u(1)=0 has u = (x^2-x)/2
        assert kernel_apply(DD, ONES, 0.5) == pytest.approx(-1 / 8, abs=1e-10)

    def test_check_mode(self):
        v = kernel_apply(LE1, ONES, 0.5)
        assert v == pytest.approx((0.5**2 - 1) / 4, abs=1e-10)

    def test_domain_violation(self):
        with pytest.raises(UsageError):
            kernel_apply(LE2, ONES, -0.1)


# every kernel family, singular weights of several strengths, Robin shifts
IMAGE_KERNELS = [KernelSpec(LANE_EMDEN, alpha=a, robin_shift=r)
                 for a in (0.0, 0.5, 1.0, 2.0, 3.0) for r in (0.0, 0.5)] + [DD]
DENSE_X = np.concatenate(([0.0, 1e-9, 1e-4], np.linspace(0.01, 1.0, 34)))
SMOOTH = [lambda s: np.exp(np.sin(3 * s)), lambda s: 1.0 / (1.2 + s)]


class TestGridImage:
    """The exact image of a grid function against the quadrature reference."""

    @pytest.mark.parametrize("k", IMAGE_KERNELS)
    @pytest.mark.parametrize("fn", SMOOTH)
    def test_matches_quadrature(self, k, fn):
        nodes = chebyshev_lobatto(64)
        g = GridFunction(fn(nodes))
        xs = np.array([0.0, 0.013, 0.31, 0.5, 0.77, 1.0])
        fast = kernel_apply(k, g, xs)
        ref = kernel_apply(k, lambda s: g(s), xs)
        assert np.max(np.abs(fast - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("k", IMAGE_KERNELS)
    @pytest.mark.parametrize("n", [1, 2, 8, 64])
    def test_monomials(self, k, n):
        nodes = chebyshev_lobatto(n)
        # between nodes by Clenshaw, and at the nodes by the node matrix
        for xs in (DENSE_X, nodes):
            for m in range(min(n, 6) + 1):
                fast = kernel_apply(k, GridFunction(nodes**m), xs)
                if k.family == LANE_EMDEN:
                    exact = kernel_monomial_image(k, m)(xs)
                else:
                    exact = (xs ** (m + 2) - xs) / ((m + 1) * (m + 2))
                assert np.max(np.abs(fast - exact)) <= 1e-14

    @pytest.mark.parametrize("k", IMAGE_KERNELS)
    @pytest.mark.parametrize("n", [1, 2, 8, 64, 128])
    @pytest.mark.parametrize("fn", SMOOTH)
    def test_node_matrix_matches_clenshaw(self, k, n, fn):
        nodes = chebyshev_lobatto(n)
        g = GridFunction(fn(nodes))
        slow = image_at(k, g, nodes)
        calls = _node_image.cache_info()
        fast = kernel_apply(k, g, nodes)
        # relative to the image's size on [0, 1]: at n = 1 the nodes are the
        # ends, where a dirichlet_dirichlet image is zero up to rounding
        scale = np.max(np.abs(image_at(k, g, DENSE_X)))
        assert np.max(np.abs(fast - slow)) <= 1e-14 * scale
        # a copy of the nodes takes the node matrix too
        again = kernel_apply(k, g, nodes.copy())
        info = _node_image.cache_info()
        assert info.hits + info.misses == calls.hits + calls.misses + 2
        assert again.tobytes() == fast.tobytes()
        assert fast.tobytes() == (_node_image(k, n) @ g.values).tobytes()
        # other points of the same shape keep Clenshaw
        for xs in (nodes[::-1], 0.5 * nodes):
            info = _node_image.cache_info()
            assert kernel_apply(k, g, xs).tobytes() == image_at(k, g, xs).tobytes()
            assert _node_image.cache_info() == info
        # every caller shares the cached matrix
        assert not _node_image(k, n).flags.writeable

    @pytest.mark.parametrize("k", IMAGE_KERNELS)
    @pytest.mark.parametrize("n", [1, 2, 8, 64, 128])
    def test_maps_match_the_numpy_polynomial_build(self, k, n):
        """The closed-form maps against chebint, chebder, np.linalg.solve and
        chebvander (``reference_image``): the images of smooth functions to
        1e-14 of the image's size, and every entry to 1e-13 of the largest,
        as the dense solve's own rounding reaches 7.5e-14 of it at alpha = 0,
        n = 128 (see test_back_substitution_is_nearer_the_exact_map)."""
        nodes = grid_nodes(n)
        coeffs = reference_image.image_coeffs(k, n)
        at_nodes = reference_image.node_image(k, n)
        for fn in SMOOTH + [np.ones_like, lambda s: s**2]:
            g = fn(nodes)
            want = coeffs @ g
            size = np.max(np.abs(want))
            assert np.max(np.abs(_image_coeffs(k, n) @ g - want)) <= 1e-14 * size
            assert np.max(np.abs(_node_image(k, n) @ g - at_nodes @ g)) <= 1e-14 * size
        # the largest entry of either map (a dirichlet_dirichlet node map at
        # n = 1 is zero up to rounding)
        largest = max(np.max(np.abs(coeffs)), np.max(np.abs(at_nodes)))
        assert np.max(np.abs(_image_coeffs(k, n) - coeffs)) <= 1e-13 * largest
        assert np.max(np.abs(_node_image(k, n) - at_nodes)) <= 1e-13 * largest

    @pytest.mark.parametrize("k", [LE0, KernelSpec(LANE_EMDEN, 1.0, robin_shift=0.5)])
    def test_back_substitution_is_nearer_the_exact_map(self, k):
        """At n = 128 the back substitution is within 2e-14 of the map solved
        in 40 digits, and nearer to it than the dense solve."""
        exact = reference_image.image_coeffs_exact(k, 128)
        size = np.max(np.abs(exact))
        new = np.max(np.abs(_image_coeffs(k, 128) - exact))
        old = np.max(np.abs(reference_image.image_coeffs(k, 128) - exact))
        assert new <= 2e-14 * size and new < old

    def test_cached_nodes_take_the_node_matrix_and_stay_unpoisoned(self):
        """The solver's nodes are found by identity; no public array can change them."""
        n = 16
        nodes = grid_nodes(n)
        assert nodes is grid_nodes(n) and not nodes.flags.writeable
        assert nodes.tobytes() == chebyshev_lobatto(n).tobytes()
        g = GridFunction(np.cos(nodes))
        fast = (_node_image(LE2, n) @ g.values).tobytes()
        assert kernel_apply(LE2, g, nodes).tobytes() == fast
        assert kernel_apply(LE2, g, list(nodes)).tobytes() == fast  # equal, not identical
        # chebyshev_lobatto gives a fresh writable array each call
        mine = chebyshev_lobatto(n)
        assert mine.flags.writeable and mine is not chebyshev_lobatto(n)
        mine[3] = 0.25
        assert grid_nodes(n).tobytes() == chebyshev_lobatto(n).tobytes()
        assert kernel_apply(LE2, g, mine).tobytes() == image_at(LE2, g, mine).tobytes()
        with pytest.raises(ValueError):
            nodes[3] = 0.25

    def test_scalar_and_array_points(self):
        nodes = chebyshev_lobatto(8)
        g = GridFunction(np.cos(nodes))
        assert kernel_apply(LE2, g, DENSE_X).shape == DENSE_X.shape
        one = kernel_apply(LE2, g, 0.5)
        assert isinstance(one, float)
        assert one == kernel_apply(LE2, g, np.array([0.5]))[0]
        with pytest.raises(UsageError):
            kernel_apply(LE2, g, np.array([0.5, 1.5]))


class TestMonomialImage:
    def test_alpha2_m0(self):
        p = kernel_monomial_image(LE2, 0)
        assert np.allclose(p.coeffs, [-1 / 6, 0, 1 / 6], atol=1e-14)

    def test_alpha2_m2(self):
        p = kernel_monomial_image(LE2, 2)
        assert np.allclose(p.coeffs, [-1 / 20, 0, 0, 0, 1 / 20], atol=1e-14)

    def test_alpha0_m0(self):
        p = kernel_monomial_image(LE0, 0)
        assert np.allclose(p.coeffs, [-1 / 2, 0, 1 / 2], atol=1e-14)

    def test_dirichlet_dirichlet_image(self):
        # J'' = x^m with J(0) = J(1) = 0: (x^(m+2) - x) / ((m+1)(m+2))
        for m in range(9):
            p = kernel_monomial_image(DD, m)
            want = np.zeros(m + 3)
            want[m + 2] = 1.0 / ((m + 1) * (m + 2))
            want[1] = -want[m + 2]
            assert np.array_equal(p.coeffs, want)
            for x in (0.0, 0.31, 0.77, 1.0):
                assert abs(p(x) - kernel_apply(DD, lambda s: s**m, x)) <= 1e-9

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("m", range(9))
    def test_consistency_with_quadrature(self, alpha, m):
        k = KernelSpec(LANE_EMDEN, alpha=alpha)
        p = kernel_monomial_image(k, m)
        g = lambda s: s**m
        for x in (0.0, 0.31, 0.77, 1.0):
            assert abs(p(x) - kernel_apply(k, g, x)) <= 1e-9


class TestBound:
    def test_alpha2(self):
        assert kernel_bound_m(LE2) == pytest.approx(1 / 6, abs=1e-9)

    def test_alpha1(self):
        assert kernel_bound_m(LE1) == pytest.approx(1 / 4, abs=1e-9)

    def test_dirichlet(self):
        assert kernel_bound_m(DD) == pytest.approx(1 / 8, abs=1e-9)

    @pytest.mark.parametrize("k", [LE0, LE1, LE2, DD,
                                   KernelSpec(LANE_EMDEN, alpha=0.0, robin_shift=0.5),
                                   KernelSpec(LANE_EMDEN, alpha=2.0, robin_shift=0.5)])
    def test_closed_form_is_dense_maximum(self, k):
        xs = np.linspace(0.0, 1.0, 101)
        dense = np.max(np.abs(kernel_apply(k, ONES, xs)))
        if k.family == LANE_EMDEN:
            closed = (1 + 2 * k.robin_shift) / (2 * (1 + k.alpha))
        else:
            closed = 1 / 8
        assert kernel_bound_m(k) == closed
        assert abs(kernel_bound_m(k) - dense) <= 1e-12


def _fd(vals, h, order):
    """Second/first derivative by central differences on uniform samples."""
    if order == 1:
        return (vals[2:] - vals[:-2]) / (2 * h)
    return (vals[2:] - 2 * vals[1:-1] + vals[:-2]) / h**2


@pytest.mark.parametrize("spec,seed", [
    (LE0, 0), (LE1, 1), (LE2, 2), (LE3, 3), (DD, 4),
    (KernelSpec(LANE_EMDEN, alpha=2.0, robin_shift=0.4), 5),
])
def test_defining_property(spec, seed):
    """Master test: u = K g solves the ODE with the right boundary data."""
    rng = np.random.default_rng(seed)
    for _ in range(10):
        coeffs = rng.uniform(-1, 1, size=4)
        g = lambda s: np.polynomial.polynomial.polyval(s, coeffs)
        h = 1e-4
        xs = np.arange(0.2, 0.8, 0.02)
        for x in xs:
            pts = np.array([x - h, x, x + h])
            u = np.array([kernel_apply(spec, g, t) for t in pts])
            d2 = _fd(u, h, 2)[0]
            d1 = _fd(u, h, 1)[0]
            alpha = spec.alpha if spec.family == LANE_EMDEN else 0.0
            lhs = d2 + (alpha / x) * d1 if alpha else d2
            assert abs(lhs - g(np.array(x))) <= 1e-6 * max(1, abs(g(np.array(x))))
        # boundary conditions
        if spec.family == LANE_EMDEN:
            u0 = kernel_apply(spec, g, 0.0)
            u_eps = kernel_apply(spec, g, 1e-5)
            assert abs(u_eps - u0) / 1e-5 <= 1e-3  # u'(0) = 0
            u1 = kernel_apply(spec, g, 1.0)
            up1 = (kernel_apply(spec, g, 1.0) - kernel_apply(spec, g, 1.0 - h)) / h
            assert abs(u1 + spec.robin_shift * up1) <= 1e-3 * max(1.0, abs(up1))
        else:
            assert abs(kernel_apply(spec, g, 0.0)) <= 1e-10
            assert abs(kernel_apply(spec, g, 1.0)) <= 1e-10


def test_invalid_specs():
    with pytest.raises(UsageError):
        KernelSpec("bogus")
    with pytest.raises(UsageError):
        KernelSpec(LANE_EMDEN, alpha=-1.0)
    with pytest.raises(UsageError):
        KernelSpec(LANE_EMDEN, alpha=2.0, robin_shift=-0.5)
