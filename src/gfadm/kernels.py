"""Closed-form kernels for the integral reformulation of the BVPs.

Two families are supported.  The ``lane_emden`` family covers operators
``y'' + (alpha/x) y'`` with the regularity condition ``y'(0) = 0`` and a
right boundary condition ``a y(1) + b y'(1) = c``; its kernel is

    G(x, s) = v(max(x, s)) - robin_shift,
    v(t) = ln t               for alpha == 1,
    v(t) = (t^(1-alpha) - 1) / (1 - alpha)   otherwise,

with ``robin_shift = b / a`` (zero for a pure Dirichlet condition at 1).
``alpha = 0`` gives ``v(t) = t - 1`` and handles the flat operator ``y''``
with a Neumann condition at 0.  The ``dirichlet_dirichlet`` family is the
classical kernel for ``y''`` with zero values at both ends,

    G(x, s) = s (x - 1)  for s <= x,   x (s - 1)  for x <= s.

``kernel_apply`` computes the weighted integral of the kernel against a
grid function, which is one step of the solution recursion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import QuadratureError, UnsupportedBackendError, UsageError
from .grids import Polynomial

LANE_EMDEN = "lane_emden"
DIRICHLET_DIRICHLET = "dirichlet_dirichlet"

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
# geometric subdivision levels for the panel touching s = 0 (tames the
# ln s / s^alpha endpoint behaviour under the weight)
_GEOM_LEVELS = 24


@dataclass(frozen=True)
class KernelSpec:
    family: str
    alpha: float = 0.0
    robin_shift: float = 0.0
    left_value: float = 0.0  # dirichlet_dirichlet baseline data (solver-owned)
    right_value: float = 0.0

    def __post_init__(self):
        if self.family not in (LANE_EMDEN, DIRICHLET_DIRICHLET):
            raise UsageError(f"unknown kernel family {self.family!r}")
        if self.family == LANE_EMDEN and self.alpha < 0:
            raise UsageError("lane_emden kernel requires alpha >= 0")
        if self.robin_shift < 0:
            raise UsageError("robin_shift must be >= 0")

    @property
    def weight_exponent(self) -> float:
        return self.alpha if self.family == LANE_EMDEN else 0.0


def _v(k: KernelSpec, t):
    if k.alpha == 1.0:
        return np.log(t)
    return (t ** (1.0 - k.alpha) - 1.0) / (1.0 - k.alpha)


def _kernel_values(k: KernelSpec, x: float, s: np.ndarray) -> np.ndarray:
    """Vectorized G(x, s) without domain validation."""
    if k.family == LANE_EMDEN:
        return _v(k, np.maximum(x, s)) - k.robin_shift
    return np.where(s <= x, s * (x - 1.0), x * (s - 1.0))


def kernel_eval(k: KernelSpec, x: float, s: float) -> float:
    """Pointwise kernel value with domain checks."""
    if not (0.0 <= x <= 1.0 and 0.0 <= s <= 1.0):
        raise UsageError("kernel arguments must lie in [0, 1]")
    if k.family == LANE_EMDEN and k.alpha >= 1.0 and max(x, s) == 0.0:
        raise UsageError("lane_emden kernel with alpha >= 1 needs max(x, s) > 0")
    return float(_kernel_values(k, x, np.asarray(s, dtype=float)))


def _panels(k: KernelSpec, x: float) -> list[tuple[float, float]]:
    cuts = sorted({0.0, float(x), 1.0})
    base = [(a, b) for a, b in zip(cuts[:-1], cuts[1:]) if b > a]
    if k.family != LANE_EMDEN or not base or base[0][0] != 0.0:
        return base
    # geometric refinement of the panel starting at 0
    a, b = base[0]
    edges = [0.0] + [b * 2.0 ** (i - _GEOM_LEVELS) for i in range(_GEOM_LEVELS + 1)]
    refined = list(zip(edges[:-1], edges[1:]))
    for a, b in base[1:]:
        # the weighted kernel is analytic away from s = 0 with radius ~ s, so
        # panels must not be much wider than their distance from the origin;
        # double the panel width away from the left edge
        cuts = [a]
        while 2.0 * cuts[-1] < b:
            cuts.append(2.0 * cuts[-1])
        cuts.append(b)
        refined += list(zip(cuts[:-1], cuts[1:]))
    return refined


def _quad(k: KernelSpec, g, x: float, panels) -> float:
    total = 0.0
    alpha = k.weight_exponent
    for a, b in panels:
        h = 0.5 * (b - a)
        s = a + h * (_GL_NODES + 1.0)
        vals = np.asarray(g(s), dtype=float)
        integrand = _kernel_values(k, x, s) * s**alpha * vals
        total += h * float(_GL_WEIGHTS @ integrand)
    return total


def kernel_apply(k: KernelSpec, g, x: float, check: bool = False) -> float:
    """Weighted integral ``int_0^1 G(x, s) s^alpha g(s) ds``.

    ``g`` is a callable (GridFunction or plain function) accepting a numpy
    array of abscissae.  The quadrature splits at the kink s = x; with
    ``check=True`` the panels are halved once and a disagreement beyond the
    accuracy target raises :class:`QuadratureError`.
    """
    if not 0.0 <= x <= 1.0:
        raise UsageError("kernel_apply wants x in [0, 1]")
    panels = _panels(k, x)
    value = _quad(k, g, x, panels)
    if check:
        halved = []
        for a, b in panels:
            m = 0.5 * (a + b)
            halved += [(a, m), (m, b)]
        refined = _quad(k, g, x, halved)
        if abs(refined - value) > 1e-10 + 1e-10 * abs(refined):
            raise QuadratureError(
                f"quadrature disagreement {abs(refined - value):.3e} at x={x:g}",
                estimate=refined,
            )
        value = refined
    return value


def kernel_monomial_image(k: KernelSpec, m: int) -> Polynomial:
    """Closed form of ``J_m(x) = int_0^1 G(x, s) s^(alpha+m) ds``.

    J_m solves ``J'' + (alpha/x) J' = x^m`` with ``J'(0) = 0`` and
    ``J(1) + robin_shift J'(1) = 0``.  Every lane_emden kernel has this
    polynomial image, the logarithmic one at alpha = 1 included.
    """
    if k.family != LANE_EMDEN:
        raise UnsupportedBackendError(
            "monomial images exist only for lane_emden kernels"
        )
    if m < 0:
        raise UsageError("monomial exponent must be >= 0")
    denom = (m + 2.0) * (m + 1.0 + k.alpha)
    coeffs = np.zeros(m + 3)
    coeffs[m + 2] = 1.0 / denom
    # particular solution x^(m+2)/denom; the additive constant enforces the
    # right boundary condition
    coeffs[0] = -(1.0 / denom + k.robin_shift * (m + 2.0) / denom)
    return Polynomial(coeffs)


def kernel_bound_m(k: KernelSpec) -> float:
    """``max over x in [0,1] of |int_0^1 G(x,s) s^alpha ds|``.

    Dense grid first (no unimodality assumed), then bounded local
    refinement around the grid maximizer.
    """
    ones = lambda s: np.ones_like(s)
    xs = np.linspace(0.0, 1.0, 1001)
    vals = np.array([abs(kernel_apply(k, ones, x)) for x in xs])
    i = int(np.argmax(vals))
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, xs.size - 1)]
    if hi <= lo:
        return float(vals[i])
    res = minimize_scalar(
        lambda x: -abs(kernel_apply(k, ones, float(np.clip(x, 0.0, 1.0)))),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(max(vals[i], -res.fun))
