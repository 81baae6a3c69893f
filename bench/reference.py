"""Reference values computed apart from gfadm.

* ``bvp_reference``: the coupled BVP solved by ``scipy.integrate.solve_bvp``
  with right-hand sides written in plain numpy (``inputs.Problem.rhs``).
  The singular term ``(alpha/x) y'`` goes through solve_bvp's ``S`` matrix,
  which also imposes the regularity condition y'(0) = 0 at x = 0.
* ``monomial_image``: the closed form of ``int_0^1 G(x,s) s^(alpha+m) ds``.
* ``series_reference``: the truncated series itself, for quadratic f.
* ``kernel_norm``: the closed form of ``max_x |int_0^1 G(x,s) s^alpha ds|``.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import Polynomial
from scipy.integrate import solve_bvp

from inputs import Component, Problem

BVP_TOL = 1e-10


def bvp_reference(p: Problem):
    """Callable x -> (psi1(x), psi2(x)) from a converged solve_bvp run."""
    c1, c2 = p.components
    # unknowns z = (y1, y2, y1', y2');  z' = S z / x + f(x, z)
    S = np.diag([0.0, 0.0, -c1.alpha, -c2.alpha])

    def fun(x, z):
        f1, f2 = p.rhs(x, z[0], z[1])
        return np.vstack([z[2], z[3], f1, f2])

    def bc(za, zb):
        out = []
        for i, comp in enumerate(p.components):
            out.append(za[i + 2] if comp.left_value is None
                       else za[i] - comp.left_value)
        for i, comp in enumerate(p.components):
            out.append(zb[i] + comp.b * zb[i + 2] - comp.c)
        return np.array(out)

    x = np.linspace(0.0, 1.0, 201)
    z0 = np.zeros((4, x.size))
    for i, comp in enumerate(p.components):
        left = comp.c if comp.left_value is None else comp.left_value
        z0[i] = left + (comp.c - left) * x
    sol = solve_bvp(fun, bc, x, z0, S=S, tol=BVP_TOL, max_nodes=100000)
    if sol.status != 0:
        raise RuntimeError(f"solve_bvp failed on {p.name}: {sol.message}")
    return lambda xs: sol.sol(np.asarray(xs, dtype=float))[:2]


def monomial_image(comp: Component, m: int) -> Polynomial:
    """Closed form of the kernel applied to s^m, as a polynomial in x.

    ``x^(m+2)/((m+2)(m+1+alpha)) + C`` for lane_emden (any alpha >= 0, the
    constant C enforcing y(1) + b y'(1) = 0), ``(x^(m+2) - x)/((m+1)(m+2))``
    for Dirichlet conditions at both ends.
    """
    coef = np.zeros(m + 3)
    if comp.left_value is not None:
        coef[m + 2], coef[1] = 1.0, -1.0
        return Polynomial(coef / ((m + 1) * (m + 2)))
    coef[m + 2], coef[0] = 1.0, -1.0 - comp.b * (m + 2)
    return Polynomial(coef / ((m + 2) * (m + 1 + comp.alpha)))


# coefficients ((y1^2, y1*y2) in f1, (y1^2, y1*y2) in f2) of the families
# with quadratic right-hand sides
_QUADRATIC = {
    "catalytic": lambda k: ((k[0], k[1]), (k[2], k[3])),
    "catalytic_symmetric": lambda k: ((k[0], k[1]), (k[0], k[1])),
}


def series_reference(p: Problem, n: int):
    """psi_1n, psi_2n of the decomposition series, or None if f is not quadratic.

    An implementation of the recursion of its own: for f = a y1^2 + b y1 y2
    the Adomian row A_j is ``a sum_i y1_i y1_(j-i) + b sum_i y1_i y2_(j-i)``,
    and each new term is the monomial image of the row.
    """
    if p.family not in _QUADRATIC:
        return None
    coeffs = _QUADRATIC[p.family](p.rates)
    terms = [[Polynomial([comp.c])] for comp in p.components]
    for j in range(n):
        sq = sum(terms[0][i] * terms[0][j - i] for i in range(j + 1))
        cross = sum(terms[0][i] * terms[1][j - i] for i in range(j + 1))
        for comp, (a, b), out in zip(p.components, coeffs, terms):
            row = a * sq + b * cross
            out.append(sum(c * monomial_image(comp, m)
                           for m, c in enumerate(row.coef)))
    return tuple(sum(t) for t in terms)


def kernel_norm(comp: Component) -> float:
    """|J_0| at its maximiser: x = 0 for lane_emden, x = 1/2 for Dirichlet.

    ``comp.b`` (with a = 1) is the kernel's robin_shift.
    """
    if comp.left_value is not None:
        return 1.0 / 8.0
    return (1.0 + 2.0 * comp.b) / (2.0 * (1.0 + comp.alpha))
