"""Seeded inputs: the paper's problems with perturbed rate constants.

Each problem exists twice, from the same rate constants: as an INI problem
file that the program parses, and as plain numpy right-hand sides that the
independent reference in ``reference.py`` integrates.  Nothing here imports
gfadm.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Every rate constant is multiplied by its own factor drawn uniformly from
# this range.  The checks in every run (psi against solve_bvp within the
# per-problem tolerance, residual tables that fall with n) confirm that the
# series still converges over the whole range.
RATE_FACTOR = (0.95, 1.05)
# One abscissa is drawn uniformly within +-JITTER of each table abscissa
# 0.1, ..., 0.9 of the paper.
TABLE_ABSCISSAE = [round(0.1 * i, 1) for i in range(1, 10)]
JITTER = 0.04
DEFAULT_SEED = 1
# Probe points for kernel_apply against the closed-form monomial images.
PROBE_EXPONENTS = range(5)
PROBE_POINTS = 3

_SAT_OXYGEN = "((0.0001 + y1)*(0.0001 + y2))"


@dataclass(frozen=True)
class Component:
    alpha: float
    left_value: float | None  # None: y'(0) = 0; else the Dirichlet value y(0)
    c: float  # right condition y(1) + b y'(1) = c
    rhs_text: str
    b: float = 0.0  # the kernel's robin_shift; 0 in all of the paper's problems

    def operator_text(self) -> str:
        if self.left_value is None and self.alpha > 0:
            return f"lane_emden alpha={self.alpha:g}"
        return "flat"

    def left_text(self) -> str:
        if self.left_value is None:
            return "neumann0"
        return f"dirichlet value={self.left_value!r}"


@dataclass(frozen=True)
class Problem:
    name: str
    family: str
    rates: tuple
    components: tuple
    run: tuple  # [run] defaults: (n_terms, backend, grid_size)

    def ini(self) -> str:
        lines = [f"# {self.family}, rates {', '.join(repr(r) for r in self.rates)}"]
        for i, comp in enumerate(self.components, start=1):
            lines += [
                f"[component.{i}]",
                f"operator = {comp.operator_text()}",
                f"left = {comp.left_text()}",
                f"right = a=1 b={comp.b!r} c={comp.c!r}",
                f"rhs = {comp.rhs_text}",
                "",
            ]
        n, backend, grid = self.run
        lines += ["[run]", f"n_terms = {n}", f"backend = {backend}",
                  f"grid_size = {grid}"]
        return "\n".join(lines) + "\n"

    def rhs(self, x, y1, y2):
        """(f1, f2) as plain numpy expressions of the same rate constants."""
        return _RHS[self.family](self.rates, x, y1, y2)


def _catalytic_rhs(k, x, y1, y2):
    k1, k2, k3, k4 = k
    return k1 * y1**2 + k2 * y1 * y2, k3 * y1**2 + k4 * y1 * y2


def _symmetric_rhs(k, x, y1, y2):
    ka, kb = k
    f = ka * y1**2 + kb * y1 * y2
    return f, f


def _oxygen_rhs(k, x, y1, y2):
    r, q1, q2 = k
    sat = y1 * y2 / ((0.0001 + y1) * (0.0001 + y2))
    return 1.0 - r * sat, -q1 * sat - q2 * sat


def _co2_rhs(k, x, y1, y2):
    a, b = k
    s = y1 * y2 / (1.0 + y1 + 3.0 * y2)
    return a * s, b * s


_RHS = {
    "catalytic": _catalytic_rhs,
    "catalytic_symmetric": _symmetric_rhs,
    "oxygen": _oxygen_rhs,
    "co2_pge": _co2_rhs,
}


def _catalytic(k):
    k1, k2, k3, k4 = k
    return (Component(2.0, None, 1.0, f"{k1!r}*y1^2 + {k2!r}*y1*y2"),
            Component(2.0, None, 2.0, f"{k3!r}*y1^2 + {k4!r}*y1*y2"))


def _symmetric(k):
    ka, kb = k
    rhs = f"{ka!r}*y1^2 + {kb!r}*y1*y2"
    return Component(2.0, None, 1.0, rhs), Component(2.0, None, 2.0, rhs)


def _oxygen(alpha):
    def build(k):
        r, q1, q2 = k
        return (
            Component(alpha, None, 1.0, f"1 - {r!r}*y1*y2/{_SAT_OXYGEN}"),
            Component(alpha, None, 1.0, f"-{q1!r}*y1*y2/{_SAT_OXYGEN} - "
                                        f"{q2!r}*y1*y2/{_SAT_OXYGEN}"),
        )
    return build


def _co2(k):
    a, b = k
    return (Component(0.0, 1.0, 0.5, f"{a!r}*y1*y2/(1 + y1 + 3*y2)"),
            Component(0.0, None, 1.0, f"{b!r}*y1*y2/(1 + y1 + 3*y2)"))


# name -> (family, nominal rates, components from rates, [run] defaults of the
# bundled file)
CATALOGUE = {
    "catalytic": ("catalytic", (1.0, 0.4, 0.5, 1.0), _catalytic, (5, "poly", 64)),
    "catalytic_symmetric": ("catalytic_symmetric", (0.5, 0.5), _symmetric,
                            (5, "poly", 64)),
    "oxygen_alpha1": ("oxygen", (5.1, 0.1, 0.05), _oxygen(1.0), (4, "grid", 64)),
    "oxygen_alpha2": ("oxygen", (5.0, 0.1, 0.05), _oxygen(2.0), (4, "grid", 64)),
    "oxygen_alpha3": ("oxygen", (5.0, 0.1, 0.05), _oxygen(3.0), (4, "grid", 64)),
    "co2_pge": ("co2_pge", (1.0, 2.0), _co2, (4, "grid", 64)),
}


def make_problem(name: str, rng: random.Random) -> Problem:
    """The named problem with its rate constants perturbed by ``rng``."""
    family, nominal, build, run = CATALOGUE[name]
    rates = tuple(r * rng.uniform(*RATE_FACTOR) for r in nominal)
    return Problem(name, family, rates, build(rates), run)


def draw_abscissae(rng: random.Random) -> list[float]:
    return [x + rng.uniform(-JITTER, JITTER) for x in TABLE_ABSCISSAE]


def draw_probe_points(rng: random.Random) -> list[float]:
    return [rng.uniform(0.0, 1.0) for _ in range(PROBE_POINTS)]
