"""The bound calculator's samples as they were before the open grid, for the checks.

``gfadm.analysis.partials_sup`` samples f on an open grid, so a step that
reads no x is evaluated on the 121 (y1, y2) pairs only, and
``solution_box`` evaluates both components' partial sums in one
``values_at`` call.  These are the paths they replace: the full 11 x 11 x 11
``meshgrid`` for every step, and one ``values_at`` call per component.  The
tests require equal values, or the same error type and message.
"""

import numpy as np

from gfadm.errors import EvaluationError, UsageError
from gfadm.expr import STEP, evaluate
from gfadm.grids import values_at


def lipschitz_estimate(f, box) -> tuple[float, float]:
    """(l1, l2) from the full sample grid, inflated by 10%."""
    (x0, x1), (a0, a1), (b0, b1) = box
    if x1 < x0 or a1 < a0 or b1 < b0:
        raise UsageError("empty Lipschitz box")
    xs = np.linspace(x0, x1, 11)
    ys1 = np.linspace(a0, a1, 11)
    ys2 = np.linspace(b0, b1, 11)
    gx, gy1, gy2 = np.meshgrid(xs, ys1, ys2, indexing="ij")

    def divide(a, b):
        if not (np.all(np.real(b) > 0) or np.all(np.real(b) < 0)):
            raise EvaluationError("a divisor vanishes or changes sign in the box")
        return a / b

    with np.errstate(over="ignore", invalid="ignore"):
        vals = [[v[r] for r in f.roots]
                for v in (evaluate(f.steps, gx, y1, y2, float, divide)
                          for y1, y2 in ((gy1 + 1j * STEP, gy2), (gy1, gy2 + 1j * STEP)))]
    if not all(np.all(np.isfinite(v)) for row in vals for v in row):
        raise EvaluationError("non-finite value while evaluating expression")
    l1, l2 = (max(np.max(np.abs(np.imag(v))) for v in row) for row in vals)
    return 1.1 * float(l1) / STEP, 1.1 * float(l2) / STEP


def solution_box(sol):
    """The padded range of each component's partial sums, one call each."""
    xs = np.linspace(0.0, 1.0, 101)
    ranges = []
    for i in (1, 2):
        vals = values_at([sol.psi(i, n) for n in range(sol.n_terms + 1)], xs)
        lo, hi = float(vals.min()), float(vals.max())
        pad = 0.1 * max(hi - lo, 1e-12)
        ranges.append((lo - pad, hi + pad))
    return ((0.0, 1.0), ranges[0], ranges[1])
