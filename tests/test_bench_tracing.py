"""The benchmark's tracer still binds every function it wraps.

``bench/tracing.py`` replaces functions by name in the modules that call
them.  A refactor that renames, moves or stops calling one of them would
break ``bench/run.py --trace 1``; these tests catch that first.
"""

import importlib.util
from pathlib import Path

import numpy as np

import gfadm.solver
from gfadm import EXACT, GRID, SPECTRAL, catalytic_problem, evaluate_partial_sum, \
    kernel_apply, residual

TRACING = Path(__file__).parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_uninstall():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for sites, _ in tracing.TARGETS.values():
            for site in sites:
                owner, attr = tracing._resolve(*site)
                assert hasattr(getattr(owner, attr), "__wrapped__"), site
        # a small solve on each backend, a spectral residual and a scalar
        # partial sum (as compare evaluates) pass every solver and grid
        # target at least once; a bound and an oracle solve (as bound and
        # compare make them) pass the analysis and oracle targets; the exact
        # backend's monomial tables are built anew, through the traced name
        p = catalytic_problem()
        gfadm.solver._monomial_images.cache_clear()
        for backend in (GRID, EXACT):
            sol = gfadm.solver.gfadm_solve(p, 2, backend=backend, grid_size=16)
            residual(p, sol, 2, [0.5], method=SPECTRAL)
            evaluate_partial_sum(sol, 2, 0.5)
        gfadm.convergence_estimate(p, sol, [2])
        gfadm.fd_solve(p, M=16)
    finally:
        tracer.uninstall()
    assert gfadm.solver.kernel_apply is kernel_apply
    calls = np.bincount(np.frombuffer(tracer.name_ix, dtype=np.int32),
                        minlength=len(tracer.names))
    for name in ("kernels.apply", "kernels.monomial_image", "adomian.coefficients",
                 "adomian.poly_rows", "expr.eval_series", "grids.interp",
                 "grids.derivative", "solver.solve", "expr.eval_scalar",
                 "analysis.lipschitz", "oracle.fd_solve"):
        assert calls[tracer.names.index(name)] > 0, name
