"""Green's-function decomposition solver for coupled singular BVPs.

The public names are loaded on first use.  ``_SOURCES`` maps each one to
the module that defines it; the module's ``__getattr__`` (PEP 562) imports
that module on the first read of one of its names and keeps the name here,
so later reads are plain attribute reads.  ``import gfadm`` loads no
submodule, and a program, the ``gfadm`` CLI included, loads and compiles
only the modules whose names it reads.  ``__all__`` and ``dir(gfadm)`` are
the table's names; ``from gfadm import analysis`` still gives the
submodule.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_SOURCES = {name: module for module, names in (
    ("adomian", "adomian_coefficients adomian_polynomial_rows"),
    ("analysis", "ConvergenceEstimate ResidualReport convergence_estimate error_bound"
                 " lipschitz_estimate max_residual partials_sup residual solution_box"),
    ("benchmarks", "catalytic_problem catalytic_symmetric_problem co2_pge_problem"
                   " oxygen_problem"),
    ("errors", "BoundInapplicableError DegreeCapError EvaluationError ExpressionError"
               " GfadmError NoConvergenceError NumericError OrderMismatchError"
               " ProblemFileError SingularDivisionError UnsupportedBackendError"
               " UsageError"),
    ("expr", "eval_scalar eval_series parse_expression to_text"),
    ("grids", "GridFunction Polynomial chebyshev_lobatto"),
    ("kernels", "DIRICHLET_DIRICHLET LANE_EMDEN KernelSpec kernel_apply kernel_bound_m"
                " kernel_monomial_image"),
    ("oracle", "OracleSolution fd_solve"),
    ("solver", "ADOMIAN_IDENTITY SPECTRAL DIRICHLET EXACT GRID NEUMANN_ZERO"
               " ComponentSpec ProblemSpec SolutionSeries build_baseline"
               " evaluate_partial_sum gfadm_solve"),
) for name in names.split()}

__all__ = list(_SOURCES)


def __getattr__(name):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
