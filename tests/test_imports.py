"""Every module-level import of the gfadm modules is read by its module; none
of them imports scipy, at module level or inside a function; none uses
numpy.polynomial beyond its Chebyshev and Legendre modules, and only the
kernels' quadrature reference imports it; no module imports dataclasses;
and the oracle imports none of the series solver's machinery.  The package
loads its public names on first use, and each CLI command loads only the
modules it runs."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gfadm

MODULES = sorted(p for p in Path(gfadm.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    assert sorted(imported - read) == []


@pytest.mark.parametrize("path", sorted(Path(gfadm.__file__).parent.rglob("*.py")),
                         ids=lambda p: p.name)
def test_no_scipy(path):
    modules = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
    assert not [m for m in modules if m.split(".")[0] == "scipy"]


# Polynomial does its arithmetic on plain arrays, bitwise as
# numpy.polynomial.polynomial would; that module's per-call conversions
# would be most of an exact solve again
NUMPY_POLYNOMIAL_ALLOWED = {"chebyshev", "legendre"}


def _dotted(node):
    """``a.b.c`` for an attribute chain on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


@pytest.mark.parametrize("path", sorted(Path(gfadm.__file__).parent.rglob("*.py")),
                         ids=lambda p: p.name)
def test_numpy_polynomial_only_chebyshev_and_legendre(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            names |= {f"{node.module}.{a.name}" for a in node.names}
        elif isinstance(node, ast.Attribute):
            names.add(_dotted(node))
    used = set()
    for parts in (name.split(".") for name in names if name):
        if parts[0] in ("numpy", "np") and len(parts) > 2 and parts[1] == "polynomial":
            used.add(parts[2])
    assert sorted(used - NUMPY_POLYNOMIAL_ALLOWED) == []


def _imports(tree):
    """(module, line) of every import in a module, at any depth."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(a.name, node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            out += [(f"{node.module}.{a.name}", node.lineno) for a in node.names]
    return out


def test_numpy_polynomial_only_in_the_quadrature_reference():
    """The Gauss-Legendre nodes of ``kernels._quad`` are the one use, imported
    in the function that makes them; the grid path builds its maps itself."""
    uses = []
    for path in sorted(Path(gfadm.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text())
        functions = {line: node.name for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef)
                     for line in range(node.lineno, node.end_lineno + 1)}
        uses += [(path.name, functions.get(line), name) for name, line in _imports(tree)
                 if name.startswith("numpy.polynomial")]
    assert uses == [("kernels.py", "_gauss_legendre", "numpy.polynomial.legendre")]


@pytest.mark.parametrize("path", sorted(Path(gfadm.__file__).parent.rglob("*.py")),
                         ids=lambda p: p.name)
def test_no_dataclasses(path):
    """Records are plain classes (``gfadm.record``): no start-up code is generated."""
    assert [name for name, _ in _imports(ast.parse(path.read_text()))
            if name.split(".")[0] == "dataclasses"] == []


# the finite-difference oracle checks the series solver, so it shares only
# the expression evaluator and the baseline with it (through solver)
ORACLE_FORBIDDEN = {"kernels", "grids", "series", "adomian"}


def _gfadm_modules(tree):
    """The gfadm modules a module imports, by name, at any depth."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = "gfadm" + "." * bool(node.module) if node.level else ""
            module = base + (node.module or "")
            names.add(module)
            names |= {f"{module}.{a.name}" for a in node.names}
    return {n.split(".")[1] for n in names if n.startswith("gfadm.")}


def test_oracle_imports_no_series_machinery():
    tree = ast.parse((Path(gfadm.__file__).parent / "oracle.py").read_text())
    assert "solver" in _gfadm_modules(tree)
    assert sorted(_gfadm_modules(tree) & ORACLE_FORBIDDEN) == []
    # the check sees each spelling of an import of a forbidden module
    for line in ("from .grids import GridFunction", "from . import kernels",
                 "import gfadm.series", "from gfadm import adomian",
                 "def f():\n    from .series import SeriesTape"):
        assert _gfadm_modules(ast.parse(line)) & ORACLE_FORBIDDEN, line


# the public names, as the package listed them when it imported every module
PUBLIC = """
ADOMIAN_IDENTITY BoundInapplicableError ComponentSpec ConvergenceEstimate DIRICHLET
DIRICHLET_DIRICHLET DegreeCapError EXACT EvaluationError ExpressionError GRID
GfadmError GridFunction KernelSpec LANE_EMDEN NEUMANN_ZERO NoConvergenceError
NumericError OracleSolution OrderMismatchError Polynomial ProblemFileError
ProblemSpec ResidualReport SPECTRAL SingularDivisionError SolutionSeries
UnsupportedBackendError UsageError adomian_coefficients adomian_polynomial_rows
build_baseline catalytic_problem catalytic_symmetric_problem chebyshev_lobatto
co2_pge_problem convergence_estimate error_bound eval_scalar eval_series
evaluate_partial_sum fd_solve gfadm_solve kernel_apply kernel_bound_m
kernel_monomial_image lipschitz_estimate max_residual oxygen_problem
parse_expression partials_sup residual solution_box to_text
""".split()


class TestPublicNames:
    def test_star_import_and_dir_list_the_public_names(self):
        namespace = {}
        exec("from gfadm import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC)
        assert dir(gfadm) == sorted(PUBLIC)
        assert len(gfadm.__all__) == len(PUBLIC)

    @pytest.mark.parametrize("name", PUBLIC)
    def test_each_name_is_its_module_s_object(self, name):
        module = importlib.import_module(f"gfadm.{gfadm._SOURCES[name]}")
        value = getattr(gfadm, name)
        assert value is getattr(module, name)
        if callable(value):  # classes and functions name the module that defines them
            assert value.__module__ == module.__name__
        assert vars(gfadm)[name] is value  # kept: later reads are attribute reads

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            gfadm.no_such_name
        with pytest.raises(ImportError):
            exec("from gfadm import no_such_name", {})


# what a command may not load: the modules of the other commands,
# numpy.polynomial (the kernel maps are built without it), the exact solve's
# json, the logging package, configparser (problem files are read by the
# CLI's own reader), click (argparse reads the command line) and dataclasses
# (records are plain classes)
WATCHED = ("gfadm.analysis", "gfadm.oracle", "gfadm.benchmarks", "numpy.polynomial",
           "json", "logging", "configparser", "click", "dataclasses")


def _loaded_after(code, tmp_path):
    """The WATCHED modules a fresh interpreter has loaded after running code."""
    src = str(Path(gfadm.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    report = f"\nimport sys\nprint(sorted(m for m in sys.modules if m in {WATCHED!r}))"
    out = subprocess.run([sys.executable, "-c", code + report], capture_output=True,
                         env={**os.environ, "PYTHONPATH": path,
                              "GFADM_OUT_DIR": str(tmp_path)},
                         text=True, check=True).stdout
    return set(ast.literal_eval(out.splitlines()[-1]))


def _command(*args):
    problem = Path(gfadm.__file__).parent / "problems" / args[1]
    return "\n".join([
        "import gfadm.cli", "try:",
        f"    gfadm.cli.main({[args[0], str(problem), *args[2:]]!r})",
        "except SystemExit as exc:", "    assert not exc.code, exc.code"])


class TestImportBudget:
    """Each CLI process loads, and so compiles, only the code its command runs."""

    def test_package_and_cli_load_no_command_module(self, tmp_path):
        assert _loaded_after("import gfadm", tmp_path) == set()
        assert _loaded_after("import gfadm.cli", tmp_path) == set()

    def test_poly_solve_loads_no_numpy_polynomial(self, tmp_path):
        loaded = _loaded_after(_command("solve", "example1_catalytic.ini",
                                        "--backend", "poly"), tmp_path)
        assert loaded == {"json"}  # for the .coeffs.json
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "example1_catalytic_solution.coeffs.json", "example1_catalytic_solution.csv"]

    @pytest.mark.parametrize("cmd, own", [
        ("solve", set()), ("residual", {"gfadm.analysis"}), ("bound", {"gfadm.analysis"}),
        ("compare", {"gfadm.oracle"})], ids=["solve", "residual", "bound", "compare"])
    def test_grid_commands_load_only_their_own_module(self, cmd, own, tmp_path):
        loaded = _loaded_after(_command(cmd, "example2_oxygen.ini"), tmp_path)
        assert loaded == own

    def test_compare_loads_no_analysis(self, tmp_path):
        loaded = _loaded_after(_command("compare", "example1_symmetric.ini"), tmp_path)
        assert loaded == {"gfadm.oracle"}

    @pytest.mark.parametrize("cmd", ["residual", "bound"])
    def test_residual_and_bound_load_no_oracle(self, cmd, tmp_path):
        loaded = _loaded_after(_command(cmd, "example1_catalytic.ini"), tmp_path)
        assert loaded == {"gfadm.analysis"}

    def test_submodule_import_still_gives_the_module(self, tmp_path):
        code = ("from gfadm import analysis\nimport sys\n"
                "assert analysis is sys.modules['gfadm.analysis']\n"
                "assert analysis.residual.__module__ == 'gfadm.analysis'")
        assert _loaded_after(code, tmp_path) == {"gfadm.analysis"}
