"""Every module-level import of the gfadm modules is read by its module; none
of them imports scipy, at module level or inside a function; none uses
numpy.polynomial beyond its Chebyshev and Legendre modules; and the oracle
imports none of the series solver's machinery."""

import ast
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
                 "def f():\n    from .series import TruncatedSeries"):
        assert _gfadm_modules(ast.parse(line)) & ORACLE_FORBIDDEN, line
