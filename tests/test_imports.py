"""Every module-level import of the gfadm modules is read by its module, and
none of them imports scipy, at module level or inside a function."""

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
