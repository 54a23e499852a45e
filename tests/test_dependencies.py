import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "roadlift").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_numpy_is_the_only_runtime_dependency(path):
    # Relative imports (level > 0) stay inside the package.
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    allowed = {*sys.stdlib_module_names, "numpy"}
    assert [m for m in modules if m.split(".")[0] not in allowed] == []


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_imported_name_is_used(path):
    # __init__.py is left out: it imports names only to re-export them.
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def _referenced_names(tree: ast.AST) -> set[str]:
    """Every name a module reads, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {a.name for a in node.names}
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_private_definition_is_referenced(path):
    # A module-level private function or class that no module of the
    # package names is dead code.
    referenced = set().union(*(_referenced_names(ast.parse(p.read_text())) for p in SOURCES))
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    ]
    assert sorted(set(private) - referenced) == []


def _constants(tree: ast.Module) -> list[str]:
    """The module-level UPPER_CASE names a module assigns."""
    targets = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets += node.targets
        elif isinstance(node, ast.AnnAssign):
            targets.append(node.target)
    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.lstrip("_").isupper()]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_constant_is_referenced(path):
    # A module-level constant that no module of the package reads or
    # imports is a bound or setting left orphaned.
    referenced = set().union(*(_referenced_names(ast.parse(p.read_text())) for p in SOURCES))
    constants = _constants(ast.parse(path.read_text(), filename=str(path)))
    assert sorted(set(constants) - referenced) == []
