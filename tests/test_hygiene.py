"""Static checks on the package source: no unused imports, no asserts.

An ``assert`` vanishes under ``python -O``, so internal invariants raise
typed errors instead.  The scan is a plain AST walk because no linter is a
dependency of the project.  ``__init__.py`` is skipped for unused imports,
since its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "icss"
MODULES = sorted(SRC.glob("*.py"))
NON_INIT = [p for p in MODULES if p.name != "__init__.py"]


def used_names(tree) -> set:
    """Every bare name the module reads, including inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return names


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, (alias.asname or alias.name).split(".")[0]


@pytest.mark.parametrize("path", NON_INIT, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = used_names(tree)
    unused = [
        f"{line}: {name}" for line, name in imported_names(tree) if name not in used
    ]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text())
    lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"
