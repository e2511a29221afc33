"""The runtime is stdlib-only: every import in the package names a standard
library module or the package itself."""

import ast
import sys
from pathlib import Path

import synthex

PACKAGE_DIR = Path(synthex.__file__).parent


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_only_stdlib_and_itself():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    foreign = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for lineno, name in _imported_modules(tree):
            top = name.partition(".")[0]
            if top not in sys.stdlib_module_names and top != "synthex":
                foreign.append(f"{path.name}:{lineno}: {name}")
    assert foreign == []
