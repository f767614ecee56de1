"""The package's public surface and its modules' imports, read from source."""

import ast
import importlib
from pathlib import Path

PACKAGE = importlib.import_module("feaskit")
SRC = Path(PACKAGE.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _private_imports(tree):
    """(sibling module, name) for each underscore name imported from a
    sibling module."""
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_no_private_names_cross_into_the_cli_or_out_of_solvers_and_analysis():
    assert _private_imports(_tree(SRC / "cli.py")) == []
    for path in MODULES:
        reached = [
            (module, name)
            for module, name in _private_imports(_tree(path))
            if module in ("analysis", "solvers")
        ]
        assert reached == [], path.name


def _unused_imports(tree):
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in bound if name not in used)


def test_modules_use_every_name_they_import():
    # __init__.py imports names only to re-export them.
    for path in MODULES:
        if path.name != "__init__.py":
            assert _unused_imports(_tree(path)) == [], path.name


def test_every_exported_name_resolves_once():
    names = PACKAGE.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(PACKAGE, name)]
    assert missing == []
