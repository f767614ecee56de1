"""The package's public surface and its modules' imports, read from source."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

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


def _enclosing_functions(tree, matches):
    """The innermost enclosing function (None at module level) of each
    node for which ``matches`` holds."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if matches(node):
            found.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def _handlers_catching(tree, name):
    """Functions holding an ``except`` clause that names exception ``name``."""

    def catches(node):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            return False
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        return any(isinstance(c, ast.Name) and c.id == name for c in caught)

    return _enclosing_functions(tree, catches)


def test_configuration_errors_are_caught_once_at_the_cli_boundary():
    # compare lets run's configuration errors raise, and the command
    # line maps every FeaskitError that escapes to one exit code in main.
    assert _handlers_catching(_tree(SRC / "analysis.py"), "FeaskitError") == []
    assert _handlers_catching(_tree(SRC / "cli.py"), "FeaskitError") == ["main"]


def _functions_calling(tree, name):
    """Functions holding a call of the plain name ``name``."""
    return _enclosing_functions(
        tree,
        lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == name,
    )


def test_problems_are_built_in_one_place():
    # The catalog is a table of problem documents, read like problem files.
    calls = {path.name: _functions_calling(_tree(path), "Problem") for path in MODULES}
    assert {k: v for k, v in calls.items() if v} == {"problems.py": ["problem_from_dict"]}


def test_the_alignment_slack_is_no_parameter(capsys):
    # The hybrid's switch slack is the fixed geometry._COLINEARITY_EPS: no
    # public function or method takes a tol, a caller's stale positional
    # tol raises instead of binding to the next parameter, and the
    # command line has no option for it.
    for name in PACKAGE.__all__:
        obj = getattr(PACKAGE, name)
        members = vars(obj).items() if inspect.isclass(obj) else [(name, obj)]
        for member, fn in members:
            if inspect.isfunction(fn) and not member.startswith("_"):
                assert "tol" not in inspect.signature(fn).parameters, (name, member)
    assert not hasattr(PACKAGE, "Tolerances")
    p = PACKAGE.builtin("sphere-line")
    with pytest.raises(TypeError):
        PACKAGE.run("crm", p.a, p.b, p.default_x0, None, None)
    with pytest.raises(TypeError):
        PACKAGE.compare(p, ["crm", "dr"], None, None)
    main = importlib.import_module("feaskit.cli").main
    assert main(["run", "--problem", "parabola", "--eps-colinear", "1e-12"]) == 64
    assert "--eps-colinear" in capsys.readouterr().err
