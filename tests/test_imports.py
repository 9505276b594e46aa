"""The package's import rules: no qcsym module imports a private name of
another or a name it never uses, every import from within the package sits
at module level, and numeric is the one module that imports numpy."""
import ast
from pathlib import Path

import pytest

import qcsym

MODULES = sorted(Path(qcsym.__file__).parent.glob("*.py"))


def _violations(source: str) -> list:
    tree = ast.parse(source)
    local = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # a re-export listed in __all__ counts as a use
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "qcsym":
            continue
        if id(node) in local:
            out.append(f"line {node.lineno}: import inside a function")
        out += [
            f"line {node.lineno}: private name {alias.name}"
            for alias in node.names
            if alias.name.startswith("_")
        ]
        out += [
            f"line {node.lineno}: unused name {alias.asname or alias.name}"
            for alias in node.names
            if (alias.asname or alias.name) not in used
        ]
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_keeps_the_import_rule(path):
    assert _violations(path.read_text()) == []


def test_rule_catches_both_kinds():
    source = (
        "from .expr import Expr, _hidden\n"
        "from fractions import _private_is_not_ours\n"
        "from .calculus import diff\n"
        "def f():\n"
        "    from qcsym.parser import parse\n"
        "    return Expr, _hidden, parse\n"
    )
    assert _violations(source) == [
        "line 1: private name _hidden",
        "line 3: unused name diff",
        "line 5: import inside a function",
    ]


def _numpy_imports(source: str) -> list:
    """The line of each statement in the source that imports numpy."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            out.append(node.lineno)
    return out


@pytest.mark.parametrize(
    "path", [path for path in MODULES if path.name != "numeric.py"],
    ids=lambda path: path.name,
)
def test_only_numeric_imports_numpy(path):
    assert _numpy_imports(path.read_text()) == []


def test_numpy_rule_catches_every_form():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import norm\n"
        "import numbers, numpy.random\n"
        "from .numeric import np\n"
        "def f():\n"
        "    import numpy\n"
    )
    assert _numpy_imports(source) == [1, 2, 3, 6]
