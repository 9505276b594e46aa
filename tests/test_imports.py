"""The package's import rules: no qcsym module imports a private name of
another or a name it never uses, every import from within the package sits
at module level but cli's of numeric, numeric is the one module that
imports numpy, and every module-level name is used somewhere in the
package."""
import ast
from collections import Counter
from pathlib import Path

import pytest

import qcsym

MODULES = sorted(Path(qcsym.__file__).parent.glob("*.py"))

# cli imports numeric, and with it numpy, inside the handlers and suite
# steps that do float work, so the symbolic commands never load numpy
_DEFERRED = {"cli.py": "from . import numeric"}


def _violations(source: str, deferred: str | None = None) -> list:
    """Import-rule breaches in the source; ``deferred`` is the one import
    statement it may make inside a function."""
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
        if id(node) in local and ast.unparse(node) != deferred:
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
    assert _violations(path.read_text(), _DEFERRED.get(path.name)) == []


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


def test_rule_allows_only_the_deferred_import():
    source = (
        "def f():\n"
        "    from . import numeric\n"
        "    from . import classify, numeric as n\n"
        "    return numeric, classify, n\n"
    )
    assert _violations(source, _DEFERRED["cli.py"]) == ["line 3: import inside a function"]
    assert _violations(source) == [
        "line 2: import inside a function",
        "line 3: import inside a function",
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


def _references(node) -> Counter:
    """How often each name is read under the node: as a variable, an
    attribute, an imported name or a string (``__all__``, ``getattr``)."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name.split(".")[-1]] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out[n.value] += 1
    return out


def _definitions(tree) -> list:
    """(name, defining statement) for each module-level name but __all__."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [
                (n.id, node)
                for target in targets
                for n in ast.walk(target)
                if isinstance(n, ast.Name) and n.id != "__all__"
            ]
    return out


def _orphans(sources: dict) -> list:
    """'module: name' for each module-level name that nothing outside its
    own definition refers to, across all the given module sources."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    return [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name, node in _definitions(tree)
        if total[name] == _references(node)[name]
    ]


def test_every_module_level_name_is_used():
    assert _orphans({path.name: path.read_text() for path in MODULES}) == []


def test_orphan_rule_catches_unused_names():
    sources = {
        "a.py": (
            "__all__ = ['api']\n"
            "LIMIT = 3\n"
            "def api():\n"
            "    return _helper(LIMIT)\n"
            "def _helper(n):\n"
            "    return n\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1)\n"
            "_UNUSED: int = 0\n"
        ),
        "b.py": (
            "from .a import api\n"
            "def _by_name():\n"
            "    return api()\n"
            "unread = getattr(api, '_by_name')\n"
        ),
    }
    assert _orphans(sources) == ["a.py: _recursive", "a.py: _UNUSED", "b.py: unread"]
