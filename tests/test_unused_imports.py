"""No module-level import in the package or in the tests goes unused, and
no private helper of the package outlives its last caller.

No linter ships with the project, so this walks each file's syntax tree:
every name bound by an import at module level must be read somewhere in
the file.  The package's ``__init__.py`` is exempt; it re-exports through
``__all__``.  Every ``_``-prefixed function or constant defined at module
level in the package, and every ``_``-prefixed method of its module-level
classes, must be read somewhere in the package.  Public names and dunders
are exempt, because the benchmark, the tests or Python itself read them.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "kronmle").glob("*.py"))
FILES = [p for p in PACKAGE if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """(line, name) of each module-level import whose name the source never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def unused_private_names(sources):
    """(file, line, name) of each private module-level function or constant,
    or private method of a module-level class, that no source in ``sources``
    (file name -> source) reads."""
    defined, read = [], set()
    for file, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((file, node.lineno, node.name))
            elif isinstance(node, ast.ClassDef):
                methods = (m for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)))
                defined += [(file, m.lineno, m.name) for m in methods]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(file, t.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read.update(a.name for a in n.names)
    return [
        (file, line, name)
        for file, line, name in defined
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def test_checker_flags_an_unused_import():
    source = "import os\nimport sys\nfrom math import gcd, lcm\nprint(sys.path, lcm)\n"
    assert unused_imports(source) == [(1, "os"), (3, "gcd")]
    assert unused_imports("from __future__ import annotations\nimport numpy as np\nnp.eye(2)\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_private_name():
    sources = {
        "a.py": "_A = 1\n_B: int = 2\nC = _A\ndef _f():\n    pass\ndef _g():\n    return _f\n_h = 0\n",
        "b.py": "from a import _g\nimport a\nX = a._h\n__all__ = []\ndef public():\n    pass\n",
    }
    assert unused_private_names(sources) == [("a.py", 2, "_B")]
    assert unused_private_names({"c.py": "def _gone():\n    pass\n_LEFT = 3\n"}) == [
        ("c.py", 1, "_gone"),
        ("c.py", 3, "_LEFT"),
    ]


def test_checker_flags_an_unused_private_method():
    source = (
        "class K:\n"
        "    def __init__(self):\n"
        "        self._set()\n"
        "    def _set(self):\n"
        "        pass\n"
        "    @classmethod\n"
        "    def _stale(cls):\n"
        "        pass\n"
        "    def __eq__(self, other):\n"
        "        return True\n"
    )
    assert unused_private_names({"k.py": source}) == [("k.py", 7, "_stale")]
    assert unused_private_names({"k.py": source, "u.py": "from k import K\nK._stale()\n"}) == []


def test_no_unused_private_names():
    assert unused_private_names({p.name: p.read_text() for p in PACKAGE}) == []
