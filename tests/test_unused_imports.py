"""No module-level import in the package or in the tests goes unused.

No linter ships with the project, so this walks each file's syntax tree:
every name bound by an import at module level must be read somewhere in
the file.  The package's ``__init__.py`` is exempt; it re-exports through
``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = [
    p for p in sorted((ROOT / "src" / "kronmle").glob("*.py")) if p.name != "__init__.py"
] + sorted((ROOT / "tests").glob("*.py"))


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


def test_checker_flags_an_unused_import():
    source = "import os\nimport sys\nfrom math import gcd, lcm\nprint(sys.path, lcm)\n"
    assert unused_imports(source) == [(1, "os"), (3, "gcd")]
    assert unused_imports("from __future__ import annotations\nimport numpy as np\nnp.eye(2)\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []
