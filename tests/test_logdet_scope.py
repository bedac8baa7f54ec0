"""No module of kronmle takes a float determinant: the gauge uses log-determinants.

det(K2) of a float matrix overflows or underflows with the scale of the
data (a 50 x 50 K1 of data scaled by 1e4 has det about 1e-400), while the
model and flip-flop's stop rule do not change under Yi -> A Yi B^T.  So the
det(K2) = 1 rescale, in flipflop and in normalize_det1, is taken from
Cholesky log-determinants.  This walks the syntax tree of each module in
src/kronmle and fails on any call to numpy.linalg.det, spelled as an
attribute (np.linalg.det, numpy.linalg.det) or imported by name from
numpy.linalg.  The exact determinants (Matrix.det, det_stack) are not floats
and are not flagged.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "kronmle"


def float_det_calls(sources):
    """{module.qualified.name} of the functions, classes or modules (the
    innermost one) that call numpy.linalg.det or import it by name."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            if any(alias.name == "det" for alias in node.names):
                found.add(where)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "det":
                owner = func.value
                if isinstance(owner, ast.Attribute) and owner.attr == "linalg":
                    found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for module, source in sources.items():
        visit(ast.parse(source), module)
    return found


def test_checker_flags_float_determinants():
    source = (
        "import numpy as np\n"
        "def gauge(k2):\n    return np.linalg.det(k2) ** 0.5\n"
        "def exact(m):\n    return m.det(), det_stack(m.num[None])\n"
        "class C:\n    def scale(self, a):\n        return numpy.linalg.det(a)\n"
        "def named(a):\n    from numpy.linalg import det\n    return det(a)\n"
        "def logs(a):\n    return np.linalg.slogdet(a)\n"
    )
    assert float_det_calls({"m": source}) == {"m.gauge", "m.C.scale", "m.named"}


def test_no_float_determinant_in_src():
    sources = {path.stem: path.read_text() for path in sorted(SOURCE.glob("*.py"))}
    assert "def logdet_pd(" in sources["linalg"]
    assert float_det_calls(sources) == set()
