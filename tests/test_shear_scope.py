"""Only the count sees the shear y -> y + c*x of kronmle.mldegree.

The image builders return their polynomials in their own variables, and
the count applies the shear while it evaluates them.  This walks
mldegree's syntax tree: a module-level function sees the shear when it,
or a function or lambda inside it, takes a parameter named ``shear`` or
reads the name ``shear`` or ``_shear``.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "kronmle" / "mldegree.py"
BUILDERS = ("_chart_images", "_prop43_images", "_poly_images", "_divide_g2")
COUNT = {"_count_by_trials", "_sheared_count", "_rows_at"}


def shear_readers(source):
    """(defined, readers): the names of the module-level functions, and of
    those among them that take or read a shear."""
    defined, readers = set(), set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            defined.add(node.name)
            params = {a.arg for a in ast.walk(node) if isinstance(a, ast.arg)}
            reads = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            if {"shear", "_shear"} & (params | reads):
                readers.add(node.name)
    return defined, readers


def test_checker_flags_a_shear():
    source = (
        "def _shear(prime):\n    return 1\n"
        "def takes(a, shear):\n    return a\n"
        "def reads(a, prime):\n    return a * _shear(prime)\n"
        "def nested(prime):\n    return count(lambda p, shear: p)\n"
        "def clean(a, prime):\n    return a % prime\n"
    )
    assert shear_readers(source) == ({"_shear", "takes", "reads", "nested", "clean"}, {"takes", "reads", "nested"})


def test_no_image_builder_sees_the_shear():
    defined, readers = shear_readers(SOURCE.read_text())
    assert set(BUILDERS) <= defined
    assert not set(BUILDERS) & readers


def test_only_the_count_sees_the_shear():
    assert shear_readers(SOURCE.read_text())[1] == COUNT
