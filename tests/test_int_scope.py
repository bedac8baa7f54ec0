"""Only linalg.read_ints passes int as a value.

int() reads "1_0" as 10 and non-ASCII digits such as "\u0663" as 3, while
read_ints takes ASCII [+-]?[0-9]+ only; every header, flag and environment
variable kronmle reads as an integer goes through it.  A call that is given
int itself, such as map(int, header.split()) or argparse's type=int, is how
a new reader would bring the lenient parse back, so this walks the syntax
tree of each module in src/kronmle and fails if any call outside read_ints
is given the name int as an argument, by position or by keyword.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "kronmle"
READER = "linalg.read_ints"


def int_as_value(sources):
    """{module.qualified.name} of the functions, classes or modules (the
    innermost one) holding a call that is given the name int as an argument."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.Call):
            values = node.args + [k.value for k in node.keywords]
            if any(isinstance(v, ast.Name) and v.id == "int" for v in values):
                found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for module, source in sources.items():
        visit(ast.parse(source), module)
    return found


def test_checker_flags_int_as_a_value():
    source = (
        "r, c = map(int, header.split())\n"
        "def flags(p):\n    p.add_argument('--n', type=int)\n"
        "def calls(x):\n    return int(x), type(x) is int, [int(t) for t in x]\n"
        "class C:\n    def nested(self):\n        return lambda s: sorted(s, key=int)\n"
    )
    assert int_as_value({"m": source}) == {"m", "m.flags", "m.C.nested"}


def test_only_read_ints_passes_int():
    sources = {path.stem: path.read_text() for path in sorted(SOURCE.glob("*.py"))}
    assert "def read_ints(" in sources["linalg"]
    assert int_as_value(sources) - {READER} == set()
