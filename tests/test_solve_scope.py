"""Only linalg.solve_stack runs the Gauss-Jordan mode of the Bareiss kernel.

_bareiss_stack has two wrappers, one per mode: det_stack (forward) and
solve_stack (Gauss-Jordan, reduce_above=True); every exact solve, inverse
and adjugate goes through solve_stack.  This walks the syntax tree of each
module in src/kronmle: a function calls the Gauss-Jordan mode when it, or a
function or lambda inside it, calls _bareiss_stack with reduce_above set to
anything but a literal False, by keyword or as the second argument.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "kronmle"
GONE = {"solve_fraction_free", "adjugate_stack"}


def _functions(tree):
    """(qualified name, node) of each module-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _reduces_above(call):
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name != "_bareiss_stack":
        return False
    flags = [k.value for k in call.keywords if k.arg == "reduce_above"] + call.args[1:2]
    return any(not (isinstance(f, ast.Constant) and f.value is False) for f in flags)


def gauss_jordan_callers(sources):
    """{module.function} of the functions that call _bareiss_stack's Gauss-Jordan
    mode, and the set of every name defined at a module's top level or in a class."""
    callers, defined = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for name, node in _functions(tree):
            defined.add(name.rsplit(".", 1)[-1])
            if any(isinstance(c, ast.Call) and _reduces_above(c) for c in ast.walk(node)):
                callers.add(f"{module}.{name}")
        for node in tree.body:
            if isinstance(node, ast.Assign):
                defined |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return callers, defined


def _src():
    return {path.stem: path.read_text() for path in sorted(SOURCE.glob("*.py"))}


def test_checker_flags_the_gauss_jordan_mode():
    source = (
        "def forward(a):\n    return _bareiss_stack(a)\n"
        "def off(a):\n    return _bareiss_stack(a, reduce_above=False)\n"
        "def keyword(a):\n    return _bareiss_stack(a, reduce_above=True)\n"
        "def positional(a):\n    return linalg._bareiss_stack(a, True)\n"
        "def nested(a, flag):\n    return map(lambda x: _bareiss_stack(x, reduce_above=flag), a)\n"
        "class M:\n    def solve(self):\n        return _bareiss_stack(self.num[None], 1)\n"
        "adjugate_stack = None\n"
    )
    callers, defined = gauss_jordan_callers({"m": source})
    assert callers == {"m.keyword", "m.positional", "m.nested", "m.M.solve"}
    assert {"forward", "solve", "adjugate_stack"} <= defined


def test_only_solve_stack_runs_gauss_jordan():
    callers, _ = gauss_jordan_callers(_src())
    assert callers == {"linalg.solve_stack"}


def test_old_solve_wrappers_are_gone():
    _, defined = gauss_jordan_callers(_src())
    assert {"solve_stack", "det_stack", "_bareiss_stack"} <= defined
    assert not GONE & defined
