"""Only linalg's two wrappers run the Bareiss kernel, and only solve_stack its Gauss-Jordan mode.

_bareiss_stack has two callers: det_stack (forward elimination, exact
over Python ints or mod a prime on int64 residues) and solve_stack
(Gauss-Jordan, reduce_above=True); every exact or modular determinant,
and so the exact PD test, goes through det_stack, and every exact solve,
inverse and adjugate through solve_stack.  This walks the syntax tree of each module in src/kronmle: a
function calls _bareiss_stack when it, or a function or lambda inside it,
does, and calls the Gauss-Jordan mode when such a call sets reduce_above
to anything but a literal False, by keyword or as the second argument.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "kronmle"
GONE = {"solve_fraction_free", "adjugate_stack", "_det_mod"}


def _functions(tree):
    """(qualified name, node) of each module-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _calls_kernel(call):
    func = call.func
    return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "_bareiss_stack"


def _reduces_above(call):
    if not _calls_kernel(call):
        return False
    flags = [k.value for k in call.keywords if k.arg == "reduce_above"] + call.args[1:2]
    return any(not (isinstance(f, ast.Constant) and f.value is False) for f in flags)


def kernel_callers(sources, calls=_calls_kernel):
    """{module.function} of the functions with a call that calls(call) accepts,
    and the set of every name defined at a module's top level or in a class."""
    callers, defined = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for name, node in _functions(tree):
            defined.add(name.rsplit(".", 1)[-1])
            if any(isinstance(c, ast.Call) and calls(c) for c in ast.walk(node)):
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
    callers, defined = kernel_callers({"m": source}, _reduces_above)
    assert callers == {"m.keyword", "m.positional", "m.nested", "m.M.solve"}
    assert {"forward", "solve", "adjugate_stack"} <= defined
    callers, _ = kernel_callers({"m": source})
    assert callers == {"m.forward", "m.off", "m.keyword", "m.positional", "m.nested", "m.M.solve"}


def test_only_solve_stack_runs_gauss_jordan():
    callers, _ = kernel_callers(_src(), _reduces_above)
    assert callers == {"linalg.solve_stack"}


def test_only_linalg_runs_the_kernel():
    callers, _ = kernel_callers(_src())
    assert callers == {"linalg.det_stack", "linalg.solve_stack"}


def test_old_solve_wrappers_are_gone():
    _, defined = kernel_callers(_src(), _reduces_above)
    assert {"solve_stack", "det_stack", "_bareiss_stack"} <= defined
    assert not GONE & defined
