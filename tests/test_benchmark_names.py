"""The kronmle names that the benchmark under perfbench/ reaches for.

perfbench/ wraps functions by name (spans.TARGETS), imports names in its
self-test, and patches cli.ProcessPoolExecutor in its worker.  A change that
deletes or renames one of them breaks the benchmark, not the program, so
these tests make such a change fail here first.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(dotted):
    """The object at a dotted path below the kronmle package."""
    head, *rest = dotted.split(".")
    obj = importlib.import_module(f"kronmle.{head}")
    for attr in rest:
        obj = getattr(obj, attr)
    return obj


def _attribute_chain(node):
    """'a.b.c' for a Name/Attribute chain a.b.c, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id, *reversed(parts)])
    return None


def _perfbench_tree(name):
    return ast.parse((PERFBENCH / name).read_text())


@pytest.mark.parametrize(
    "module,attr", [(m, a) for m, a, _ in _load_spans().TARGETS], ids=str
)
def test_span_target_resolves(module, attr):
    assert callable(_resolve(f"{module}.{attr}"))


def test_worker_imports_load_every_span_module():
    # spans.install reads sys.modules["kronmle." + module] after the worker's
    # own imports, in a fresh process: each module a span names must be
    # loaded by them, not only importable.
    imports = sorted(
        alias.name
        for node in ast.walk(_perfbench_tree("worker.py"))
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.split(".")[0] == "kronmle"
    )
    assert imports == ["kronmle", "kronmle.cli", "kronmle.model", "kronmle.solvers"]
    code = f"import sys, {', '.join(imports)}; print(' '.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(PERFBENCH.parent / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = set(out.stdout.split())
    assert {f"kronmle.{module}" for module, _, _ in _load_spans().TARGETS} <= loaded


def test_selftest_imports_resolve():
    names = [
        (node.module, alias.name)
        for node in ast.walk(_perfbench_tree("selftest.py"))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kronmle")
        for alias in node.names
    ]
    assert ("kronmle.mldegree", "prop43_system") in names
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_worker_attributes_resolve():
    chains = {
        chain
        for node in ast.walk(_perfbench_tree("worker.py"))
        if isinstance(node, ast.Attribute)
        and (chain := _attribute_chain(node))
        and chain.startswith("kronmle.")
        and chain.count(".") >= 2
    }
    assert "kronmle.cli.ProcessPoolExecutor" in chains
    for chain in chains:
        _resolve(chain.removeprefix("kronmle."))
