"""Spans around the public functions of each kronmle layer.

``install(tracer)`` replaces each function named in ``TARGETS`` by a
wrapper that records a span (name, start, end, parent) in the tracer, in
every kronmle module that binds it, so calls between modules are traced
too.  Spans stay in memory; the worker drains them after each item.  A
few wrappers also read the arguments or the result to keep the counts
that a span cannot give (sweeps, coefficient sizes, computed flops).

The runner turns the spans into self times with ``summarize``: a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict


def _bits(q):
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _on_parse_sample_set(tr, bound, result):
    tr.add("linalg.parse_matrix.bytes", len(bound.arguments["text"]))


def _on_scatter_k2(tr, bound, result):
    s = bound.arguments["sample"]
    tr.add("model.scatter.flop", 2 * s.n * (s.m1 * s.m2 * s.m2 + s.m1 * s.m1 * s.m2))


def _on_scatter_k1(tr, bound, result):
    s = bound.arguments["sample"]
    tr.add("model.scatter.flop", 2 * s.n * (s.m2 * s.m1 * s.m1 + s.m2 * s.m2 * s.m1))


def _on_flipflop(tr, bound, result):
    tr.add("solvers.flipflop.sweeps", result.iterations)
    # Calls with tol = 0 (the k = 1 deviation report) cannot converge.
    if not result.converged and bound.arguments["tol"] > 0:
        tr.add("solvers.flipflop.unconverged", 1)


def _on_exact_mle_k1(tr, bound, result):
    if result.k1_exact is not None:
        tr.peak("linalg.max_coeff_bits", max(_bits(x) for row in result.k1_exact.data for x in row))


def _on_score_polynomials(tr, bound, result):
    _, _, gens = result
    tr.peak("poly.score_coeff_bits", max(_bits(c) for g in gens for c in g.terms.values()))


def _on_buchberger(tr, bound, result):
    tr.add("groebner.basis_size", len(result.basis))


def _on_standard_monomials(tr, bound, result):
    tr.add("groebner.quotient_dim", len(result or ()))


def _cli_name(bound):
    argv = bound.arguments["argv"] or [""]
    return "cli.main." + argv[0]


# (module, attribute, hook on return); a dotted attribute is a method.
TARGETS = (
    ("linalg", "parse_matrix", None),
    ("linalg", "cholesky", None),
    ("linalg", "Matrix.solve", None),
    ("linalg", "Matrix.det", None),
    ("linalg", "Matrix.is_positive_definite", None),
    ("model", "scatter_k2", _on_scatter_k2),
    ("model", "scatter_k1", _on_scatter_k1),
    ("model", "kron_loglik", None),
    ("model", "parse_sample_set", _on_parse_sample_set),
    ("canonical", "canonicalize", None),
    ("canonical", "det_reduction_check", None),
    ("solvers", "flipflop", _on_flipflop),
    ("solvers", "exact_mle_k1", _on_exact_mle_k1),
    ("poly", "poly_gcd", None),
    ("poly", "poly_det", None),
    ("groebner", "buchberger", _on_buchberger),
    ("groebner", "normal_form", None),
    ("groebner", "standard_monomials", _on_standard_monomials),
    ("mldegree", "score_polynomials", _on_score_polynomials),
    ("mldegree", "count_solutions_off_locus", None),
    ("mldegree", "ml_multiplicity_prop43", None),
    ("cli", "main", None),
)


class Tracer:
    """In-memory span and count store for one worker process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = defaultdict(int)
        self.maxima = {}

    def add(self, name, value):
        self.counts[name] += value

    def peak(self, name, value):
        self.maxima[name] = max(value, self.maxima.get(name, value))

    def wrap(self, name, fn, hook):
        sig = inspect.signature(fn)
        dynamic_name = name == "cli.main"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if hook is not None or dynamic_name:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            span = [_cli_name(bound) if dynamic_name else name, 0.0, 0.0,
                    self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if hook is not None:
                hook(self, bound, result)
            return result

        return traced

    def drain(self):
        """Return and forget everything recorded since the last drain."""
        out = {"spans": self.spans, "counts": dict(self.counts), "maxima": self.maxima}
        self.spans, self.counts, self.maxima = [], defaultdict(int), {}
        return out


def install(tracer):
    """Wrap every target in each loaded kronmle module that binds it."""
    modules = [m for n, m in sys.modules.items() if n == "kronmle" or n.startswith("kronmle.")]
    for mod_name, attr, hook in TARGETS:
        mod = sys.modules["kronmle." + mod_name]
        name = f"{mod_name}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), hook))
            continue
        original = getattr(mod, attr)
        wrapped = tracer.wrap(name, original, hook)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)


def summarize(spans):
    """Per-name calls, inclusive and self seconds, and the root-span total."""
    calls = defaultdict(int)
    total = defaultdict(float)
    child = [0.0] * len(spans)
    root_s = 0.0
    for name, start, end, parent in spans:
        calls[name] += 1
        total[name] += end - start
        if parent >= 0:
            child[parent] += end - start
        else:
            root_s += end - start
    self_s = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        self_s[name] += end - start - child[i]
    return calls, total, self_s, root_s
