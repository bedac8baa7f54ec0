"""Self-tests of the kronmle benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that the generator is
deterministic, that the oracles accept correct outputs and reject
perturbed ones, that verdicts and self times are computed as documented,
and confirms the expected counts in spec.json that the test suite does
not pin: the degrees of cells (2,5), (5,4) and (6,4) by the Rabinowitsch
route, and two multiplicity counts by sympy's Groebner bases.  Prints one
line per check and exits 1 if any fails.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import itertools
import json
import os
import shutil
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

FAILED = []


def check(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}{'  ' + detail if detail else ''}")
    if not ok:
        FAILED.append(name)


def test_generator_deterministic(tmp):
    def generate(workload, seed, label):
        out = tmp / f"{workload}-{label}"
        return out, json.dumps(gen.generate(workload, seed, out)).replace(str(out), "DIR")

    for workload in gen.WORKLOADS:
        a, items_a = generate(workload, 11, "a")
        names = sorted(p.name for p in a.iterdir())
        for label, seed in (("b", 11), ("c", 12)):
            other, items = generate(workload, seed, label)
            _, mismatch, errors = filecmp.cmpfiles(a, other, names, shallow=False)
            if seed == 11:
                same = names == sorted(p.name for p in other.iterdir()) and not mismatch and not errors
                check(f"generator: seed 11 twice gives byte-identical {workload} inputs", same and items == items_a)
            else:
                check(f"generator: seed 12 gives other {workload} inputs", bool(mismatch) or items != items_a)
            shutil.rmtree(other)
        shutil.rmtree(a)


def _run_cli(argv):
    from kronmle import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def test_mle_oracle(tmp):
    rng = np.random.default_rng(5)
    for shape in ((23, 4, 6), (12, 6, 3)):
        y = rng.standard_normal((shape[0], shape[1] * shape[2]))
        sample_path, est_path = tmp / "s.txt", tmp / "s.est"
        gen.write_sample(sample_path, y, *shape)
        code = _run_cli(["mle", "--in", str(sample_path), "--out", str(est_path)])
        sample = oracle.read_sample(sample_path)
        ok, _, why = oracle.check_mle(sample, est_path)
        form = "the k = 1 closed form" if shape[0] + 1 == shape[1] * shape[2] else "a flip-flop estimate"
        check(f"mle oracle accepts {form} at {shape}", code == 0 and ok, why)

        converged, k1, k2 = oracle.read_estimate(est_path)
        skew = np.zeros_like(k1)
        skew[0, 1], skew[1, 0] = 1e-12, -1e-12
        res = oracle.mle_residual(sample, k1 + skew * np.abs(k1).max(), k2)
        check(f"mle oracle accepts rounding-level asymmetry at {shape}",
              res <= oracle.SPEC["mle_oracle"]["residual_tol"], f"residual {res:.1e}")
        bump = np.eye(shape[1])
        bump[0, 1] = bump[1, 0] = 1e-3
        k2b = bump @ k2 @ bump
        k2b /= np.linalg.det(k2b) ** (1 / shape[1])
        for label, (a, b) in {
            "K1 scaled by 1.001": (k1 * 1.001, k2),
            "K2 sheared by 1e-3 at det 1": (k1, k2b),
            "det K2 = 1.01": (k1, k2 * 1.01 ** (1 / shape[1])),
            "K1 not positive definite": (k1 - 2 * np.linalg.eigvalsh(k1).max() * np.eye(shape[0]), k2),
        }.items():
            res = oracle.mle_residual(sample, a, b)
            det_ok = abs(np.linalg.det(b) - 1) <= oracle.SPEC["mle_oracle"]["det_k2_tol"]
            rejected = not (det_ok and res <= oracle.SPEC["mle_oracle"]["residual_tol"])
            check(f"mle oracle rejects a perturbed estimate at {shape}: {label}", rejected, f"residual {res:.2e}")


def test_exact_oracle(tmp):
    from kronmle import model, solvers

    y = np.random.default_rng(3).integers(0, 17, (11, 12))
    path = tmp / "e.txt"
    gen.write_sample(path, y, 11, 2, 6)
    sample = model.parse_sample_set(path.read_text(), exact=True)
    est = solvers.exact_mle_k1(sample)
    k1 = [[str(x) for x in row] for row in est.k1_exact.data]
    k2 = [[str(x) for x in row] for row in est.k2_exact.data]
    ok, why = oracle.check_exact(path, k1, k2)
    check("exact oracle accepts exact_mle_k1 at (11,2,6)", ok, why)
    k1[0][0] = str(Fraction(k1[0][0]) + Fraction(1, 1000))
    ok, why = oracle.check_exact(path, k1, k2)
    check("exact oracle rejects K1 with one entry off by 1/1000", not ok, why)
    k2b = [[str(-Fraction(x)) for x in row] for row in k2]
    ok, why = oracle.check_exact(path, [[str(x) for x in row] for row in est.k1_exact.data], k2b)
    check("exact oracle rejects a K2 that is not positive definite", not ok, why)


def test_verdicts():
    mle_item = {"id": "x", "call": "cli", "argv": ["mle"], "expect": {"exit": 0}}
    zero_item = {"id": "z", "call": "cli", "argv": ["mle"], "expect": {"exit": 2}}
    exact_item = {"id": "e", "call": "exact", "expect": {"raises": "MLENotExists"}}
    cases = [
        ("documented error on an input with an MLE is a failure", mle_item,
         {"exit": 3, "stderr": "MLE does not exist", "stdout": ""}, "fail"),
        ("traceback is a failure", mle_item, {"exception": "WrongRegime"}, "fail"),
        ("wrong documented code is a failure", zero_item, {"exit": 4, "stderr": "", "stdout": ""}, "fail"),
        ("expected documented code passes", zero_item, {"exit": 2, "stderr": "", "stdout": ""}, "ok"),
        ("estimate where none exists is wrong", zero_item, {"exit": 0, "stderr": "", "stdout": ""}, "wrong"),
        ("expected exception passes", exact_item, {"exception": "MLENotExists"}, "ok"),
        ("other exception is a failure", exact_item, {"exception": "DegenerateData"}, "fail"),
        ("multiplicity count mismatch is wrong", {"id": "m", "call": "cli", "argv": ["multiplicity"],
         "expect": {"exit": 0, "count": 4}}, {"exit": 0, "stdout": "solution count: 3 (bound", "stderr": ""}, "wrong"),
    ]
    for name, item, reply, want in cases:
        got, why = oracle.classify(item, reply, {})
        check(f"verdict: {name}", got == want, f"{got}: {why}")


def test_self_times():
    # root [0, 10] with children [1, 4] and [5, 6]; [1, 4] has child [2, 3]
    recorded = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    calls, total, self_s, root_s = spans.summarize(recorded)
    ok = (calls["b"] == 2 and total["b"] == 4.0 and self_s["a"] == 6.0
          and self_s["b"] == 3.0 and self_s["c"] == 1.0 and root_s == 10.0)
    check("self time is duration minus direct children", ok)


def test_rabinowitsch_degrees():
    from kronmle.groebner import buchberger, dim_and_degree
    from kronmle.mldegree import likelihood_equations_m2_2

    degrees = oracle.SPEC["mldegree"]["degrees"]
    for cell in ("2,5", "5,4", "6,4"):
        m1, n = (int(t) for t in cell.split(","))
        # The benchmark's data point, and one more.
        for seed in (oracle.SPEC["mldegree"]["data_seed"], 1):
            start = time.perf_counter()
            gb = buchberger(likelihood_equations_m2_2(m1, n, seed), order="grevlex")
            zero_dim, degree = dim_and_degree(gb)
            check(f"Rabinowitsch route confirms degree({cell}) = {degrees[cell]['degree']} (seed {seed})",
                  zero_dim and degree == degrees[cell]["degree"],
                  f"got {degree} in {time.perf_counter() - start:.2f} s")


def _sympy_count(ideal):
    """Solution count with multiplicity of a zero-dimensional ideal, by sympy."""
    import sympy

    syms = sympy.symbols(ideal.vars)
    exprs = []
    for g in ideal.generators:
        expr = 0
        for exp, c in g.terms.items():
            expr += sympy.Rational(c.numerator, c.denominator) * sympy.prod(s**e for s, e in zip(syms, exp))
        exprs.append(expr)
    basis = sympy.groebner(exprs, *syms, order="grevlex")
    if not basis.is_zero_dimensional:
        return None
    leads = [sympy.Poly(g, *syms).monoms(order="grevlex")[0] for g in basis.exprs]
    bounds = [min(l[i] for l in leads if all(e == 0 for j, e in enumerate(l) if j != i) and l[i] > 0)
              for i in range(len(syms))]
    return sum(
        1 for mono in itertools.product(*(range(b) for b in bounds))
        if not any(all(m >= l for m, l in zip(mono, lead)) for lead in leads)
    )


def test_multiplicity_counts():
    from kronmle.mldegree import prop43_system

    for case in oracle.SPEC["mldegree"]["multiplicity"]:
        got = _sympy_count(prop43_system(case["m2"], case["k"], case["case"]))
        check("sympy confirms multiplicity count {count} for case {case}, m2 = {m2}, k = {k}".format(**case),
              got == case["count"], f"got {got}")


def main():
    if not (ROOT / "src" / "kronmle" / "__init__.py").is_file():
        print("error: run from the root of a kronmle checkout", file=sys.stderr)
        return 2
    tmp = ROOT / ".perfbench_run" / f"selftest-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        test_generator_deterministic(tmp)
        test_mle_oracle(tmp)
        test_exact_oracle(tmp)
        test_verdicts()
        test_self_times()
        test_rabinowitsch_degrees()
        test_multiplicity_counts()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(FAILED)} failed" if FAILED else "all passed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
