"""Seeded input generator for the kronmle benchmark.

``generate(workload, seed, out_dir)`` writes every input file of one
workload under ``out_dir`` and returns the list of items the runner sends
to the program, in order.  The same seed gives byte-identical files.

    python3 perfbench/gen.py --workload mle_iterative --seed 1 --out DIR

writes the files and prints the item list as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path

import numpy as np

SPEC = json.loads((Path(__file__).with_name("spec.json")).read_text())
# Each workload runs the items of its parts, in this order.
WORKLOADS = SPEC["workloads"]


def _rng(seed, *key):
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def _factor(rng, m, kind):
    """Square root A of a covariance factor A A^T.

    "g" draws A = I + 0.3 G with G standard normal, "g_unit" the same with
    G scaled by 1/sqrt(m) so that cond(A A^T) stays near 10 at any m, and
    "condXeY" draws A = Q diag(s) with Q orthogonal and s log-spaced so
    that A A^T has that condition number.
    """
    if kind in ("g", "g_unit"):
        g = rng.standard_normal((m, m))
        return np.eye(m) + 0.3 * (g / np.sqrt(m) if kind == "g_unit" else g)
    cond = float(kind.removeprefix("cond"))
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.logspace(0.0, -0.5 * np.log10(cond), m)


def _matrix_normal(factor_rng, sample_rng, m1, m2, n, kind):
    """The m1 x (n*m2) concatenation [Y1 | ... | Yn] with Yi = A Zi B^T.

    The factors A, B come from factor_rng and the Zi from sample_rng.
    """
    a = _factor(factor_rng, m1, kind)
    b = _factor(factor_rng, m2, kind)
    z = sample_rng.standard_normal((n, m1, m2))
    return np.concatenate([a @ zi @ b.T for zi in z], axis=1)


def write_sample(path, y, m1, m2, n):
    """Sample file format: "m1 m2 n", then "rows cols", then one line per row."""
    rows = y.tolist()
    as_int = np.issubdtype(y.dtype, np.integer)
    fmt = str if as_int else repr
    with open(path, "w") as fh:
        fh.write(f"{m1} {m2} {n}\n{y.shape[0]} {y.shape[1]}\n")
        for row in rows:
            fh.write(" ".join(map(fmt, row)) + "\n")


def _mle_item(out, name, y, shape, expect_exit):
    m1, m2, n = shape
    sample = out / f"{name}.txt"
    estimate = out / f"{name}.est"
    write_sample(sample, y, m1, m2, n)
    return {
        "id": name,
        "call": "cli",
        "argv": ["mle", "--in", str(sample), "--out", str(estimate)],
        "expect": {"exit": expect_exit, "sample": str(sample), "estimate": str(estimate)},
    }


def _population(spec, cell, draw):
    """Generator of the factor pair for one population of a cell.

    The populations are part of the workload and do not depend on the
    benchmark seed; the seed draws the samples.  Whether flip-flop fails
    depends mostly on the factors, so this keeps the share of failing
    items steady from seed to seed while every seed brings new samples.
    """
    return _rng(spec["population_seed"], cell, draw)


def _gen_mle_iterative(seed, out):
    spec = SPEC["mle_iterative"]
    cells = [(tuple(s), k) for s in spec["shapes"] for k in spec["factor_kinds"]]
    inv = spec["invalid"]
    m1, m2, n = inv["zeros"]["shape"]
    items = [_mle_item(out, "mle-zeros", np.zeros((m1, n * m2)), (m1, m2, n), inv["zeros"]["exit"])]
    shape = tuple(inv["wrong_regime"]["shape"])
    y = _matrix_normal(_rng(seed, 2, 0), _rng(seed, 2, 1), *shape, "g")
    items.append(_mle_item(out, "mle-wrong-regime", y, shape, inv["wrong_regime"]["exit"]))
    # Round r holds sample r of every population of every cell.
    for rep in range(spec["samples_per_population"]):
        for draw in range(spec["populations_per_cell"]):
            for ci, (shape, kind) in enumerate(cells):
                y = _matrix_normal(_population(spec, ci, draw), _rng(seed, 1, ci, draw, rep), *shape, kind)
                name = "mle-{}x{}x{}-{}-p{}-r{}".format(*shape, kind, draw, rep)
                items.append(_mle_item(out, name, y, shape, 0))
    return items


def _gen_mle_large_n(seed, out):
    spec = SPEC["mle_large_n"]
    items = []
    for draw in range(spec["populations_per_shape"]):
        for si, shape in enumerate(spec["shapes"]):
            y = _matrix_normal(_population(spec, si, draw), _rng(seed, 3, si, draw), *shape, spec["factor_kind"])
            name = "large-{}x{}x{}-p{}".format(*shape, draw)
            items.append(_mle_item(out, name, y, tuple(shape), 0))
    return items


def _exact_item(out, name, y, shape, raises):
    sample = out / f"{name}.txt"
    write_sample(sample, y, *shape)
    return {"id": name, "call": "exact", "sample": str(sample), "expect": {"raises": raises, "sample": str(sample)}}


def _gen_exact(seed, out):
    spec = SPEC["exact"]
    bound = spec["entry_bound"]
    items = []
    for si, (m1, m2, n) in enumerate(spec["shapes"]):
        y = _rng(seed, 4, si).integers(0, bound, (m1, n * m2))
        items.append(_exact_item(out, f"exact-{m1}x{m2}x{n}", y, (m1, m2, n), None))
    m1, m2, n = spec["no_mle"]["shape"]
    y = _rng(seed, 5).integers(0, bound, (m1, n * m2))
    items.append(_exact_item(out, "exact-no-mle", y, (m1, m2, n), spec["no_mle"]["raises"]))
    m1, m2, n = spec["degenerate"]["shape"]
    y = _rng(seed, 6).integers(0, bound, (m1, n * m2))
    y[:, 1] = y[:, 0]
    items.append(_exact_item(out, "exact-degenerate", y, (m1, m2, n), spec["degenerate"]["raises"]))
    # A fixed instance set (see "lemma_seed_why" in spec.json).
    lemma_seed = spec["lemma_seed"]
    count = spec["lemma_count"]
    items.append({
        "id": "verify-lemma",
        "call": "cli",
        "argv": ["verify-lemma", "--seed", str(lemma_seed), "--count", str(count)],
        "expect": {"exit": 0, "lemma_count": count},
    })
    return items


def _cells(spec_range):
    lo, _, hi = spec_range.partition(":")
    return range(int(lo), int(hi or lo) + 1)


def _gen_mldegree(seed, out):
    spec = SPEC["mldegree"]
    # A fixed data point (see "data_seed_why" in spec.json).
    data_seed = spec["data_seed"]
    items = []
    for rect in spec["rectangles"]:
        name = f"mldegree-{rect['m1']}-{rect['n']}".replace(":", "to")
        cells = {
            f"{m1},{n}": spec["degrees"][f"{m1},{n}"]["degree"]
            for m1 in _cells(rect["m1"])
            for n in _cells(rect["n"])
        }
        cache_dir = out / f"{name}.cache"
        result = out / f"{name}.json"
        items.append({
            "id": name,
            "call": "cli",
            "argv": [
                "mldegree", "--m1", rect["m1"], "--n", rect["n"], "--seed", str(data_seed),
                "--format", "json", "--cache-dir", str(cache_dir), "--out", str(result),
            ],
            "expect": {"exit": 0, "cells": cells, "out": str(result), "cache_dir": str(cache_dir)},
        })
    for case in spec["multiplicity"]:
        items.append({
            "id": "multiplicity-{case}-{m2}-{k}".format(**case),
            "call": "cli",
            "argv": ["multiplicity", "--case", case["case"], "--m2", str(case["m2"]), "--k", str(case["k"])],
            "expect": {"exit": 0, "count": case["count"]},
        })
    return items


PARTS = {
    "mle_iterative": _gen_mle_iterative,
    "mle_large_n": _gen_mle_large_n,
    "exact": _gen_exact,
    "mldegree": _gen_mldegree,
}


def generate(workload, seed, out_dir):
    """Write the inputs of one workload under out_dir; return its items in order.

    Every item carries the part it belongs to and its time limit.
    """
    out = Path(out_dir).resolve()
    out.mkdir(parents=True, exist_ok=True)
    items = []
    for part in WORKLOADS[workload]:
        for item in PARTS[part](seed, out):
            items.append({**item, "part": part, "limit_s": SPEC["item_limit_s"][part]})
    return items


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    print(json.dumps(generate(args.workload, args.seed, os.path.abspath(args.out)), indent=1))


if __name__ == "__main__":
    main()
