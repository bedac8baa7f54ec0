"""Command-line front end: sample, mle, verify-lemma, mldegree, multiplicity.

Exit codes: 0 success, 2 degenerate data, 3 MLE nonexistence, 4 bad
arguments or input, a solution count that no two primes of
mldegree.PRIMES confirmed, a pair whose resultant vanished on two primes,
or a verify-lemma check that failed.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
import time
from itertools import islice

import numpy as np

from .canonical import DegenerateData, canonicalize, det_reduction_check, det_reduction_sides
from .linalg import Matrix
from .mldegree import (
    PROP43_UPPER,
    PrimesExhausted,
    b_zero_quadratic,
    ml_degree,
    ml_multiplicity_prop43,
)
from .model import (
    SampleSet,
    format_sample_set,
    parse_sample_set,
    sample_matrix_normal,
    thresholds,
)
from .solvers import MLENotExists, format_estimate, mle

EXIT_OK = 0
EXIT_DEGENERATE = 2
EXIT_NO_MLE = 3
EXIT_BAD_ARGS = 4


def _worker_count(n_tasks):
    cap = os.environ.get("KRONMLE_WORKERS")
    workers = int(cap) if cap else (os.cpu_count() or 1)
    return max(1, min(workers, n_tasks))


def _at_least(value, low, flag):
    """value, or ValueError (exit 4) when it is below low."""
    if value < low:
        raise ValueError(f"{flag} must be at least {low}, got {value}")
    return value


def cmd_sample(args):
    bounds = thresholds(args.m1, args.m2)  # rejects m1, m2 < 1 before anything is written
    sample = sample_matrix_normal(np.eye(args.m1), np.eye(args.m2), args.n, args.seed)
    text = format_sample_set(sample)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"k = {sample.k}", file=sys.stderr)
    print(
        f"sample-size bounds: lower {bounds.lower} upper {bounds.upper}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_mle(args):
    with open(args.infile) as fh:
        sample = parse_sample_set(fh.read())
    est = mle(sample, tol=args.tol, max_iter=args.max_iter)
    print(f"method: {est.method}")
    print(f"start: {est.start}")
    print(f"iterations: {est.iterations}  converged: {est.converged}")
    print(f"residual: {est.residual:.3e}  stop: {est.stop_reason}")
    print(f"loglik: {est.loglik:.6f}")
    text = format_estimate(est, sample.m1, sample.m2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return EXIT_OK


def _pinned_example():
    """The worked 4x2x3 instance: both determinants equal 16640."""
    y = Matrix.identity(4).hstack(Matrix([[1, 2], [3, 4], [5, 6], [7, 8]]))
    cf = canonicalize(SampleSet(y, 2))
    k = Matrix([[3, 1], [1, 3]])
    return det_reduction_check(cf, k)


# Instances drawn, grouped and checked at a time, so that memory does not
# grow with --count.
_LEMMA_CHUNK = 1024


def lemma_draws(rng, count):
    """Yield ((m2, k, n), C, L) for count random instances of the identity check.

    Per instance, in the generator's order: m2, k and n, redrawn until
    1 <= m1 = n*m2 - k <= 10, then the integer C (m1 x k) and L (m2 x m2).
    The data are [I | C] and K = L L^T + I, which is PD.
    """
    for _ in range(count):
        while True:
            m2 = int(rng.integers(2, 5))
            k = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            if 1 <= n * m2 - k <= 10:
                break
        yield (m2, k, n), rng.integers(-8, 9, (n * m2 - k, k)), rng.integers(-3, 4, (m2, m2))


def lemma_stacks(draws):
    """{(m2, k, n): (C, K)}: the draws of each shape stacked in draw order, as
    object arrays of Python ints, with K = L L^T + I."""
    groups = {}
    for shape, c, l in draws:
        cs, ls = groups.setdefault(shape, ([], []))
        cs.append(c)
        ls.append(l)
    stacks = {}
    for (m2, k, n), (cs, ls) in groups.items():
        l = np.array(ls).astype(object)
        k_mat = l @ l.transpose(0, 2, 1) + np.identity(m2, dtype=object)
        stacks[m2, k, n] = np.array(cs).astype(object), k_mat
    return stacks


def cmd_verify_lemma(args):
    count = _at_least(args.count, 1, "--count")
    lhs, rhs = _pinned_example()
    ok = lhs == rhs
    print(f"pinned example: lhs = {lhs} rhs = {rhs} {'PASS' if ok else 'FAIL'}")
    draws = lemma_draws(np.random.default_rng(args.seed), count)
    passes = fails = 0
    while chunk := list(islice(draws, _LEMMA_CHUNK)):
        for c, k_mat in lemma_stacks(chunk).values():
            lhs, rhs = det_reduction_sides(c, k_mat)
            held = int(np.count_nonzero(lhs == rhs))
            passes += held
            fails += len(lhs) - held
    print(f"random instances: {passes} passed, {fails} failed")
    return EXIT_OK if ok and fails == 0 else EXIT_BAD_ARGS


def _parse_range(spec):
    if ":" in spec:
        lo, hi = spec.split(":")
        values = list(range(int(lo), int(hi) + 1))
        if not values:
            raise ValueError(f"empty range {spec}: lo must not exceed hi")
        return values
    return [int(spec)]


def _mldegree_cell(task):
    m1, n, seed = task
    start = time.monotonic()
    degree = ml_degree(m1, n, seed)
    elapsed = time.monotonic() - start
    return {"m1": m1, "n": n, "seed": seed, "degree": degree, "seconds": round(elapsed, 3)}


def _cell_path(cache_dir, m1, n, seed):
    return os.path.join(cache_dir, f"cell_{m1}_{n}_{seed}.json")


def _cached_cell(cache_dir, task):
    """The cached record of cell task = (m1, n, seed), or None to recompute it.

    Only an object with exactly _mldegree_cell's keys, the cell's own m1, n
    and seed, an int degree and a number of seconds is used.
    """
    try:
        with open(_cell_path(cache_dir, *task)) as fh:
            cell = json.load(fh)
    except (OSError, ValueError, RecursionError):  # RecursionError: nesting too deep
        return None
    if not isinstance(cell, dict) or cell.keys() != {"m1", "n", "seed", "degree", "seconds"}:
        return None
    ints = all(type(cell[k]) is int for k in ("m1", "n", "seed", "degree"))
    own = (cell["m1"], cell["n"], cell["seed"]) == task
    return cell if ints and own and type(cell["seconds"]) in (int, float) else None


# A ProcessPoolExecutor(2) mapping four no-op tasks took 10-28 ms to start
# and shut down on a 2-vCPU host, so a table hands its cells to a pool only
# once the cells run so far have taken longer than that.
_POOL_AFTER_S = 0.05


def ProcessPoolExecutor(max_workers):
    """A concurrent.futures.ProcessPoolExecutor, which this imports on the
    first call: a command that starts no pool does not load multiprocessing."""
    import concurrent.futures

    return concurrent.futures.ProcessPoolExecutor(max_workers=max_workers)


def _run_cells(pending):
    """Yield each pending cell's result in order.

    The cells run in this process until those run so far have taken more
    than _POOL_AFTER_S in all; the rest then go to one process pool, when
    at least two remain and _worker_count allows two workers.
    """
    spent = 0.0
    for i, task in enumerate(pending):
        workers = _worker_count(len(pending) - i)
        if spent > _POOL_AFTER_S and workers >= 2:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                yield from pool.map(_mldegree_cell, pending[i:])
            return
        cell = _mldegree_cell(task)
        spent += cell["seconds"]
        yield cell


def cmd_mldegree(args):
    m1s = _parse_range(args.m1)
    ns = _parse_range(args.n)
    _at_least(min(m1s), 1, "--m1")
    _at_least(min(ns), 1, "--n")
    os.makedirs(args.cache_dir, exist_ok=True)

    results = []
    pending = []
    for m1 in m1s:
        for n in ns:
            cell = _cached_cell(args.cache_dir, (m1, n, args.seed))
            if cell is None:
                pending.append((m1, n, args.seed))
            else:
                results.append(cell)

    for cell in _run_cells(pending):
        cache = _cell_path(args.cache_dir, cell["m1"], cell["n"], cell["seed"])
        with open(cache, "w") as fh:
            json.dump(cell, fh)
        results.append(cell)

    results.sort(key=lambda c: (c["m1"], c["n"]))
    out = _emit_cells(results, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return EXIT_OK


def _emit_cells(results, fmt):
    if fmt == "json":
        return json.dumps(results, indent=2) + "\n"
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=["m1", "n", "seed", "degree", "seconds"])
        writer.writeheader()
        writer.writerows(results)
        return buf.getvalue()
    lines = [f"{'m1':>4} {'n':>4} {'degree':>8} {'seconds':>9}"]
    for c in results:
        lines.append(f"{c['m1']:>4} {c['n']:>4} {str(c['degree']):>8} {c['seconds']:>9}")
    return "\n".join(lines) + "\n"


def cmd_multiplicity(args):
    quad = b_zero_quadratic(args.m2, args.k, args.case)
    count = ml_multiplicity_prop43(args.m2, args.k, args.case)
    print(f"case {args.case}, m2 = {args.m2}, k = {args.k}")
    print(f"b = 0 quadratic: {quad}")
    print(f"discriminant: {quad.discriminant}")
    print("roots: " + ", ".join(f"{r:.6f}" for r in quad.roots()))
    print(f"solution count: {count} (bound check: 2 <= {count} <= {PROP43_UPPER[args.case]})")
    return EXIT_OK


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(prog="kronmle")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="generate a synthetic matrix normal sample")
    p.add_argument("--m1", type=int, required=True)
    p.add_argument("--m2", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("mle", help="estimate the Kronecker factors from a sample file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=10000)
    p.add_argument("--out")
    p.set_defaults(func=cmd_mle)

    p = sub.add_parser("verify-lemma", help="check the determinant reduction identity")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    p.set_defaults(func=cmd_verify_lemma)

    p = sub.add_parser("mldegree", help="ML degree table for m2 = 2")
    p.add_argument("--m1", required=True, help="value or range lo:hi")
    p.add_argument("--n", required=True, help="value or range lo:hi")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.add_argument("--cache-dir", default=".kronmle_cache")
    p.add_argument("--out")
    p.set_defaults(func=cmd_mldegree)

    p = sub.add_parser("multiplicity", help="constructed multiplicity > 1 systems")
    p.add_argument("--case", choices=["one", "two"], required=True)
    p.add_argument("--m2", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_multiplicity)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_ARGS if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except DegenerateData as exc:
        print(f"degenerate data: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except MLENotExists as exc:
        print(f"MLE does not exist: {exc}", file=sys.stderr)
        return EXIT_NO_MLE
    except (ValueError, OSError, PrimesExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
