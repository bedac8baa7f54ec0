"""Command-line front end: sample, mle, verify-lemma, mldegree, multiplicity.

Exit codes: 0 success, 2 degenerate data, 3 MLE nonexistence, 4 bad
arguments or input, an input too large for memory, a solution count that
no two primes of mldegree.PRIMES confirmed, a pair whose resultant
vanished on two primes, or a verify-lemma check that failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from itertools import islice

import numpy as np

from .canonical import DegenerateData, canonicalize, det_reduction_check, det_reduction_sides
from .linalg import Matrix, read_ints
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


def _worker_cap():
    """KRONMLE_WORKERS as an int of at least 1, or, when it is unset or empty, the
    CPUs this process may run on (its affinity mask, where the OS has one)."""
    cap = os.environ.get("KRONMLE_WORKERS")
    if not cap:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    cap = read_ints([cap], 1, f"KRONMLE_WORKERS must be an integer, got {cap!r}")[0]
    return _at_least(cap, 1, "KRONMLE_WORKERS")


def _int_arg(text):
    """argparse's type= for the integer flags: read_ints' spelling."""
    return read_ints([text], 1, "")[0]


_int_arg.__name__ = "int"  # argparse names it in "invalid int value: 'x'"


def _write_text(path, text):
    """Write text to the file path, or to stdout when there is no path."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _at_least(value, low, flag):
    """value, or ValueError (exit 4) when it is below low."""
    if value < low:
        raise ValueError(f"{flag} must be at least {low}, got {value}")
    return value


def cmd_sample(args):
    _at_least(args.seed, 0, "--seed")
    bounds = thresholds(args.m1, args.m2)  # rejects m1, m2 < 1 before anything is written
    sample = sample_matrix_normal(args.m1, args.m2, args.n, args.seed)
    _write_text(args.out, format_sample_set(sample))
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
    if args.out:
        _write_text(args.out, format_estimate(est))
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
    _at_least(args.seed, 0, "--seed")
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


def _parse_range(spec, flag):
    """The values of an integer or of an inclusive range lo:hi."""
    parts = spec.split(":")
    message = f"{flag} must be an integer or a range lo:hi, got {spec!r}"
    lo, hi = read_ints(parts * 2 if len(parts) == 1 else parts, 2, message)
    if lo > hi:
        raise ValueError(f"empty range {spec}: lo must not exceed hi")
    return list(range(lo, hi + 1))


# The keys of an mldegree cell record, in the order of its JSON and CSV output.
_CELL_KEYS = ("m1", "n", "seed", "degree", "seconds")


def _mldegree_cell(task):
    start = time.monotonic()
    degree = ml_degree(*task)
    elapsed = time.monotonic() - start
    return dict(zip(_CELL_KEYS, (*task, degree, round(elapsed, 3))))


def _cell_path(cache_dir, task):
    return os.path.join(cache_dir, "cell_{}_{}_{}.json".format(*task))


def _cached_cell(cache_dir, task):
    """The cached record of cell task = (m1, n, seed), or None to recompute it.

    Only an object with exactly the keys _CELL_KEYS, the cell's own m1, n
    and seed, an int degree >= 0 and a finite number of seconds >= 0 is used.
    """
    try:
        with open(_cell_path(cache_dir, task)) as fh:
            cell = json.load(fh)
    except (OSError, ValueError, RecursionError):  # RecursionError: nesting too deep
        return None
    if not isinstance(cell, dict) or cell.keys() != set(_CELL_KEYS):
        return None
    ints = all(type(cell[k]) is int for k in _CELL_KEYS[:4])
    own = (cell["m1"], cell["n"], cell["seed"]) == task
    seconds = type(cell["seconds"]) in (int, float) and 0 <= cell["seconds"] < float("inf")
    return cell if ints and own and cell["degree"] >= 0 and seconds else None


# A ProcessPoolExecutor(2) mapping four no-op tasks took 10-28 ms to start
# and shut down on a 2-vCPU host, so a table hands its cells to a pool only
# once the cells run so far have taken longer than that.
_POOL_AFTER_S = 0.05


def ProcessPoolExecutor(max_workers):
    """A concurrent.futures.ProcessPoolExecutor, which this imports on the
    first call: a command that starts no pool does not load multiprocessing."""
    import concurrent.futures

    return concurrent.futures.ProcessPoolExecutor(max_workers=max_workers)


def _run_cells(pending, cap):
    """Yield each pending cell's result in order.

    The cells run in this process until those run so far have taken more
    than _POOL_AFTER_S in all; the rest then go to one process pool of at
    most cap workers, when at least two remain and cap is at least two.
    """
    spent = 0.0
    for i, task in enumerate(pending):
        workers = max(1, min(cap, len(pending) - i))
        if spent > _POOL_AFTER_S and workers >= 2:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                yield from pool.map(_mldegree_cell, pending[i:])
            return
        cell = _mldegree_cell(task)
        spent += cell["seconds"]
        yield cell


def cmd_mldegree(args):
    _at_least(args.seed, 0, "--seed")
    m1s = _parse_range(args.m1, "--m1")
    ns = _parse_range(args.n, "--n")
    _at_least(min(m1s), 1, "--m1")
    _at_least(min(ns), 1, "--n")
    cap = _worker_cap()
    os.makedirs(args.cache_dir, exist_ok=True)

    tasks = [(m1, n, args.seed) for m1 in m1s for n in ns]  # in the output's (m1, n) order
    cells = {task: _cached_cell(args.cache_dir, task) for task in tasks}
    pending = [task for task, cell in cells.items() if cell is None]
    for cell in _run_cells(pending, cap):
        task = cell["m1"], cell["n"], cell["seed"]
        _write_text(_cell_path(args.cache_dir, task), json.dumps(cell))
        cells[task] = cell
    _write_text(args.out, _emit_cells(list(cells.values()), args.format))
    return EXIT_OK


def _emit_cells(results, fmt):
    if fmt == "json":
        return json.dumps(results, indent=2) + "\n"
    rows = [dict(zip(_CELL_KEYS, _CELL_KEYS)), *results]  # the header, then the cells
    if fmt == "csv":  # every field is an int or a float, so none needs quoting
        return "".join(",".join(str(c[k]) for k in _CELL_KEYS) + "\r\n" for c in rows)
    return "".join(f"{c['m1']:>4} {c['n']:>4} {c['degree']:>8} {c['seconds']:>9}\n" for c in rows)


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
    p.add_argument("--m1", type=_int_arg, required=True)
    p.add_argument("--m2", type=_int_arg, required=True)
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("mle", help="estimate the Kronecker factors from a sample file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=_int_arg, default=10000)
    p.add_argument("--out")
    p.set_defaults(func=cmd_mle)

    p = sub.add_parser("verify-lemma", help="check the determinant reduction identity")
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("--count", type=_int_arg, default=100)
    p.set_defaults(func=cmd_verify_lemma)

    p = sub.add_parser("mldegree", help="ML degree table for m2 = 2")
    p.add_argument("--m1", required=True, help="value or range lo:hi")
    p.add_argument("--n", required=True, help="value or range lo:hi")
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.add_argument("--cache-dir", default=".kronmle_cache")
    p.add_argument("--out")
    p.set_defaults(func=cmd_mldegree)

    p = sub.add_parser("multiplicity", help="constructed multiplicity > 1 systems")
    p.add_argument("--case", choices=["one", "two"], required=True)
    p.add_argument("--m2", type=_int_arg, required=True)
    p.add_argument("--k", type=_int_arg, required=True)
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
    except MemoryError as exc:  # numpy's message names the array's size
        print(f"error: input too large for memory: {str(exc) or 'MemoryError'}", file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
