"""Output checks of the kronmle benchmark, independent of kronmle itself.

``classify(item, reply, sample_cache)`` returns one of three verdicts for
an item that finished within its limit:

- ``ok``: the expected exit code or exception, and a verified output;
- ``fail``: an honest failure - a wrong exit code, a traceback, a
  documented error on an input that has an answer, an estimate the
  program itself flagged as unconverged that does not pass the check, or
  a cell reported as a timeout;
- ``wrong``: a result presented as a success that the check refutes.

Only ``ok`` counts as solved.  A run is ``correct`` when no item is
``wrong``.
"""

from __future__ import annotations

import json
import math
import os
import re
from fractions import Fraction

import numpy as np

from gen import SPEC


# ---------------------------------------------------------------- mle (floats)

def read_sample(path):
    """(m1, m2, n, Y) with Y the m1 x (n*m2) concatenation, via numpy only."""
    with open(path) as fh:
        m1, m2, n = (int(t) for t in fh.readline().split())
        fh.readline()
        y = np.array(fh.read().split(), dtype=float)
    return m1, m2, n, y.reshape(m1, n * m2)


def read_estimate(path):
    """(converged, K1, K2) from "m1 m2 method iterations converged loglik" + K1 + K2."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    head = lines[0].split()
    m1, m2, converged = int(head[0]), int(head[1]), head[4] == "1"
    k1 = np.array([line.split() for line in lines[2 : 2 + m1]], dtype=float)
    k2 = np.array([line.split() for line in lines[3 + m1 : 3 + m1 + m2]], dtype=float)
    if k1.shape != (m1, m1) or k2.shape != (m2, m2):
        raise ValueError("estimate has wrong shape")
    return converged, k1, k2


def _sqrt_pd(k):
    """Symmetric square root of k; None when k is not symmetric positive definite.

    Symmetry is judged against the largest entry, so that rounding in a
    small entry of a matrix with large ones does not count as asymmetry.
    """
    if np.abs(k - k.T).max() > 1e-8 * np.abs(k).max():
        return None
    w, v = np.linalg.eigh((k + k.T) / 2)
    if w.min() <= 0:
        return None
    return (v * np.sqrt(w)) @ v.T


def mle_residual(sample, k1, k2):
    """Affine-invariant fixed-point residual of a Kronecker MLE candidate.

    max(||K1^1/2 S(K2) K1^1/2 - I||, ||K2^1/2 S(K1) K2^1/2 - I||) in the
    spectral norm, with S(K2) = sum_i Yi K2 Yi^T / (n m2) and
    S(K1) = sum_i Yi^T K1 Yi / (n m1).  Zero exactly at a stationary
    point, and unchanged by the group action Yi -> A Yi B^T.  Infinite
    when a factor is not positive definite.
    """
    m1, m2, n, y = sample
    r1, r2 = _sqrt_pd(k1), _sqrt_pd(k2)
    if r1 is None or r2 is None:
        return float("inf")
    y3 = y.reshape(m1, n, m2)
    s_k2 = (y3 @ k2).reshape(m1, n * m2) @ y.T / (n * m2)
    k1y = (k1 @ y).reshape(m1 * n, m2)
    s_k1 = y3.reshape(m1 * n, m2).T @ k1y / (n * m1)
    e1 = np.linalg.norm(r1 @ s_k2 @ r1 - np.eye(m1), 2)
    e2 = np.linalg.norm(r2 @ s_k1 @ r2 - np.eye(m2), 2)
    return float(max(e1, e2))


def check_mle(sample, estimate_path):
    """(passed, converged flag, detail) for an estimate file against its sample."""
    tol = SPEC["mle_oracle"]
    try:
        converged, k1, k2 = read_estimate(estimate_path)
    except (OSError, ValueError) as exc:
        return False, True, f"unreadable estimate: {exc}"
    det_k2 = float(np.linalg.det(k2))
    if abs(det_k2 - 1.0) > tol["det_k2_tol"]:
        return False, converged, f"det K2 = {det_k2!r}"
    res = mle_residual(sample, k1, k2)
    if not res <= tol["residual_tol"]:
        return False, converged, f"fixed-point residual {res:.3e}"
    return True, converged, f"residual {res:.1e}"


# ------------------------------------------------------------ exact (rationals)

def _read_int_sample(path):
    with open(path) as fh:
        m1, m2, n = (int(t) for t in fh.readline().split())
        fh.readline()
        rows = [[int(t) for t in line.split()] for line in fh if line.strip()]
    blocks = [[row[i * m2 : (i + 1) * m2] for row in rows] for i in range(n)]
    return m1, m2, n, blocks


def _common_denominator(rows):
    """(integer matrix M, d) with rows == M / d."""
    fr = [[Fraction(x) for x in row] for row in rows]
    d = 1
    for row in fr:
        for x in row:
            d = d * x.denominator // math.gcd(d, x.denominator)
    return [[int(x * d) for x in row] for row in fr], d


def _matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _is_scaled_identity(m, c):
    return all(m[i][j] == (c if i == j else 0) for i in range(len(m)) for j in range(len(m)))


def _pd_exact(rows):
    """Exact positive-definiteness of a small symmetric rational matrix (LDL^T pivots)."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    if any(a[i][j] != a[j][i] for i in range(n) for j in range(n)):
        return False
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return True


def check_exact(sample_path, k1_rows, k2_rows):
    """Exact check that (K1, K2) is a stationary pair of the Kronecker likelihood.

    With integer data Yi it verifies, over the integers,
    K1 * (sum_i Yi K2 Yi^T) = n m2 I and K2 * (sum_i Yi^T K1 Yi) = n m1 I,
    and that K2 is positive definite.
    """
    m1, m2, n, blocks = _read_int_sample(sample_path)
    k1, d1 = _common_denominator(k1_rows)
    k2, d2 = _common_denominator(k2_rows)
    if not _pd_exact(k2_rows):
        return False, "K2 is not positive definite"
    # d2 * sum_i Yi K2 Yi^T, an integer matrix
    s2 = [[0] * m1 for _ in range(m1)]
    s1 = [[0] * m2 for _ in range(m2)]
    for yi in blocks:
        yk = _matmul(yi, k2)
        yt = [list(c) for c in zip(*yi)]
        part2 = _matmul(yk, yt)
        part1 = _matmul(yt, _matmul(k1, yi))
        for i in range(m1):
            for j in range(m1):
                s2[i][j] += part2[i][j]
        for i in range(m2):
            for j in range(m2):
                s1[i][j] += part1[i][j]
    if not _is_scaled_identity(_matmul(k1, s2), n * m2 * d1 * d2):
        return False, "K1 S(K2) != I"
    if not _is_scaled_identity(_matmul(k2, s1), n * m1 * d1 * d2):
        return False, "K2 S(K1) != I"
    return True, "exact fixed point"


# ----------------------------------------------------------------- verdicts

_COUNT = re.compile(r"solution count: (\d+)")
_LEMMA = re.compile(r"random instances: (\d+) passed, (\d+) failed")


def timed_out_cells(item, reply):
    """Cells of an mldegree item that the program reported as a timeout."""
    path = item["expect"]["out"]
    if reply.get("exit") != 0 or not os.path.exists(path):
        return 0
    with open(path) as fh:
        return sum(1 for c in json.load(fh) if c["degree"] == "timeout")


def classify(item, reply, sample_cache):
    """Verdict ("ok" | "fail" | "wrong", reason) of a finished item."""
    expect = item["expect"]
    if item["call"] == "exact":
        raised = reply.get("exception")
        if raised != expect["raises"]:
            if raised is None:
                return "wrong", f"returned an estimate, expected {expect['raises']}"
            return "fail", f"raised {raised}, expected {expect['raises'] or 'an estimate'}"
        if raised is not None:
            return "ok", f"raised {raised}"
        ok, why = check_exact(expect["sample"], reply["k1_exact"], reply["k2_exact"])
        return ("ok" if ok else "wrong"), why

    if "exception" in reply:
        return "fail", f"traceback: {reply['exception']}"
    code = reply["exit"]
    if code != expect["exit"]:
        # A zero exit claims a result where an error was due.
        verdict = "wrong" if code == 0 else "fail"
        last = (reply["stderr"].strip().splitlines() or [""])[-1]
        return verdict, f"exit {code}, expected {expect['exit']}: {last[:80]}"
    if code != 0:
        return "ok", f"exit {code} as documented"

    command = item["argv"][0]
    if command == "mle":
        path = expect["sample"]
        if path not in sample_cache:
            sample_cache[path] = read_sample(path)
        ok, converged, why = check_mle(sample_cache[path], expect["estimate"])
        if ok:
            return "ok", why
        return ("wrong" if converged else "fail"), why + ("" if converged else " (unconverged)")
    if command == "verify-lemma":
        m = _LEMMA.search(reply["stdout"])
        if m and "PASS" in reply["stdout"] and (int(m[1]), int(m[2])) == (expect["lemma_count"], 0):
            return "ok", "identity holds"
        return "wrong", "identity reported as failing"
    if command == "multiplicity":
        m = _COUNT.search(reply["stdout"])
        got = int(m[1]) if m else None
        return ("ok", f"count {got}") if got == expect["count"] else ("wrong", f"count {got}, expected {expect['count']}")
    if command == "mldegree":
        with open(expect["out"]) as fh:
            got = {f"{c['m1']},{c['n']}": c["degree"] for c in json.load(fh)}
        for cell, want in expect["cells"].items():
            degree = got.get(cell)
            if degree == "timeout":
                return "fail", f"cell {cell} timed out"
            if not isinstance(degree, int) or (want is not None and degree != want):
                return "wrong", f"cell {cell}: degree {degree}, expected {want}"
        return "ok", f"{len(got)} cells"
    raise ValueError(f"no check for command {command}")
