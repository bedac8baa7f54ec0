"""Closed-form k = 1 estimator, flip-flop ascent, and the castle front end."""

import inspect
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kronmle
from kronmle import solvers
from kronmle.cli import EXIT_NO_MLE, EXIT_OK, main
from kronmle.canonical import DegenerateData, canonicalize, castle, descent
from kronmle.linalg import Matrix, NotPD
from kronmle.model import (
    SampleSet,
    format_sample_set,
    kron_loglik,
    parse_sample_set,
    sample_matrix_normal,
    scatter_k1,
    scatter_k2,
)
from kronmle.solvers import (
    MLENotExists,
    exact_mle_k1,
    flipflop,
    format_estimate,
    mle,
    normalize_det1,
)
from matrix_helpers import diagonal, exact_copy
from paper_helpers import chain_only_shapes, g_objective, reduced_objective


def exact_sample(rows, m2):
    return SampleSet(Matrix(rows), m2)


def _cholesky_ld(k):
    """Lower Cholesky factor of k in extended precision (np.longdouble)."""
    a = np.asarray(k, dtype=np.longdouble)
    l = np.zeros_like(a)
    for j in range(len(a)):
        l[j, j] = np.sqrt(a[j, j] - l[j, :j] @ l[j, :j])
        l[j + 1 :, j] = (a[j + 1 :, j] - l[j + 1 :, :j] @ l[j, :j]) / l[j, j]
    return l


def invariant_residual(sample, k1, k2):
    """Spectral-norm residual max(||K1^1/2 S(K2) K1^1/2 - I||, ||K2^1/2 S(K1) K2^1/2 - I||).

    S(K2) = sum_i Yi K2 Yi^T / (n*m2) and S(K1) = sum_i Yi^T K1 Yi / (n*m1).
    Computed independently of the solver, as sum_i Zi Zi^T / (n*m2) - I and
    sum_i Zi^T Zi / (n*m1) - I with Zi = L1^T Yi L2, K = L L^T, in
    np.longdouble (80-bit on x86-64): in doubles the check's own roundoff is about
    eps*cond(K1), and on one (23,4,6) input with cond(K1) = 4e6 an eigh
    square-root check in doubles read 1.5e-10 where 50-digit arithmetic
    gives 2.2e-11.
    """
    n, m1, m2 = sample.n, sample.m1, sample.m2
    l1, l2 = _cholesky_ld(k1), _cholesky_ld(k2)
    zs = [l1.T @ np.asarray(y, dtype=np.longdouble) @ l2 for y in sample.blocks]
    e1 = sum(z @ z.T for z in zs) / (n * m2) - np.eye(m1)
    e2 = sum(z.T @ z for z in zs) / (n * m1) - np.eye(m2)
    return max(np.linalg.norm(e.astype(float), 2) for e in (e1, e2))


def conditioned_factor(rng, m, cond):
    """A = Q diag(s), Q orthogonal, s log-spaced so that cond(A A^T) = cond."""
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.logspace(0.0, -0.5 * np.log10(cond), m)


def hand_k1_sample():
    # Y = [I3 | (1,0,0)^T], m2 = 2, n = 2, k = 1
    return exact_sample(
        [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]], 2
    )


class TestNormalize:
    def test_det_one(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        k2 = a @ a.T + np.eye(3)
        out = normalize_det1(k2)
        assert np.linalg.det(out) == pytest.approx(1.0, rel=1e-9)

    def test_k1_absorbs_scale(self):
        k2 = np.diag([2.0, 8.0])
        k1 = np.eye(3)
        k2n, k1n = normalize_det1(k2, k1)
        assert np.linalg.det(k2n) == pytest.approx(1.0)
        # the Kronecker product is unchanged
        assert np.allclose(np.kron(k2n, k1n), np.kron(k2, k1))

    def test_rejects_nonpositive_det(self):
        with pytest.raises(NotPD):
            normalize_det1(np.diag([1.0, -1.0]))


class TestExactK1:
    def test_hand_example(self):
        est = exact_mle_k1(hand_k1_sample())
        assert est.method == "exact"
        assert est.k2_exact == Matrix.identity(2)
        assert est.k1_exact == diagonal([2, 4, 4])

    def test_scalar_recipe(self):
        for c in (2, 5, -3):
            s = exact_sample([[1, c]], 1)
            est = exact_mle_k1(s)
            assert est.k2_exact == Matrix([[c * c + 1]])

    def test_rationality(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            rows = [
                [int(rng.integers(-4, 5)) for _ in range(6)] for _ in range(5)
            ]
            y = Matrix(rows)
            if y.submatrix(range(5), range(5)).det() == 0:
                continue
            s = exact_sample(rows, 2)
            assert s.k == 1
            try:
                est = exact_mle_k1(s)
            except MLENotExists:
                continue
            assert all(
                isinstance(est.k2_exact[i, j], Fraction)
                for i in range(2)
                for j in range(2)
            )
            assert est.k1_exact @ est.k1_exact.inverse() == Matrix.identity(5)

    def test_wrong_regime(self):
        s = sample_matrix_normal(2, 2, 2, seed=0)  # k = 2
        with pytest.raises(ValueError, match=r"^exact engine needs k = 1, got k = 2$"):
            exact_mle_k1(exact_copy(s))

    def test_not_exists_when_n_below_m2(self):
        s = sample_matrix_normal(5, 3, 2, seed=0)  # k = 1, n < m2
        with pytest.raises(MLENotExists):
            exact_mle_k1(exact_copy(s))

    @pytest.mark.parametrize("seed", range(3))
    def test_not_exists_when_k2_is_singular(self, seed):
        # y = Y_* u with v = (u, -1) cut into blocks (a, a), (b, b), (c, c),
        # (-1, -1): K2 is a multiple of [[1, 1], [1, 1]], a singular Gram matrix.
        rng = np.random.default_rng(seed)
        y_star = rng.integers(-5, 6, (7, 7))
        while Matrix(y_star.tolist()).det() == 0:
            y_star = rng.integers(-5, 6, (7, 7))
        a, b, c = rng.integers(-4, 5, 3)
        u = np.array([a, a, b, b, c, c, -1])
        rows = np.hstack([y_star, (y_star @ u)[:, None]]).tolist()
        with pytest.raises(MLENotExists, match=r"^sum_i v_i v_i\^T is not positive definite$"):
            exact_mle_k1(exact_sample(rows, 2))

    def test_float_data_rejected(self):
        # exact only: float data reach the closed form through mle's castle
        s = sample_matrix_normal(3, 2, 2, seed=3)
        with pytest.raises(ValueError, match="exact data only"):
            exact_mle_k1(s)

    def test_exists_when_n_at_least_m2(self):
        s = sample_matrix_normal(3, 2, 2, seed=3)  # k = 1, n = m2
        est = exact_mle_k1(exact_copy(s))
        assert np.linalg.eigvalsh(est.k1).min() > 0
        assert np.linalg.eigvalsh(est.k2).min() > 0
        assert np.linalg.det(est.k2) == pytest.approx(1.0, rel=1e-9)

    def test_float_and_exact_paths_agree(self):
        s = hand_k1_sample()
        a = exact_mle_k1(s)
        b = mle(s.to_float())  # the float path: castle, then the polish
        assert np.allclose(a.k1, b.k1)
        assert np.allclose(a.k2, b.k2)


# Every k = 1 shape (m1, m2, n) with n*m2 = m1 + 1, n >= m2 and m1 <= 17.
K1_SHAPES = [
    (n * m2 - 1, m2, n)
    for m2 in range(1, 5)
    for n in range(max(m2, 2), 19)
    if n * m2 - 1 <= 17
]


@st.composite
def k1_integer_samples(draw, min_m2=1):
    """Signed integer data at a k = 1 shape, as rows of the concatenation."""
    m1, m2, n = draw(st.sampled_from([s for s in K1_SHAPES if s[1] >= min_m2]))
    entries = st.integers(min_value=-9, max_value=9)
    row = st.lists(entries, min_size=n * m2, max_size=n * m2)
    return draw(st.lists(row, min_size=m1, max_size=m1)), m2


def scatter_inverse_k1(sample, k2):
    """The profile K1 by inverting the m1 x m1 scatter: the oracle of exact_mle_k1."""
    return scatter_k2(sample, k2).scale(Fraction(1, sample.n * sample.m2)).inverse()


def closed_form_k2(sample):
    """K2 = sum_i v_i v_i^T, read off the dual sample of the canonical form."""
    k2 = Matrix.zeros(sample.m2, sample.m2)
    for z in canonicalize(sample).dual.blocks:
        k2 = k2 + z.transpose() @ z
    return k2


class TestExactK1Formula:
    """The rank-one formula over the integers against the scatter inverse."""

    def check(self, s):
        m1, m2, n = s.m1, s.m2, s.n
        k2 = closed_form_k2(s)
        if not k2.is_positive_definite():
            with pytest.raises(MLENotExists):
                exact_mle_k1(s)
            return
        est = exact_mle_k1(s)
        assert est.k2_exact == k2
        assert est.k1_exact == scatter_inverse_k1(s, k2)
        # Both stationarity equations, exactly.
        k1 = est.k1_exact
        s1 = Matrix.zeros(m2, m2)
        for y in s.blocks:
            s1 = s1 + y.transpose() @ k1 @ y
        assert k1 @ scatter_k2(s, k2) == Matrix.identity(m1).scale(n * m2)
        assert k2 @ s1 == Matrix.identity(m2).scale(n * m1)

    @given(k1_integer_samples())
    @settings(max_examples=40, deadline=None)
    def test_matches_scatter_inverse(self, drawn):
        rows, m2 = drawn
        s = exact_sample(rows, m2)
        if Matrix(rows).submatrix(range(s.m1), range(s.m1)).det() == 0:
            with pytest.raises(DegenerateData):
                exact_mle_k1(s)
            return
        self.check(s)

    @pytest.mark.parametrize("m1, m2, n", [(5, 2, 3), (11, 3, 4)])
    def test_rational_entries(self, m1, m2, n):
        rng = np.random.default_rng(m1)
        rows = [
            [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))) for _ in range(n * m2)]
            for _ in range(m1)
        ]
        self.check(exact_sample(rows, m2))

    @given(k1_integer_samples())
    @settings(max_examples=20, deadline=None)
    def test_singular_left_block_is_degenerate(self, drawn):
        rows, m2 = drawn
        assume(len(rows) >= 2)
        for row in rows:
            row[1] = row[0]
        with pytest.raises(DegenerateData):
            exact_mle_k1(exact_sample(rows, m2))

    @given(k1_integer_samples(min_m2=2))
    @settings(max_examples=20, deadline=None)
    def test_singular_k2_raises_before_its_inverse(self, drawn):
        # A zero last column makes v = (0, ..., 0, -1), so K2 has rank one.
        rows, m2 = drawn
        m1 = len(rows)
        assume(Matrix(rows).submatrix(range(m1), range(m1)).det() != 0)
        for row in rows:
            row[-1] = 0
        calls = []
        solve = solvers.solve_stack

        def spy(a, b):
            calls.append(a.shape[-1])
            return solve(a, b)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(solvers, "solve_stack", spy)
            with pytest.raises(MLENotExists, match="not positive definite"):
                exact_mle_k1(exact_sample(rows, m2))
        # The pass over Y_*, then K2's own pass, which decides PD by finding
        # K2 singular: no separate PD test runs and no K1 is formed.
        assert calls == [m1, m2]


class TestFlipflop:
    def test_fixed_point_at_exact_solution(self):
        s = sample_matrix_normal(7, 2, 4, seed=5)  # k = 1
        exact = exact_mle_k1(exact_copy(s))
        ff = flipflop(s, init_k2=exact.k2, tol=0.0, max_iter=1)
        assert np.abs(ff.k2 - exact.k2).max() <= 1e-12

    def test_monotone_loglik(self):
        s = sample_matrix_normal(4, 3, 4, seed=6)
        ff = flipflop(s, tol=1e-12, max_iter=300)
        hist = ff.loglik_history
        assert len(hist) == ff.iterations
        assert all(b >= a - 1e-10 for a, b in zip(hist, hist[1:]))

    def test_non_convergence_is_reported(self):
        s = sample_matrix_normal(4, 3, 4, seed=7)
        ff = flipflop(s, tol=1e-15, max_iter=2)
        assert not ff.converged
        assert ff.iterations == 2

    def test_regime_check(self):
        s = sample_matrix_normal(5, 2, 2, seed=9)  # n*m2 < m1
        with pytest.raises(ValueError, match=r"^flip-flop needs n\*m2 >= m1 and n\*m1 >= m2$"):
            flipflop(s)

    def test_init_must_be_pd(self):
        s = sample_matrix_normal(3, 2, 3, seed=10)
        with pytest.raises(NotPD):
            flipflop(s, init_k2=np.diag([1.0, -1.0]))


def scatter_sweeps(sample, k2, sweeps):
    """Reference flip-flop on the concentration matrices themselves.

    Each sweep sets K1 = (S(K2)/(n*m2))^-1 and K2 = (S(K1)/(n*m1))^-1 from
    the batched scatters, then rescales the pair to det(K2) = 1.
    """
    n, m1, m2 = sample.n, sample.m1, sample.m2
    pairs = []
    for _ in range(sweeps):
        k1 = np.linalg.inv(scatter_k2(sample, k2) / (n * m2))
        k2 = np.linalg.inv(scatter_k1(sample, k1) / (n * m1))
        c = np.linalg.det(k2) ** (1.0 / m2)
        k1, k2 = k1 * c, k2 / c
        pairs.append((k1, k2))
    return pairs


def helper_flipflop(sample, max_iter, tol=1e-10, init_k2=None):
    """flipflop with no over-relaxation, written over separate whitened
    scatter helpers, np.diagonal and np.linalg.norm: the reference its plain
    sweep must reproduce bit for bit.  Returns (K1, K2, history, residual, stop)."""
    from scipy.linalg import lapack

    n, m1, m2 = sample.n, sample.m1, sample.m2

    def scatter_k2_whitened(f2):  # sum_i Yi F2 F2^T Yi^T, one SYRK
        v = (sample.y.reshape(m1 * n, m2) @ f2).reshape(m1, n * m2)
        return v @ v.T

    def scatter_k1_whitened(f1):  # sum_i Yi^T F1 F1^T Yi, one SYRK
        z = (f1.T @ sample.y).reshape(m1 * n, m2)
        return z.T @ z

    def inverse_factor(s):
        l, _ = lapack.dpotrf(s, lower=1, clean=1)
        return lapack.dtrtri(l, lower=1)[0], 2.0 * float(np.log(np.diagonal(l)).sum())

    f2 = np.linalg.cholesky(np.eye(m2) if init_k2 is None else init_k2)
    eye, history = np.eye(m1), []
    best, best_at = np.inf, 0
    while True:
        s2 = scatter_k2_whitened(f2) / (n * m2)
        if history:
            residual = float(np.linalg.norm(root @ s2 @ root.T - eye))
            if residual < best:
                best, best_at = residual, len(history)
            stop = (
                "converged" if residual < tol
                else "stalled" if len(history) - best_at >= 8
                else "max_iter" if len(history) == max_iter
                else None
            )
            if stop:
                return root.T @ root, f2 @ f2.T, history, residual, stop
        l2_inv, logdet_s2 = inverse_factor(s2)
        l1_inv, logdet_s1 = inverse_factor(scatter_k1_whitened(l2_inv.T) / (n * m1))
        sqrt_c = np.exp(-logdet_s1 / (2 * m2))
        root, f2 = l2_inv * sqrt_c, l1_inv.T / sqrt_c
        history.append(-n * m2 * logdet_s2 - n * m1 * logdet_s1 - n * m1 * m2)


class TestWhitenedSweeps:
    @pytest.mark.parametrize(
        "shape, seed",
        [((4, 3, 4), 6), ((12, 6, 3), 1), ((7, 2, 4), 4), ((5, 1, 7), 7), ((1, 1, 1), 1),
         ((30, 30, 3), 3)],
    )
    def test_first_iterates_match_scatter_sweeps(self, shape, seed):
        m1, m2, n = shape
        s = sample_matrix_normal(m1, m2, n, seed=seed)
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((m2, m2))
        init = g @ g.T + np.eye(m2)
        # a run cut at t sweeps returns the pair of sweep t
        runs = [flipflop(s, init_k2=init, tol=0.0, max_iter=t) for t in range(1, 6)]
        pairs = [(ff.k1, ff.k2) for ff in runs]
        ref = scatter_sweeps(s, init, 5)
        assert len(pairs) == 5
        for got, want in zip(pairs, ref):
            for a, b in zip(got, want):
                assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()
        # flip-flop reads an exact copy of the data as the same floats
        exact = flipflop(exact_copy(s), init_k2=init, tol=0.0, max_iter=5)
        assert np.array_equal(exact.k1, runs[-1].k1) and np.array_equal(exact.k2, runs[-1].k2)

    @pytest.mark.parametrize("shape", [(4, 3, 4), (12, 6, 3), (50, 5, 400)])
    def test_bitwise_equal_to_the_helper_formulas(self, shape):
        s = sample_matrix_normal(*shape, seed=sum(shape))
        if shape == (50, 5, 400):  # parsed: the concatenation parse_matrix fills row by row
            s = parse_sample_set(format_sample_set(s))
        for max_iter in range(1, 6):
            est = flipflop(s, max_iter=max_iter)
            k1, k2, history, residual, stop = helper_flipflop(s, max_iter)
            assert np.array_equal(est.k1, k1) and np.array_equal(est.k2, k2)
            assert est.loglik_history == tuple(history)
            assert (est.residual, est.stop_reason) == (residual, stop)

    def test_import_does_not_load_scipy(self):
        # The benchmark worker's imports load what a command needs and no more:
        # flipflop imports scipy on its first call, parse_matrix orjson on its
        # first float read, a table its process pool when it starts one, csv
        # output the csv module, and poly.py and groebner.py are lazy modules
        # that run when an oracle first reads them.
        code = textwrap.dedent("""
            import json, os, sys
            ran = set()
            sys.addaudithook(lambda event, args: event == "exec" and ran.add(getattr(args[0], "co_filename", "")))
            import kronmle, kronmle.cli, kronmle.model, kronmle.solvers
            oracles = [os.path.join(os.path.dirname(kronmle.__file__), f) for f in ("poly.py", "groebner.py")]
            before = sorted(ran.intersection(oracles))
            modules = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "orjson", "concurrent", "multiprocessing", "csv"))
            lazy = [m in sys.modules for m in ("kronmle.poly", "kronmle.groebner")]
            kronmle.mldegree.prop43_system(3, 2, "one")
            print(json.dumps([before, modules, lazy, oracles[0] in ran]))
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(kronmle.__file__).resolve().parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        ran_at_import, modules, lazy, poly_ran = json.loads(out.stdout)
        assert ran_at_import == []
        assert modules == []
        assert lazy == [True, True]
        assert poly_ran


class TestFlipflopInvariants:
    SAMPLES = [((4, 3, 4), 6), ((12, 6, 3), 1), ((7, 2, 4), 4), ((30, 30, 3), 2)]

    @pytest.mark.parametrize("shape, seed", SAMPLES)
    def test_history_is_the_loglik_of_each_pair(self, shape, seed):
        m1, m2, n = shape
        s = sample_matrix_normal(m1, m2, n, seed=seed)
        ff = flipflop(s)
        # a run cut at t sweeps follows the same sweeps and returns the pair of sweep t
        pairs = [(cut.k1, cut.k2) for cut in (flipflop(s, max_iter=t) for t in range(1, ff.iterations + 1))]
        assert len(pairs) == len(ff.loglik_history) == ff.iterations
        slack = 1e-12 * n * m1 * m2
        for ll, (k1, k2) in zip(ff.loglik_history, pairs):
            assert abs(ll - kron_loglik(s, k1, k2)) <= slack
        assert ff.loglik == ff.loglik_history[-1]

    @pytest.mark.parametrize("shape, seed", SAMPLES)
    @pytest.mark.parametrize("tol", [1e-6, 1e-10])
    def test_converged_means_residual_below_tol(self, shape, seed, tol):
        m1, m2, n = shape
        s = sample_matrix_normal(m1, m2, n, seed=seed)
        ff = flipflop(s, tol=tol)
        assert ff.converged and ff.stop_reason == "converged"
        assert ff.residual < tol
        assert invariant_residual(s, ff.k1, ff.k2) <= tol

    def test_stall_is_reported_unconverged(self):
        # no residual is below 0, so the run must stop at its roundoff floor
        s = sample_matrix_normal(4, 3, 4, seed=6)
        ff = flipflop(s, tol=0.0, max_iter=10000)
        assert ff.stop_reason == "stalled"
        assert not ff.converged
        assert ff.iterations < 10000
        assert invariant_residual(s, ff.k1, ff.k2) <= 1e-12

    def test_max_iter_is_reported(self):
        s = sample_matrix_normal(4, 3, 4, seed=7)
        ff = flipflop(s, max_iter=3)
        assert ff.stop_reason == "max_iter"
        assert ff.iterations == 3 and not ff.converged
        # the reported residual is the returned pair's, and bounds the spectral one
        assert invariant_residual(s, ff.k1, ff.k2) <= ff.residual * (1 + 1e-9)

    def test_k1_closed_form_is_certified(self):
        s = sample_matrix_normal(23, 4, 6, seed=7)
        est = mle(s)
        assert est.method == "chain" and est.converged
        assert invariant_residual(s, est.k1, est.k2) <= 1e-10


def slow_sample(shape, seed):
    """A sample whose plain flip-flop converges at a steady rate near 0.8:
    (30,30,3) itself, or the (6,6,3) dual that mle castles (12,6,3) to."""
    s = sample_matrix_normal(*shape, seed=seed)
    return castle(s) if shape == (12, 6, 3) else s


class TestOverRelaxation:
    """flipflop steps its K2 whitener past the plain sweep once the residual's
    rate holds steady; helper_flipflop is the plain run."""

    @pytest.mark.parametrize("shape", [(30, 30, 3), (12, 6, 3)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fewer_sweeps_to_a_certified_pair(self, shape, seed):
        s = slow_sample(shape, seed)
        est = flipflop(s)
        _, _, plain, _, stop = helper_flipflop(s, 10000)
        assert est.converged and stop == "converged"
        assert est.iterations <= 0.75 * len(plain)
        assert invariant_residual(s, est.k1, est.k2) <= 1e-10
        hist = est.loglik_history  # non-decreasing up to the last few ulps, as the plain run's
        assert all(b >= a - 1e-14 * abs(a) for a, b in zip(hist, hist[1:]))

    def test_exact_zero_residual_has_no_rate(self):
        # at tol = 0 a 1 x 1 sample's residual is exactly 0 from sweep 1 on
        s = sample_matrix_normal(1, 1, 1, seed=0)
        est = flipflop(s, tol=0.0)
        assert (est.iterations, est.stop_reason, est.residual) == (9, "stalled", 0.0)
        assert est.loglik_history == tuple(helper_flipflop(s, 10000, tol=0.0)[2])

    @pytest.mark.parametrize("seed", [0, 4])
    def test_stepped_scale_does_not_hold_the_monitor_up(self, seed):
        # (7,2,4) reads an early rate near 0.97 here, so w = 1.9: a stepped F2
        # left at its own scale kept a mode decaying as 0.9^t in the monitor,
        # and these runs took 181 and 175 sweeps against the plain 157 and 152
        s = sample_matrix_normal(7, 2, 4, seed=seed)
        est = flipflop(s)
        _, _, plain, _, _ = helper_flipflop(s, 10000)
        assert est.converged and invariant_residual(s, est.k1, est.k2) <= 1e-10
        assert est.iterations <= 0.75 * len(plain)

    @pytest.mark.parametrize("shape", [(30, 30, 3), (12, 6, 3)])
    def test_run_cut_while_relaxing_returns_that_sweeps_plain_pair(self, shape):
        s = slow_sample(shape, 0)
        n, m1 = s.n, s.m1
        full = flipflop(s)
        _, _, plain, _, _ = helper_flipflop(s, 10000)
        # the first sweep whose pair used a stepped K2
        first = next(t for t, (a, b) in enumerate(zip(full.loglik_history, plain)) if a != b)
        assert 6 <= first < full.iterations - 1
        for t in range(first, full.iterations + 1):
            cut = flipflop(s, max_iter=t)
            assert cut.loglik_history == full.loglik_history[:t]
            # the monitor can still be above tol where the plain pair is below it
            assert cut.iterations == t
            assert cut.stop_reason == ("converged" if cut.residual < 1e-10 else "max_iter")
            # the reported residual is the returned pair's, and bounds the spectral one
            assert invariant_residual(s, cut.k1, cut.k2) <= cut.residual * (1 + 1e-9)
            # a plain pair: K2 is the profile of K1
            profile = np.linalg.inv(scatter_k1(s, cut.k1) / (n * m1))
            assert np.abs(cut.k2 - profile).max() <= 1e-9 * np.abs(profile).max()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_runs_that_stop_before_relaxing_are_plain(self, seed):
        # a (50,5,400) sample, parsed as a file is, and the top run of the
        # (23,4,6) chain, which starts at the closed form of its (1,4,6) dual
        large = parse_sample_set(format_sample_set(sample_matrix_normal(50, 5, 400, seed=seed)))
        top = sample_matrix_normal(23, 4, 6, seed=seed)
        dual = castle(top)
        start = scatter_k1(dual, flipflop(dual).k1)
        for s, init in ((large, None), (top, start)):
            est = flipflop(s, init_k2=init)
            k1, k2, history, residual, stop = helper_flipflop(s, 10000, init_k2=init)
            assert np.array_equal(est.k1, k1) and np.array_equal(est.k2, k2)
            assert est.loglik_history == tuple(history)
            assert (est.residual, est.stop_reason) == (residual, stop)
        chain = mle(top)
        assert np.array_equal(chain.k1, k1) and np.array_equal(chain.k2, k2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_refused_step_falls_back_to_plain_sweeps(self, seed, monkeypatch):
        # w = 50 from sweep 6 on: the first stepped F2 has a diagonal entry
        # that is not positive, so the run takes F2+ and never relaxes again
        monkeypatch.setattr(solvers, "_over_relaxation", lambda r: 50.0)
        s = sample_matrix_normal(30, 30, 3, seed=seed)
        lines, first = inspect.getsourcelines(solvers.flipflop)
        step = next(i for i, line in enumerate(lines) if "(f2.diagonal() > 0).all()" in line)
        refused = first + next(i for i in range(step, len(lines)) if lines[i].strip() == "else:") + 1
        ran, code = set(), solvers.flipflop.__code__

        def tracer(frame, event, arg):
            if frame.f_code is not code:
                return None

            def lines_run(frame, event, arg):
                if event == "line":
                    ran.add(frame.f_lineno)
                return lines_run

            return lines_run

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            est = flipflop(s)
        finally:
            sys.settrace(previous)
        assert refused in ran
        assert est.converged and invariant_residual(s, est.k1, est.k2) < 1e-10


class TestIllConditioned:
    """Factors with cond(A A^T) up to 1e6: the MLE exists at every shape here, so
    `mle` must exit 0 with an estimate that passes the residual check, and
    must not mark it converged above --tol."""

    @pytest.mark.parametrize("shape", [(12, 6, 3), (30, 30, 3), (23, 4, 6)])
    @pytest.mark.parametrize("cond", [1e2, 1e4, 1e6])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cli_estimate_or_exit_code(self, tmp_path, capsys, shape, cond, seed):
        m1, m2, n = shape
        rng = np.random.default_rng([seed, m1, int(np.log10(cond))])
        a = conditioned_factor(rng, m1, cond)
        b = conditioned_factor(rng, m2, cond)
        z = sample_matrix_normal(m1, m2, n, seed=seed)
        s = SampleSet(np.hstack([a @ zi @ b.T for zi in z.blocks]), m2)
        path, out = tmp_path / "sample.txt", tmp_path / "est.txt"
        path.write_text(format_sample_set(s))
        code = main(["mle", "--in", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        # the MLE exists at these shapes (n >= thresholds, k = 1 with n >= m2)
        assert code == EXIT_OK, captured.err
        lines = out.read_text().splitlines()
        converged = lines[0].split()[4] == "1"
        k1 = np.array([line.split() for line in lines[2 : 2 + m1]], dtype=float)
        k2 = np.array([line.split() for line in lines[3 + m1 :]], dtype=float)
        residual = invariant_residual(s, k1, k2)
        if converged:
            assert residual <= 1e-10  # the CLI's default --tol
        floor = np.finfo(float).eps * np.linalg.cond(k1)
        if 1e-6 < residual <= 10 * floor and "stop: stalled" in captured.out:
            pytest.xfail(
                f"stalled at residual {residual:.1e}, the roundoff floor of K1 in "
                f"doubles (eps*cond(K1) = {floor:.1e}); see ROADMAP item 4"
            )
        assert residual <= 1e-6


class TestDispatcher:
    def test_method_tags(self):
        k1_sample = sample_matrix_normal(3, 2, 2, seed=11)
        k2_sample = sample_matrix_normal(2, 2, 2, seed=11)
        assert k1_sample.k == 1 and k2_sample.k == 2
        assert mle(k1_sample).method == "chain"  # the k = 1 closed form by castle
        assert mle(k2_sample).method == "flipflop"
        chain_sample = sample_matrix_normal(7, 3, 3, seed=11)
        assert mle(chain_sample).method == "chain"

    def test_cross_engine_agreement(self):
        s = sample_matrix_normal(5, 2, 3, seed=12)  # k = 1
        exact = exact_mle_k1(exact_copy(s))
        ff = flipflop(s, tol=1e-13, max_iter=5000)
        assert ff.converged
        assert np.abs(ff.k2 - exact.k2).max() <= 1e-6
        assert np.abs(ff.k1 - exact.k1).max() <= 1e-6 * np.abs(exact.k1).max()


class TestChain:
    """The castled start of mle, on i.i.d. standard normal data."""

    @pytest.mark.parametrize(
        "shape, start",
        [
            ((12, 6, 3), "castle (6,6,3)"),
            ((13, 5, 3), "castle (2,5,3) > castle^T (1,2,3)"),
            ((34, 13, 3), "castle (5,13,3) > castle^T (2,5,3) > castle^T (1,2,3)"),
            ((56, 15, 4), "castle (4,15,4) > castle^T (1,4,4)"),
            ((17, 7, 3), "castle (4,7,3) > castle^T (5,4,3)"),
            ((7, 3, 3), "castle (2,3,3)"),
            ((6, 4, 2), "castle (2,4,2)"),
            ((30, 30, 3), "identity"),  # k = 60 > m1
            ((23, 4, 6), "castle (1,4,6)"),  # k = 1: the closed form by castle
        ],
    )
    def test_start(self, shape, start):
        s = sample_matrix_normal(*shape, seed=0)
        assert mle(s).start == start

    @pytest.mark.parametrize("shape", [(12, 6, 3), (40, 4, 12)])
    def test_castle_inverts_the_dual_k2(self, shape):
        # Castling keeps the likelihood with K2 -> K2^-1 (Derksen, Makam & Walter 2022).
        s = sample_matrix_normal(*shape, seed=1)
        direct = flipflop(s, tol=1e-12)
        dual = flipflop(castle(s), tol=1e-12)
        assert direct.converged and dual.converged
        assert np.abs(normalize_det1(np.linalg.inv(dual.k2)) - direct.k2).max() <= 1e-8
        # Any kernel basis gives the same dual K2: castle's orthonormal rows
        # and the [I | C] form's D^T = [C^T | -I_k] differ by Z_i -> A Z_i.
        blocks = flipflop(canonicalize(exact_copy(s)).dual.to_float(), tol=1e-12)
        assert np.abs(normalize_det1(blocks.k2) - normalize_det1(dual.k2)).max() <= 1e-8

    @pytest.mark.parametrize(
        "shape", [(12, 6, 3), (40, 4, 12), (13, 5, 3), (17, 7, 3), (56, 15, 4), (7, 3, 3)]
    )
    def test_start_is_the_mle(self, shape):
        s = sample_matrix_normal(*shape, seed=2)
        est = mle(s)
        dual = mle(castle(s))
        assert est.method == "chain" and est.converged
        assert dual.iterations < est.iterations <= dual.iterations + 2  # the polish
        assert invariant_residual(s, est.k1, est.k2) <= 1e-10
        assert np.abs(normalize_det1(np.linalg.inv(dual.k2)) - est.k2).max() <= 1e-8
        # Flip-flop from the identity stalls above 1e-12 at (56,15,4).
        direct = flipflop(s, tol=1e-12)
        assert direct.converged == (shape != (56, 15, 4))
        if direct.converged:
            assert np.abs(direct.k2 - est.k2).max() <= 1e-8

    @pytest.mark.parametrize("shape", [(13, 5, 3), (34, 13, 3), (56, 15, 4)])
    def test_descent_ends_at_k1(self, shape):
        # Each of these descents ends at a 1 x 1 factor, so every level's
        # polish starts next to its MLE.  The one-step castle's start, the
        # dual flip-flopped from the identity, agrees to its own accuracy.
        s = sample_matrix_normal(*shape, seed=2)
        path, end = descent(*shape)
        est = mle(s)
        assert end == "k1" and est.converged
        assert est.iterations <= 2 * (len(path) + 1)
        assert invariant_residual(s, est.k1, est.k2) <= 1e-10
        one_step = normalize_det1(np.linalg.inv(flipflop(castle(s)).k2))
        assert np.abs(one_step - est.k2).max() <= 1e-8 * np.abs(est.k2).max()

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 5, 50, 10000])
    def test_max_iter_bounds_both_runs(self, monkeypatch, max_iter):
        # iterations counts the dual's sweeps and the polish's, and max_iter
        # bounds their sum; with a single sweep there is no room for a castle.
        runs = []
        real = solvers.flipflop

        def spy(*args, **kwargs):
            runs.append(real(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(solvers, "flipflop", spy)
        s = sample_matrix_normal(12, 6, 3, seed=3)
        est = mle(s, max_iter=max_iter)
        assert est.iterations == sum(run.iterations for run in runs) <= max_iter
        assert est.method == ("flipflop" if max_iter == 1 else "chain")
        assert len(runs) == (1 if max_iter == 1 else 2)
        # (34,13,3) descends three steps.  Each level keeps a sweep for its
        # polish, so max_iter = m follows min(m - 1, 3) steps, every level's
        # sweeps included in the sum.
        runs.clear()
        s = sample_matrix_normal(34, 13, 3, seed=3)
        est = mle(s, max_iter=max_iter)
        assert est.iterations == sum(run.iterations for run in runs) <= max_iter
        steps = ["castle (5,13,3)", "castle^T (2,5,3)", "castle^T (1,2,3)"][: max_iter - 1]
        assert est.start == (" > ".join(steps) or "identity")
        assert len(runs) == len(steps) + 1
        runs.clear()
        with pytest.raises(MLENotExists):  # (8,5,2) castles to (2,5,2): unbounded
            mle(sample_matrix_normal(8, 5, 2, seed=3), max_iter=max_iter)
        assert runs == []

    @pytest.mark.parametrize("left, right", [(2, 5), (2, 11)])
    def test_singular_left_block_castles(self, tmp_path, capsys, left, right):
        # Two equal columns in the left 12 x 12 block: the [I | C] form
        # does not exist, but Y has full rank and castle takes a basis of
        # ker Y.  With equal columns within Y1 the run is still unconverged
        # after 300 sweeps (residual near 2e-3); across Y1 and Y2 it converges.
        s = sample_matrix_normal(12, 6, 3, seed=0)
        y = s.y.copy()
        y[:, right] = y[:, left]
        s = SampleSet(y, 6)
        with pytest.raises(DegenerateData):
            canonicalize(exact_copy(s))
        est = mle(s, max_iter=300)
        assert est.method == "chain" and est.start == "castle (6,6,3)"
        path, out = tmp_path / "sample.txt", tmp_path / "est.txt"
        path.write_text(format_sample_set(s))
        code = main(["mle", "--in", str(path), "--out", str(out), "--max-iter", "300"])
        capsys.readouterr()
        assert code == EXIT_OK
        if est.converged:
            lines = out.read_text().splitlines()
            k1 = np.array([line.split() for line in lines[2:14]], dtype=float)
            k2 = np.array([line.split() for line in lines[15:]], dtype=float)
            assert invariant_residual(s, k1, k2) <= 1e-6
        assert est.converged == (right == 11)

    def test_start_not_pd_has_no_mle(self, monkeypatch, tmp_path, capsys):
        # A start that is not PD means dual blocks sharing a kernel vector, up
        # to rounding: the run exits there, within max_iter, and restarts nothing.
        sweeps = []
        real = solvers.flipflop

        def spy(*args, **kwargs):
            run = real(*args, **kwargs)
            sweeps.append(run.iterations)
            return run

        monkeypatch.setattr(solvers, "flipflop", spy)
        monkeypatch.setattr(solvers, "scatter_k1", lambda sample, k1: -np.eye(sample.m2))
        s = sample_matrix_normal(13, 5, 3, seed=3)
        with pytest.raises(MLENotExists, match="^the dual blocks share a kernel vector$"):
            mle(s, max_iter=40)
        assert sum(sweeps) <= 40
        path, out = tmp_path / "sample.txt", tmp_path / "est.txt"
        path.write_text(format_sample_set(s))
        code = main(["mle", "--in", str(path), "--out", str(out), "--max-iter", "40"])
        captured = capsys.readouterr()
        assert code == EXIT_NO_MLE and not out.exists()
        assert captured.out == "" and len(captured.err.splitlines()) == 1

    def test_long_descent_needs_no_recursion(self):
        # (41,40,2) descends 39 steps to (1,2,2).  The climb is one loop, so
        # the run fits in 30 frames above the caller's, fewer than the levels
        # of the path.
        s = sample_matrix_normal(41, 40, 2, seed=1)
        flipflop(sample_matrix_normal(2, 2, 2, seed=0))  # imports scipy
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 30)
        try:
            est = mle(s)
        finally:
            sys.setrecursionlimit(limit)
        path, end = descent(41, 40, 2)
        assert (len(path), end) == (39, "k1")
        assert est.converged and est.start.count(" > ") == 38
        assert est.start.startswith("castle (39,40,2) > castle^T (38,39,2)")

    def test_dual_outside_its_regime_has_no_mle(self):
        # (8,5,2) castles to (2,5,2), where n*m1 < m2: flip-flop refuses the
        # dual, and mle reports that no MLE exists before any solve.
        s = sample_matrix_normal(8, 5, 2, seed=4)
        with pytest.raises(ValueError, match=r"^flip-flop needs n\*m2 >= m1 and n\*m1 >= m2$"):
            flipflop(castle(s))
        with pytest.raises(MLENotExists, match=r"\(8,5,2\) > castle \(2,5,2\) ends"):
            mle(s, max_iter=50)


class TestK1Castle:
    """At k = 1 the castle's dual is (1, m2, n), and its solve is the paper's closed form."""

    def samples(self):
        return [sample_matrix_normal(23, 4, 6, seed=7), hand_k1_sample()]

    def test_labels(self):
        for s, start in zip(self.samples(), ["castle (1,4,6)", "castle (1,2,2)"]):
            est = mle(s)
            assert (est.method, est.start, est.converged) == ("chain", start, True)

    def test_dual_solve_takes_one_sweep(self, monkeypatch):
        runs = []
        real = solvers.flipflop

        def spy(*args, **kwargs):
            runs.append(real(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(solvers, "flipflop", spy)
        for s in self.samples():
            runs.clear()
            mle(s)
            assert runs[0].iterations == 1 and runs[0].converged

    def test_matches_exact_closed_form(self):
        for s in self.samples():
            exact = exact_mle_k1(s if s.is_exact else exact_copy(s))
            assert np.abs(mle(s.to_float()).k2 - exact.k2).max() <= 1e-9


@st.composite
def unbounded_shapes(draw):
    """(m1, m2, n, mirrored) where every sample's likelihood is unbounded.

    Unmirrored: 1 <= k < m1 and n*k < m2.  Mirrored: the transpose of such a
    shape, whose own transposed sample meets that rule (n*k_T < m1).
    """
    m2 = draw(st.integers(2, 9))
    n = draw(st.integers(1, min(3, m2 - 1)))
    k = draw(st.integers(1, (m2 - 1) // n))
    m1 = n * m2 - k
    assume(k < m1)
    return (m2, m1, n, True) if draw(st.booleans()) else (m1, m2, n, False)


class TestNoMLEByShape:
    @given(unbounded_shapes(), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_likelihood_rises_along_the_kernel_ray(self, shape, seed):
        # T(Sigma) = sum_i Z_i Sigma Z_i^T stays fixed along Sigma = I + t w w^T
        # for w in the kernel of the stacked dual blocks, so the reduced
        # objective falls (the likelihood, n times its negative plus a
        # constant, rises) without bound.  A mirrored shape's ray is that of
        # its transposed sample, whose likelihood is the same up to K1 <-> K2.
        m1, m2, n, mirrored = shape
        s = sample_matrix_normal(m1, m2, n, seed=seed)
        t = SampleSet(np.hstack([y.T for y in s.blocks]), m1) if mirrored else s
        cf = canonicalize(exact_copy(t))
        stacked = np.vstack(cf.dual.to_float().blocks)  # (n*k) x m2 of t, n*k < m2
        w = np.linalg.svd(stacked)[2][-1]
        assert np.abs(stacked @ w).max() <= 1e-9 * np.abs(stacked).max()
        values = [reduced_objective(cf, np.eye(t.m2) + x * np.outer(w, w)) for x in (0, 1, 1e2, 1e4)]
        assert all(b < a for a, b in zip(values, values[1:]))
        with pytest.raises(MLENotExists):  # the descent ends unbounded
            mle(s)


def _symmetric_inverse(k):
    inv = np.linalg.inv(k)
    return (inv + inv.T) / 2


class TestChainOnlyShapes:
    """Shapes whose descent is unbounded although no one-step rule refuses them."""

    @pytest.mark.parametrize("seed", range(3))
    def test_likelihood_rises_along_the_ray_mapped_up_the_path(self, seed):
        # The end shape (a, b, n) has n*a < b, so its stacked blocks have a
        # kernel vector w, and its profile likelihood rises without bound
        # along K2 = I + t*w*w^T.  A castle keeps the profile likelihood with
        # K2 -> K2^-1.  A castle^T does so for the transposed sample, whose
        # K2 is the level's K1; the level's profile K2 at that K1 does at
        # least as well.  So the ray maps up to K2s of the sample along which
        # g = m2*logdet(sum_i Yi K2 Yi^T) - m1*logdet(K2) falls.
        for m1, m2, n in chain_only_shapes(2) + chain_only_shapes(3):
            path, _ = descent(m1, m2, n)
            levels = [sample_matrix_normal(m1, m2, n, seed=seed)]
            for kind, _ in path:
                top = levels[-1]
                if kind == "castle^T":
                    top = SampleSet(np.hstack([y.T for y in top.blocks]), top.m1)
                levels.append(castle(top))
            end = levels.pop()
            w = np.linalg.svd(np.vstack(end.blocks))[2][-1]
            k2s = [np.eye(end.m2) + t * np.outer(w, w) for t in (0, 1, 1e2, 1e4)]
            for (kind, _), level in zip(reversed(path), reversed(levels)):
                k2s = [_symmetric_inverse(k) for k in k2s]
                if kind == "castle^T":
                    k2s = [_symmetric_inverse(scatter_k1(level, k1)) for k1 in k2s]
            values = [g_objective(levels[0], k2) for k2 in k2s]
            assert all(b < a - 0.5 for a, b in zip(values, values[1:])), (m1, m2, n)

    def test_refused_by_shape_alone(self, monkeypatch):
        called = []
        monkeypatch.setattr(solvers, "castle", lambda *args: called.append("castle"))
        monkeypatch.setattr(solvers, "flipflop", lambda *args, **kw: called.append("flipflop"))
        shapes = chain_only_shapes(2) + chain_only_shapes(3)
        assert len(shapes) == 160
        for m1, m2, n in shapes:
            s = sample_matrix_normal(m1, m2, n, seed=m1 + m2)
            with pytest.raises(MLENotExists, match=rf"^the descent \({m1},{m2},{n}\) > "):
                mle(s, max_iter=1 + m1 % 3)
        assert called == []


class TestEquivariance:
    def test_transformed_sample_transforms_estimate(self):
        rng = np.random.default_rng(13)
        s = sample_matrix_normal(4, 3, 4, seed=14)
        base = flipflop(s, tol=1e-13)
        for _ in range(5):
            a = rng.standard_normal((4, 4)) + 2 * np.eye(4)
            b = rng.standard_normal((3, 3)) + 2 * np.eye(3)
            moved = SampleSet(np.hstack([a @ y @ b.T for y in s.blocks]), 3)
            est = flipflop(moved, tol=1e-13)
            expect_k2 = normalize_det1(
                np.linalg.inv(b).T @ base.k2 @ np.linalg.inv(b)
            )
            assert np.abs(est.k2 - expect_k2).max() <= 1e-6
            # compare the full Kronecker product to dodge the gauge freedom
            got = np.kron(est.k2, est.k1)
            expect = np.kron(
                np.linalg.inv(b).T @ base.k2 @ np.linalg.inv(b),
                np.linalg.inv(a).T @ base.k1 @ np.linalg.inv(a),
            )
            assert np.abs(got - expect).max() <= 1e-6 * np.abs(expect).max()


class TestScaleInvariance:
    """mle(t*Y) is mle(Y) with K1 scaled by 1/t^2, at every scale of the data.

    The model and the stop rule do not change under Yi -> t*Yi, so neither
    may the run.  The first four shapes start with castle^T, whose swap
    rescales a K1 of the transposed sample to det 1, and the float det(K1)
    of that K1 leaves the doubles at most of these scales."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "shape", [(2, 5, 3), (3, 4, 2), (10, 25, 3), (20, 50, 3), (4, 3, 2), (12, 6, 3), (30, 30, 3)]
    )
    def test_every_scale_gives_the_unit_run(self, shape):
        s = sample_matrix_normal(*shape, seed=0)
        unit = mle(s)
        for t in (1e-100, 1e-40, 1e-3, 1e4, 1e40, 1e100):
            est = mle(SampleSet(t * s.y, s.m2))
            assert (est.stop_reason, est.iterations) == (unit.stop_reason, unit.iterations)
            assert np.abs(est.k2 - unit.k2).max() <= 1e-8 * np.abs(unit.k2).max()
            assert np.abs(t * t * est.k1 - unit.k1).max() <= 1e-8 * np.abs(unit.k1).max()
            sign, logdet = np.linalg.slogdet(est.k2)
            assert sign == 1 and abs(logdet) <= 1e-8


class TestSerialization:
    def test_header(self):
        s = hand_k1_sample()
        est = exact_mle_k1(s)
        text = format_estimate(est)
        head = text.splitlines()[0].split()
        assert head[:3] == ["3", "2", "exact"]
        assert head[4] == "1"  # converged flag
