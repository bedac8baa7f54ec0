"""Acceptance gate: one test per headline requirement, at stated tolerances."""

import time
from fractions import Fraction

import numpy as np
import pytest

from kronmle.canonical import canonicalize, det_reduction_check
from kronmle.linalg import Matrix
from kronmle.mldegree import ml_degree, ml_multiplicity_prop43, b_zero_quadratic, random_integer_sample, score_polynomials
from kronmle.model import SampleSet, sample_matrix_normal
from kronmle.solvers import MLENotExists, exact_mle_k1, flipflop, normalize_det1
from matrix_helpers import exact_copy, kron
from paper_helpers import evaluate, g_objective, reduced_gradient, reduced_objective


def test_01_worked_example_identity():
    start = time.monotonic()
    c = Matrix([[1, 2], [3, 4], [5, 6], [7, 8]])
    sample = SampleSet(Matrix.identity(4).hstack(c), 2)
    cf = canonicalize(sample)
    k = Matrix([[3, 1], [1, 3]])
    lhs, rhs = det_reduction_check(cf, k)
    assert lhs == 16640
    assert rhs == 16640
    d = cf.dual.y.transpose()  # D: its transpose concatenates the dual blocks
    inner = d.transpose() @ kron(Matrix.identity(3), k.inverse()) @ d
    assert inner == Matrix(
        [
            [Fraction(179, 8), Fraction(207, 8)],
            [Fraction(207, 8), Fraction(251, 8)],
        ]
    )
    assert [[float(x) for x in row] for row in inner.data] == [
        [22.375, 25.875],
        [25.875, 31.375],
    ]
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\nACCEPT 1 worked-example identity: PASS ({elapsed:.3f}s)")


def test_02_identity_property_suite():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 200:
        m2 = int(rng.integers(2, 5))
        k = int(rng.integers(1, 5))
        n = int(rng.integers(1, 6))
        m1 = n * m2 - k
        if not 1 <= m1 <= 10:
            continue
        c = Matrix([[int(rng.integers(-8, 9)) for _ in range(k)] for _ in range(m1)])
        sample = SampleSet(Matrix.identity(m1).hstack(c), m2)
        l = Matrix([[int(rng.integers(-3, 4)) for _ in range(m2)] for _ in range(m2)])
        k_mat = l @ l.transpose() + Matrix.identity(m2)
        lhs, rhs = det_reduction_check(canonicalize(sample), k_mat)
        assert lhs == rhs
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"\nACCEPT 2 identity suite (200 exact instances): PASS ({elapsed:.3f}s)")


def test_03_flipflop_vs_closed_form_23_4_6():
    start = time.monotonic()
    sample = sample_matrix_normal(np.eye(23), np.eye(4), 6, seed=7)
    assert sample.k == 1
    exact = exact_mle_k1(exact_copy(sample))
    ff = flipflop(sample, tol=1e-12, max_iter=2000)
    assert ff.converged
    # a run cut at 500 sweeps follows the same sweeps and returns the pair of
    # sweep 500, or the converged pair when the full run stops earlier
    by_500 = float(np.abs(flipflop(sample, tol=1e-12, max_iter=500).k2 - exact.k2).max())
    assert by_500 <= 1e-3
    assert float(np.abs(ff.k2 - exact.k2).max()) <= 1e-9
    hist = ff.loglik_history
    # the likelihood terms are O(n*m1*m2); allow float noise at that scale
    slack = 1e-12 * sample.n * sample.m1 * sample.m2
    assert all(b >= a - slack for a, b in zip(hist, hist[1:]))
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\nACCEPT 3 flip-flop vs closed form at (23,4,6): PASS ({elapsed:.3f}s)")


TABLE_CELLS = [
    (2, 3, 3),
    (2, 4, 3),
    (3, 2, 1),
    (3, 3, 4),
    (3, 4, 7),
    (4, 3, 3),
    (5, 3, 1),
    # Confirmed at seeds 1 and 2 by the Rabinowitsch route
    # (likelihood_equations_m2_2 + buchberger + dim_and_degree).
    (2, 5, 3),
    (5, 4, 7),
    (6, 4, 3),
    # Resultant and Buchberger routes agree, seeds 0-2
    # (tests/test_mldegree.py TestCertifiedRoute::test_matches_prs_route).
    (4, 4, 9),
    (4, 5, 13),
    (6, 5, 13),
]


@pytest.mark.parametrize("m1,n,expect", TABLE_CELLS)
def test_04_ml_degree_regression(m1, n, expect):
    start = time.monotonic()
    for seed in (1, 2):
        assert ml_degree(m1, n, seed) == expect
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"\nACCEPT 4 ml_degree({m1},{n}) = {expect}, two seeds: PASS ({elapsed:.3f}s)")


def test_05_k1_degree_one_and_exact_solution():
    start = time.monotonic()
    for m1, n in ((3, 2), (5, 3), (7, 4), (9, 5)):
        assert 2 * n == m1 + 1
        assert ml_degree(m1, n, seed=1) == 1
        sample = random_integer_sample(m1, n, seed=1)
        _, _, gens = score_polynomials(sample)
        est = exact_mle_k1(sample)
        scale = est.k2_exact[0, 0]
        point = {
            "k12": est.k2_exact[0, 1] / scale,
            "k22": est.k2_exact[1, 1] / scale,
        }
        for g in gens:
            norm = max(abs(float(c)) for c in g.terms.values())
            assert abs(float(evaluate(g, point))) / norm <= 1e-6
    elapsed = time.monotonic() - start
    print(f"\nACCEPT 5 degree-one cells and exact score roots: PASS ({elapsed:.3f}s)")


def test_06_constructed_multiplicity():
    start = time.monotonic()
    count_one = ml_multiplicity_prop43(3, 2, "one")
    assert 2 <= count_one <= 5
    for k in (2, 3):
        count_two = ml_multiplicity_prop43(2, k, "two")
        assert 2 <= count_two <= 4
    assert b_zero_quadratic(3, 2, "one").coefficients == (4, -11, -6)
    assert b_zero_quadratic(2, 2, "two").coefficients == (4, 0, -6)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0  # < 60s per case
    print(f"\nACCEPT 6 constructed multiplicity systems: PASS ({elapsed:.3f}s)")


def test_07_gradient_checks():
    start = time.monotonic()
    sample = sample_matrix_normal(np.eye(5), np.eye(3), 3, seed=3)
    cf = canonicalize(exact_copy(sample))
    rng = np.random.default_rng(70)
    h = 1e-6
    for _ in range(50):
        a = rng.standard_normal((3, 3))
        sigma = a @ a.T + 3 * np.eye(3)
        grad = reduced_gradient(cf, sigma)
        fd = np.zeros_like(sigma)
        for i in range(3):
            for j in range(3):
                e = np.zeros_like(sigma)
                e[i, j] = h
                fd[i, j] = (
                    reduced_objective(cf, sigma + e) - reduced_objective(cf, sigma - e)
                ) / (2 * h)
        assert np.abs(grad - fd).max() <= 1e-6 * max(1.0, np.abs(grad).max())

    # at the k = 1 closed-form solution the gradient vanishes
    k1_sample = sample_matrix_normal(np.eye(5), np.eye(2), 3, seed=5)
    assert k1_sample.k == 1
    est = exact_mle_k1(exact_copy(k1_sample))
    sigma_hat = np.linalg.inv(est.k2)
    grad = reduced_gradient(canonicalize(exact_copy(k1_sample)), sigma_hat)
    assert np.abs(grad).max() <= 1e-8
    elapsed = time.monotonic() - start
    print(f"\nACCEPT 7 gradient vs finite differences: PASS ({elapsed:.3f}s)")


def test_08_invariance_suite():
    start = time.monotonic()
    rng = np.random.default_rng(80)

    # scale invariance of g
    for _ in range(50):
        sample = sample_matrix_normal(np.eye(3), np.eye(2), 3, seed=int(rng.integers(1 << 30)))
        a = rng.standard_normal((2, 2))
        k2 = a @ a.T + 0.5 * np.eye(2)
        c = float(rng.uniform(0.1, 10.0))
        assert abs(g_objective(sample, c * k2) - g_objective(sample, k2)) <= 1e-9

    # additive shift under the left group action; the m2 multiplier in g
    # scales the constant, which is 2*m2*logdet(A) rather than the bare
    # 2*logdet(A) (see the decisions ledger)
    for _ in range(50):
        sample = sample_matrix_normal(np.eye(3), np.eye(2), 3, seed=int(rng.integers(1 << 30)))
        a = rng.standard_normal((3, 3)) + 2 * np.eye(3)
        moved = SampleSet(a @ sample.y, 2)
        k2 = np.eye(2) + 0.3 * np.ones((2, 2))
        shift = g_objective(moved, k2) - g_objective(sample, k2)
        _, logabsdet = np.linalg.slogdet(a)
        assert abs(shift - 2 * sample.m2 * logabsdet) <= 1e-9

    # equivariance of the MLE under simultaneous row/column transformations
    for trial in range(50):
        sample = sample_matrix_normal(np.eye(3), np.eye(2), 3, seed=trial + 1)
        a = rng.standard_normal((3, 3)) + 2 * np.eye(3)
        b = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        base = flipflop(sample, tol=1e-13)
        moved = SampleSet(np.hstack([a @ y @ b.T for y in sample.blocks]), 2)
        est = flipflop(moved, tol=1e-13)
        expect_k2 = normalize_det1(np.linalg.inv(b).T @ base.k2 @ np.linalg.inv(b))
        assert np.abs(est.k2 - expect_k2).max() <= 1e-6
        got = np.kron(est.k2, est.k1)
        expect = np.kron(
            np.linalg.inv(b).T @ base.k2 @ np.linalg.inv(b),
            np.linalg.inv(a).T @ base.k1 @ np.linalg.inv(a),
        )
        assert np.abs(got - expect).max() <= 1e-6 * np.abs(expect).max()
    elapsed = time.monotonic() - start
    print(f"\nACCEPT 8 invariance suite (3 x 50 instances): PASS ({elapsed:.3f}s)")


def test_09_existence_boundary():
    start = time.monotonic()
    # k = 1 with n < m2: no MLE
    bad = sample_matrix_normal(np.eye(5), np.eye(3), 2, seed=1)
    assert bad.k == 1 and bad.n < bad.m2
    with pytest.raises(MLENotExists):
        exact_mle_k1(exact_copy(bad))

    # k = 1 with n >= m2 on generic data: a positive definite pair
    for m1, m2, n in ((3, 2, 2), (5, 2, 3), (5, 3, 2 * 3)):
        if n * m2 - m1 != 1:
            continue
        good = sample_matrix_normal(np.eye(m1), np.eye(m2), n, seed=2)
        est = exact_mle_k1(exact_copy(good))
        assert np.linalg.eigvalsh(est.k1).min() > 0
        assert np.linalg.eigvalsh(est.k2).min() > 0
    # a larger regime with n = m2
    good = sample_matrix_normal(np.eye(11), np.eye(3), 4, seed=3)
    assert good.k == 1 and good.n >= good.m2
    est = exact_mle_k1(exact_copy(good))
    assert np.linalg.eigvalsh(est.k1).min() > 0
    assert np.linalg.eigvalsh(est.k2).min() > 0
    elapsed = time.monotonic() - start
    print(f"\nACCEPT 9 existence boundary: PASS ({elapsed:.3f}s)")
