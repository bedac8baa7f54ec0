"""Reduction to [I | C] form, the D matrix, and the trace-form machinery."""

from fractions import Fraction

import numpy as np
import pytest

from kronmle.canonical import (
    CanonicalForm,
    DegenerateData,
    NonPositiveK,
    canonical_blocks,
    canonicalize,
    det_reduction_check,
    format_canonical_form,
    reduced_gradient,
    reduced_objective,
    trace_form,
)
from kronmle.linalg import Matrix, kron
from kronmle.model import SampleSet, g_objective, sample_matrix_normal


def sample_from_concat(y, m2, exact=True):
    """Split an m1 x (n*m2) concatenation into a SampleSet."""
    m1 = y.rows if exact else y.shape[0]
    total = y.cols if exact else y.shape[1]
    n = total // m2
    if exact:
        data = tuple(
            y.submatrix(range(m1), range(i * m2, (i + 1) * m2)) for i in range(n)
        )
    else:
        data = tuple(y[:, i * m2 : (i + 1) * m2] for i in range(n))
    return SampleSet(m1=m1, m2=m2, n=n, data=data)


def worked_example():
    c = Matrix([[1, 2], [3, 4], [5, 6], [7, 8]])
    return sample_from_concat(Matrix.identity(4).hstack(c), 2)


def random_canonical_instance(rng, m2, k, n):
    m1 = n * m2 - k
    c = Matrix([[int(rng.integers(-8, 9)) for _ in range(k)] for _ in range(m1)])
    cf = canonicalize(sample_from_concat(Matrix.identity(m1).hstack(c), m2))
    l = Matrix([[int(rng.integers(-3, 4)) for _ in range(m2)] for _ in range(m2)])
    k_mat = l @ l.transpose() + Matrix.identity(m2)
    return cf, k_mat


class TestCanonicalize:
    def test_identity_left_block_keeps_c(self):
        c = Matrix([[1, 2], [3, 4], [5, 6], [7, 8]])
        cf = canonicalize(worked_example())
        assert cf.C == c
        assert cf.k == 2

    def test_d_layout(self):
        cf = canonicalize(worked_example())
        expect_dt = cf.C.transpose().hstack(Matrix.identity(2).scale(-1))
        assert cf.D.transpose() == expect_dt

    def test_nontrivial_left_block(self):
        rng = np.random.default_rng(0)
        base = Matrix([[int(rng.integers(-4, 5)) for _ in range(6)] for _ in range(4)])
        s = sample_from_concat(base, 2)
        cf = canonicalize(s)
        ystar = base.submatrix(range(4), range(4))
        assert ystar @ cf.C == base.submatrix(range(4), range(4, 6))

    def test_k1_hand_example(self):
        y = Matrix.identity(3).hstack(Matrix.column([1, 0, 0]))
        cf = canonicalize(sample_from_concat(y, 2))
        assert cf.k == 1
        assert cf.D == Matrix.column([1, 0, 0, -1])
        assert cf.d_block(0, 0) == Matrix.column([1, 0])
        assert cf.d_block(1, 0) == Matrix.column([0, -1])

    def test_kernel_property(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            while True:
                m2 = int(rng.integers(2, 5))
                k = int(rng.integers(1, 4))
                n = int(rng.integers(1, 4))
                if n * m2 - k >= 1:
                    break
            cf, _ = random_canonical_instance(rng, m2, k, n)
            y = Matrix.identity(cf.m1).hstack(cf.C)
            assert y @ cf.D == Matrix.zeros(cf.m1, cf.k)

    def test_degenerate_left_block(self):
        y = Matrix([[1, 1, 5], [1, 1, 7]])
        with pytest.raises(DegenerateData):
            canonicalize(sample_from_concat(y, 3))

    def test_nonpositive_k(self):
        s = sample_from_concat(Matrix([[1, 2], [3, 5]]), 2)
        with pytest.raises(NonPositiveK):
            canonicalize(s)

    def test_float_path_matches_exact(self):
        cf_e = canonicalize(worked_example())
        cf_f = canonicalize(worked_example().to_float())
        assert np.allclose(cf_f.C, cf_e.C.to_numpy())
        assert np.allclose(cf_f.D, cf_e.D.to_numpy())


class TestDabBlocks:
    def test_block_transpose_symmetry(self):
        rng = np.random.default_rng(2)
        cf, _ = random_canonical_instance(rng, 3, 3, 2)
        for a in range(cf.k):
            for b in range(cf.k):
                assert cf.Dab[a][b] == cf.Dab[b][a].transpose()

    def test_grid_is_sum_of_outer_products(self):
        rng = np.random.default_rng(3)
        cf, _ = random_canonical_instance(rng, 2, 3, 3)
        expect = Matrix.zeros(cf.m2 * cf.k, cf.m2 * cf.k)
        for i in range(cf.n):
            stacked = cf.d_block(i, 0)
            for j in range(1, cf.k):
                stacked = stacked.vstack(cf.d_block(i, j))
            expect = expect + stacked @ stacked.transpose()
        assert cf.dab_grid() == expect

    def test_grid_positive_semidefinite(self):
        rng = np.random.default_rng(4)
        cf, _ = random_canonical_instance(rng, 2, 2, 2)
        eigs = np.linalg.eigvalsh(cf.dab_grid().to_numpy())
        assert eigs.min() >= -1e-9


class TestDetReduction:
    def test_worked_example_values(self):
        cf = canonicalize(worked_example())
        k = Matrix([[3, 1], [1, 3]])
        lhs, rhs = det_reduction_check(cf, k)
        assert lhs == rhs == 16640
        assert k.det() ** 3 == 512
        inner = cf.D.transpose() @ kron(Matrix.identity(3), k.inverse()) @ cf.D
        assert inner == Matrix(
            [
                [Fraction(179, 8), Fraction(207, 8)],
                [Fraction(207, 8), Fraction(251, 8)],
            ]
        )
        assert inner.det() == Fraction(65, 2)
        assert k.det() ** 3 * inner.det() == 16640

    def test_identity_k_matches_sylvester_style_identity(self):
        rng = np.random.default_rng(5)
        cf, _ = random_canonical_instance(rng, 2, 3, 3)
        lhs, rhs = det_reduction_check(cf, Matrix.identity(2))
        c = cf.C
        assert lhs == (Matrix.identity(cf.m1) + c @ c.transpose()).det()
        assert rhs == (Matrix.identity(cf.k) + c.transpose() @ c).det()
        assert lhs == rhs

    def test_k1_scalar_inner(self):
        rng = np.random.default_rng(6)
        cf, k_mat = random_canonical_instance(rng, 2, 1, 2)
        lhs, rhs = det_reduction_check(cf, k_mat)
        scalar = Fraction(0)
        for i in range(cf.n):
            d = cf.d_block(i, 0)
            scalar += (d.transpose() @ k_mat.inverse() @ d)[0, 0]
        assert rhs == k_mat.det() ** cf.n * scalar
        assert lhs == rhs

    def test_random_instances_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            m2 = int(rng.integers(2, 5))
            k = int(rng.integers(1, 5))
            n = max(1, -(-(k + 1) // m2))  # smallest n with m1 >= 1
            n = int(rng.integers(n, n + 3))
            if n * m2 - k < 1 or n * m2 - k > 10:
                continue
            cf, k_mat = random_canonical_instance(rng, m2, k, n)
            lhs, rhs = det_reduction_check(cf, k_mat)
            assert lhs == rhs

    def test_float_path_agrees(self):
        cf = canonicalize(worked_example().to_float())
        lhs, rhs = det_reduction_check(cf, np.array([[3.0, 1.0], [1.0, 3.0]]))
        assert lhs == pytest.approx(16640.0, rel=1e-9)
        assert rhs == pytest.approx(16640.0, rel=1e-9)


class TestTraceForm:
    def test_sigma_identity_gives_gram(self):
        cf = canonicalize(worked_example())
        assert trace_form(cf, Matrix.identity(2)) == cf.D.transpose() @ cf.D

    def test_worked_example_matrix(self):
        cf = canonicalize(worked_example())
        k = Matrix([[3, 1], [1, 3]])
        t = trace_form(cf, k.inverse())
        assert t == Matrix(
            [
                [Fraction(179, 8), Fraction(207, 8)],
                [Fraction(207, 8), Fraction(251, 8)],
            ]
        )
        assert float(t[0, 0]) == 22.375

    def test_equals_direct_product(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            cf, k_mat = random_canonical_instance(rng, 3, 2, 2)
            sigma = k_mat.inverse()
            direct = (
                cf.D.transpose() @ kron(Matrix.identity(cf.n), sigma) @ cf.D
            )
            assert trace_form(cf, sigma) == direct

    def test_dimension_mismatch(self):
        cf = canonicalize(worked_example())
        with pytest.raises(ValueError):
            trace_form(cf, Matrix.identity(3))


class TestReducedObjective:
    def test_matches_g_objective_on_canonical_data(self):
        rng = np.random.default_rng(9)
        cf, k_mat = random_canonical_instance(rng, 3, 2, 2)
        s = sample_from_concat(
            np.hstack([np.eye(cf.m1), cf.C.to_numpy()]), cf.m2, exact=False
        )
        k_arr = k_mat.to_numpy()
        expect = g_objective(s, k_arr)
        got = reduced_objective(cf, np.linalg.inv(k_arr))
        assert got == pytest.approx(expect, rel=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        cf, _ = random_canonical_instance(rng, 3, 2, 2)
        for _ in range(10):
            a = rng.standard_normal((3, 3))
            sigma = a @ a.T + 3 * np.eye(3)
            grad = reduced_gradient(cf, sigma)
            h = 1e-6
            fd = np.zeros_like(sigma)
            for i in range(3):
                for j in range(3):
                    e = np.zeros_like(sigma)
                    e[i, j] = h
                    fd[i, j] = (
                        reduced_objective(cf, sigma + e)
                        - reduced_objective(cf, sigma - e)
                    ) / (2 * h)
            assert np.abs(grad - fd).max() <= 1e-6 * max(1.0, np.abs(grad).max())

    def test_argmin_survives_canonicalization(self):
        # minimizing g over the raw and the canonicalized data gives the
        # same K2 up to scale (checked through the flip-flop solver)
        from kronmle.solvers import flipflop

        s = sample_matrix_normal(np.eye(3), np.eye(2), 3, seed=21)
        cf = canonicalize(s)
        canon = SampleSet(m1=3, m2=2, n=3, data=tuple(canonical_blocks(cf)))
        est_raw = flipflop(s, tol=1e-12)
        est_canon = flipflop(canon, tol=1e-12)
        assert np.abs(est_raw.k2 - est_canon.k2).max() <= 1e-6


class TestSerialization:
    def test_header_and_c(self):
        cf = canonicalize(worked_example())
        text = format_canonical_form(cf)
        lines = text.splitlines()
        assert lines[0] == "4 2 3 2"
        assert lines[1] == "4 2"
