"""The castle, the castling descent, the exact [I | C] form, their dual samples,
and the trace form."""

import collections
import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kronmle.canonical import (
    DegenerateData,
    canonicalize,
    castle,
    descent,
    det_reduction_check,
)
from kronmle.linalg import Matrix, SingularMatrix
from kronmle.model import SampleSet, sample_matrix_normal, scatter_k2
from matrix_helpers import column, exact_copy, kron
from paper_helpers import (
    canonical_sample,
    chain_only_shapes,
    det_reduction_oracle,
    g_objective,
    lemma_instance,
    one_step_rules,
    reduced_gradient,
    reduced_objective,
)

SPEC = Path(__file__).resolve().parent.parent / "perfbench" / "spec.json"


def d_matrix(cf):
    """The kernel matrix D, whose transpose concatenates the dual sample."""
    return cf.dual.y.transpose()


def worked_example():
    c = Matrix([[1, 2], [3, 4], [5, 6], [7, 8]])
    return SampleSet(Matrix.identity(4).hstack(c), 2)


class TestCanonicalize:
    def test_identity_left_block_keeps_c(self):
        c = Matrix([[1, 2], [3, 4], [5, 6], [7, 8]])
        cf = canonicalize(worked_example())
        assert cf.C == c
        assert cf.k == 2

    @pytest.mark.parametrize("exact", [True, False])
    def test_dimensions_derived(self, exact):
        # only C and the dual are stored; m1, m2, n and k are read off them
        s = SampleSet(Matrix([[int(i == j) + (i * j) % 3 for j in range(9)] for i in range(5)]), 3)
        cf = canonicalize(s if exact else exact_copy(s.to_float()))
        assert [f.name for f in dataclasses.fields(cf)] == ["C", "dual"]
        assert (cf.m1, cf.m2, cf.n, cf.k) == (s.m1, s.m2, s.n, s.k) == (5, 3, 3, 4)

    def test_d_layout(self):
        cf = canonicalize(worked_example())
        expect_dt = cf.C.transpose().hstack(Matrix.identity(2).scale(-1))
        assert (cf.dual.m1, cf.dual.m2, cf.dual.n) == (cf.k, cf.m2, cf.n)
        assert cf.dual.y == expect_dt

    def test_nontrivial_left_block(self):
        rng = np.random.default_rng(0)
        base = Matrix([[int(rng.integers(-4, 5)) for _ in range(6)] for _ in range(4)])
        s = SampleSet(base, 2)
        cf = canonicalize(s)
        ystar = base.submatrix(range(4), range(4))
        assert ystar @ cf.C == base.submatrix(range(4), range(4, 6))

    def test_k1_hand_example(self):
        y = Matrix.identity(3).hstack(column([1, 0, 0]))
        cf = canonicalize(SampleSet(y, 2))
        assert cf.k == 1
        assert d_matrix(cf) == column([1, 0, 0, -1])
        assert cf.dual.blocks == (Matrix([[1, 0]]), Matrix([[0, -1]]))

    def test_kernel_property(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            while True:
                m2 = int(rng.integers(2, 5))
                k = int(rng.integers(1, 4))
                n = int(rng.integers(1, 4))
                if n * m2 - k >= 1:
                    break
            cf, _ = lemma_instance(rng, m2, k, n)
            y = Matrix.identity(cf.m1).hstack(cf.C)
            assert y @ d_matrix(cf) == Matrix.zeros(cf.m1, cf.k)

    def test_degenerate_left_block(self):
        y = Matrix([[1, 1, 5], [1, 1, 7]])
        with pytest.raises(DegenerateData):
            canonicalize(SampleSet(y, 3))

    def test_nonpositive_k(self):
        s = SampleSet(Matrix([[1, 2], [3, 5]]), 2)
        with pytest.raises(ValueError, match=r"^k = n\*m2 - m1 = 0 must be >= 1$"):
            canonicalize(s)

    def test_float_input_rejected(self):
        with pytest.raises(ValueError, match="exact data only"):
            canonicalize(worked_example().to_float())

    def test_float_path_matches_exact(self):
        # castle's rows B = A [C^T | -I_k] for some nonsingular A = -B[:, m1:]
        cf_e = canonicalize(worked_example())
        b = castle(worked_example().to_float()).y
        d_t = np.linalg.solve(-b[:, cf_e.m1 :], b)
        assert np.allclose(d_t[:, : cf_e.m1].T, cf_e.C.to_numpy())
        assert np.allclose(d_t.T, d_matrix(cf_e).to_numpy())


class TestCastle:
    @pytest.mark.parametrize("shape", [(3, 2, 2), (12, 6, 3), (23, 4, 6), (4, 3, 2)])
    def test_orthonormal_kernel_basis(self, shape):
        m1, m2, n = shape
        s = sample_matrix_normal(m1, m2, n, seed=m1)
        dual = castle(s)
        assert (dual.m1, dual.m2, dual.n) == (s.k, m2, n)
        assert np.abs(s.y @ dual.y.T).max() <= 1e-13 * np.abs(s.y).max()
        assert np.abs(dual.y @ dual.y.T - np.eye(s.k)).max() <= 1e-13

    def test_singular_left_block_is_not_degenerate(self):
        # Y_* singular, Y of full rank: no [I | C] form, but a kernel basis
        y = Matrix([[1, 1, 5, 0], [1, 1, 7, 1]])
        with pytest.raises(DegenerateData):
            canonicalize(SampleSet(y, 2))
        dual = castle(SampleSet(y.to_numpy(), 2))
        assert np.abs(y.to_numpy() @ dual.y.T).max() <= 1e-13

    @pytest.mark.parametrize("rank", [0, 2])
    def test_rank_deficient_data(self, rank):
        rng = np.random.default_rng(rank)
        y = rng.standard_normal((5, rank)) @ rng.standard_normal((rank, 6))
        with pytest.raises(DegenerateData, match="rank-deficient"):
            castle(SampleSet(y, 2))

    def test_nonpositive_k(self):
        with pytest.raises(ValueError, match=r"^k = n\*m2 - m1 = 0 must be >= 1$"):
            castle(SampleSet(np.eye(2), 2))


class TestDescent:
    @pytest.mark.parametrize(
        "shape, path, end",
        [
            ((12, 6, 3), [("castle", (6, 6, 3))], "reduced"),
            ((23, 4, 6), [("castle", (1, 4, 6))], "k1"),
            ((13, 5, 3), [("castle", (2, 5, 3)), ("castle^T", (1, 2, 3))], "k1"),
            (
                (34, 13, 3),
                [("castle", (5, 13, 3)), ("castle^T", (2, 5, 3)), ("castle^T", (1, 2, 3))],
                "k1",
            ),
            ((5, 7, 2), [("castle^T", (3, 5, 2)), ("castle^T", (1, 3, 2))], "unbounded"),
            ((8, 5, 2), [("castle", (2, 5, 2))], "unbounded"),
            ((20, 3, 4), [], "unbounded"),  # n*m2 < m1 at the start
            ((1, 3, 2), [], "unbounded"),  # a 1 x 1 factor, but n*m1 < m2
            ((1, 2, 3), [], "k1"),
            ((4, 1, 2), [], "unbounded"),
            ((2, 1, 3), [], "k1"),  # k = 1 < m1, but the 1 x 1 factor ends it first
            ((30, 30, 3), [], "reduced"),
        ],
    )
    def test_paths(self, shape, path, end):
        assert descent(*shape) == (tuple(path), end)

    @pytest.mark.parametrize(
        "n, unbounded, reduced, k1, chain_only",
        [(2, 708, 133, 59, 158), (3, 298, 589, 13, 2), (4, 202, 683, 15, 0)],
    )
    def test_ends_over_the_grid(self, n, unbounded, reduced, k1, chain_only):
        # All 900 shapes with 1 <= m1, m2 <= 30.  The one-step rules refuse
        # only unbounded shapes, and miss chain_only of them.
        grid = [(m1, m2, n) for m1 in range(1, 31) for m2 in range(1, 31)]
        ends = {shape: descent(*shape)[1] for shape in grid}
        assert collections.Counter(ends.values()) == {
            "unbounded": unbounded,
            "reduced": reduced,
            "k1": k1,
        }
        assert all(ends[shape] == "unbounded" for shape in grid if one_step_rules(*shape))
        assert len(chain_only_shapes(n)) == chain_only
        # transposition keeps the end: the likelihood is the same up to K1 <-> K2
        assert all(ends[m1, m2, n] == ends[m2, m1, n] for m1, m2, n in grid)

    def test_chain_only_at_n3(self):
        assert chain_only_shapes(3) == [(11, 29, 3), (29, 11, 3)]

    def test_each_step_shrinks_the_shape(self):
        for shape in [(34, 13, 3), (56, 15, 4), (17, 7, 3), (30, 29, 2)]:
            path, _ = descent(*shape)
            sizes = [shape[0] + shape[1]] + [m1 + m2 for _, (m1, m2, _) in path]
            assert sizes == sorted(sizes, reverse=True) and len(set(sizes)) == len(sizes)

    @pytest.mark.parametrize("shape", [(0, 2, 3), (2, 0, 3), (2, 3, 0), (-1, 2, 3)])
    def test_nonpositive_dimension(self, shape):
        with pytest.raises(ValueError):
            descent(*shape)

    def test_benchmark_shapes(self):
        # The benchmark's float items expect an estimate at every mle_iterative
        # and mle_large_n shape, and exit 3 at the wrong_regime one.
        spec = json.loads(SPEC.read_text())
        shapes = spec["mle_iterative"]["shapes"] + spec["mle_large_n"]["shapes"]
        assert shapes and all(descent(*shape)[1] != "unbounded" for shape in shapes)
        wrong = spec["mle_iterative"]["invalid"]["wrong_regime"]
        assert wrong["shape"] == [20, 3, 4] and wrong["exit"] == 3
        assert descent(*wrong["shape"])[1] == "unbounded"


class TestDetReduction:
    def test_worked_example_values(self):
        cf = canonicalize(worked_example())
        k = Matrix([[3, 1], [1, 3]])
        lhs, rhs = det_reduction_check(cf, k)
        assert lhs == rhs == 16640
        assert k.det() ** 3 == 512
        d = d_matrix(cf)
        inner = d.transpose() @ kron(Matrix.identity(3), k.inverse()) @ d
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
        cf, _ = lemma_instance(rng, 2, 3, 3)
        lhs, rhs = det_reduction_check(cf, Matrix.identity(2))
        c = cf.C
        assert lhs == (Matrix.identity(cf.m1) + c @ c.transpose()).det()
        assert rhs == (Matrix.identity(cf.k) + c.transpose() @ c).det()
        assert lhs == rhs

    def test_k1_scalar_inner(self):
        rng = np.random.default_rng(6)
        cf, k_mat = lemma_instance(rng, 2, 1, 2)
        lhs, rhs = det_reduction_check(cf, k_mat)
        scalar = Fraction(0)
        for z in cf.dual.blocks:  # the single row of each dual block
            scalar += (z @ k_mat.inverse() @ z.transpose())[0, 0]
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
            cf, k_mat = lemma_instance(rng, m2, k, n)
            lhs, rhs = det_reduction_check(cf, k_mat)
            assert lhs == rhs
            assert (lhs, rhs) == det_reduction_oracle(cf, k_mat)

    @pytest.mark.parametrize(
        "k_rows",
        [[[0, 1], [1, 0]], [[2, "1/3"], [-5, "7/2"]], [["3/4", 1], [1, "5/3"]]],
        ids=["swap", "nonsymmetric", "rational-pd"],
    )
    def test_rational_c_matches_oracle(self, k_rows):
        # A left block that is not I gives a C over a denominator; K need not
        # be PD, symmetric or integral, only nonsingular.
        y = Matrix([[2, 1, 0, 3, 1, -1], [1, 3, 2, 0, 5, 2], [0, 1, 4, 1, -2, 3]])
        cf = canonicalize(SampleSet(y, 2))
        k_mat = Matrix(k_rows)
        assert cf.C.den > 1 and (cf.m1, cf.m2, cf.n, cf.k) == (3, 2, 3, 3)
        lhs, rhs = det_reduction_check(cf, k_mat)
        assert lhs == rhs and (lhs, rhs) == det_reduction_oracle(cf, k_mat)
        assert isinstance(lhs, Fraction) and isinstance(rhs, Fraction)

    def test_singular_k_rejected(self):
        with pytest.raises(SingularMatrix):
            det_reduction_check(canonicalize(worked_example()), Matrix([[1, 2], [2, 4]]))

    def test_float_input_rejected(self):
        k = Matrix([[3, 1], [1, 3]])
        with pytest.raises(ValueError):
            det_reduction_check(canonicalize(worked_example().to_float()), k)
        with pytest.raises(ValueError):
            det_reduction_check(canonicalize(worked_example()), k.to_numpy())

    def test_wrong_k_shape_rejected(self):
        # A K of the wrong shape is rejected, not reported as a failed identity.
        with pytest.raises(ValueError):
            det_reduction_check(canonicalize(worked_example()), Matrix.identity(3))


def dab_grid(cf):
    """The (m2*k) x (m2*k) grid of blocks D_ab, read off T at unit matrices.

    T is linear in Sigma, and T(E_pq)[a, b] = sum_i Z_i[a, p] Z_i[b, q] is
    entry (p, q) of block D_ab, so the grid holds every coefficient of T.
    """
    m2, k = cf.m2, cf.k
    rows = [[0] * (m2 * k) for _ in range(m2 * k)]
    for p in range(m2):
        for q in range(m2):
            e = Matrix([[int(i == p and j == q) for j in range(m2)] for i in range(m2)])
            t = scatter_k2(cf.dual, e)
            for a in range(k):
                for b in range(k):
                    rows[a * m2 + p][b * m2 + q] = t[a, b]
    return Matrix(rows)


def dab_block(grid, m2, a, b):
    return grid.submatrix(range(a * m2, (a + 1) * m2), range(b * m2, (b + 1) * m2))


class TestDabBlocks:
    def test_block_transpose_symmetry(self):
        rng = np.random.default_rng(2)
        cf, _ = lemma_instance(rng, 3, 3, 2)
        grid = dab_grid(cf)
        for a in range(cf.k):
            for b in range(cf.k):
                assert dab_block(grid, cf.m2, a, b) == dab_block(grid, cf.m2, b, a).transpose()

    def test_grid_is_sum_of_outer_products(self):
        rng = np.random.default_rng(3)
        cf, _ = lemma_instance(rng, 2, 3, 3)
        expect = Matrix.zeros(cf.m2 * cf.k, cf.m2 * cf.k)
        for z in cf.dual.blocks:
            # the rows of Z_i, each as an m2-column, stacked
            stacked = column([z[a, p] for a in range(cf.k) for p in range(cf.m2)])
            expect = expect + stacked @ stacked.transpose()
        assert dab_grid(cf) == expect

    def test_grid_positive_semidefinite(self):
        rng = np.random.default_rng(4)
        cf, _ = lemma_instance(rng, 2, 2, 2)
        eigs = np.linalg.eigvalsh(dab_grid(cf).to_numpy())
        assert eigs.min() >= -1e-9


class TestTraceForm:
    def test_sigma_identity_gives_gram(self):
        cf = canonicalize(worked_example())
        d = d_matrix(cf)
        assert scatter_k2(cf.dual, Matrix.identity(2)) == d.transpose() @ d

    def test_worked_example_matrix(self):
        cf = canonicalize(worked_example())
        k = Matrix([[3, 1], [1, 3]])
        t = scatter_k2(cf.dual, k.inverse())
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
            cf, k_mat = lemma_instance(rng, 3, 2, 2)
            sigma = k_mat.inverse()
            d = d_matrix(cf)
            direct = d.transpose() @ kron(Matrix.identity(cf.n), sigma) @ d
            assert scatter_k2(cf.dual, sigma) == direct
        # float samples: the GEMM scatter agrees with the kron product to roundoff
        for m1, m2, n in ((4, 3, 2), (5, 2, 4), (7, 3, 3)):
            s = sample_matrix_normal(m1, m2, n, seed=m1 + n)
            dual = castle(s)
            a = rng.standard_normal((m2, m2))
            sigma = a @ a.T + np.eye(m2)
            d = dual.y.T
            direct = d.T @ kron(np.eye(n), sigma) @ d
            got = scatter_k2(dual, sigma)
            assert got.shape == (s.k, s.k)
            assert np.abs(got - direct).max() <= 1e-12 * np.abs(direct).max()

    def test_symmetric_pd_at_pd_sigma(self):
        # T(Sigma) = D^T (I_n kron Sigma) D with D of full column rank k
        rng = np.random.default_rng(2)
        for m2, k, n in ((3, 3, 2), (2, 2, 2), (2, 3, 3)):
            cf, k_mat = lemma_instance(rng, m2, k, n)
            t = scatter_k2(cf.dual, k_mat.inverse())
            assert t == t.transpose()
            assert t.is_positive_definite()
            tf = scatter_k2(castle(canonical_sample(cf).to_float()), k_mat.to_numpy())
            assert np.array_equal(tf, tf.T)
            assert np.linalg.eigvalsh(tf).min() > 0

    def test_dimension_mismatch(self):
        # Both branches check K2's shape; the exact one must not zip the
        # 2-wide pieces of each row against columns of another length.
        exact = canonicalize(worked_example()).dual
        floats = castle(worked_example().to_float())
        for size in (1, 3):
            with pytest.raises(ValueError, match="K2 must be 2 x 2"):
                scatter_k2(exact, Matrix.identity(size))
            with pytest.raises(ValueError, match="K2 must be 2 x 2"):
                scatter_k2(floats, np.eye(size))


class TestReducedObjective:
    def test_matches_g_objective_on_canonical_data(self):
        rng = np.random.default_rng(9)
        cf, k_mat = lemma_instance(rng, 3, 2, 2)
        s = canonical_sample(cf).to_float()
        k_arr = k_mat.to_numpy()
        expect = g_objective(s, k_arr)
        got = reduced_objective(cf, np.linalg.inv(k_arr))
        assert got == pytest.approx(expect, rel=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        cf, _ = lemma_instance(rng, 3, 2, 2)
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

        s = sample_matrix_normal(3, 2, 3, seed=21)
        cf = canonicalize(exact_copy(s))
        canon = SampleSet(np.hstack([np.eye(cf.m1), cf.C.to_numpy()]), cf.m2)
        est_raw = flipflop(s, tol=1e-12)
        est_canon = flipflop(canon, tol=1e-12)
        assert np.abs(est_raw.k2 - est_canon.k2).max() <= 1e-6

