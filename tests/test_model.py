"""Likelihoods, profile maximizer, g objective, thresholds, sampling."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kronmle.linalg import Matrix, NotPD, SingularMatrix, logdet_pd
from kronmle.model import (
    SampleSet,
    format_sample_set,
    kron_loglik,
    parse_sample_set,
    sample_matrix_normal,
    scatter_k1,
    scatter_k2,
    thresholds,
)
from matrix_helpers import kron
from paper_helpers import g_objective, profile_k1


def random_pd(rng, m, jitter=0.5):
    a = rng.standard_normal((m, m))
    return a @ a.T + jitter * np.eye(m)


def loop_scatter_k2(sample, k2):
    """Reference: sum_i Yi K2 Yi^T, one matrix at a time."""
    out = np.zeros((sample.m1, sample.m1))
    for y in sample.blocks:
        out += y @ k2 @ y.T
    return out


def loop_scatter_k1(sample, k1):
    """Reference: sum_i Yi^T K1 Yi, one matrix at a time."""
    out = np.zeros((sample.m2, sample.m2))
    for y in sample.blocks:
        out += y.T @ k1 @ y
    return out


def block_loop_scatter_k2(sample, k2):
    """Exact reference: sum_i Yi K2 Yi^T, one block at a time over Fractions."""
    out = Matrix.zeros(sample.m1, sample.m1)
    for y in sample.blocks:
        out = out + y @ k2 @ y.transpose()
    return out


def gaussian_loglik(s, k_mat, n):
    """Zero-mean Gaussian log-likelihood n*logdet(K) - n*tr(S K), constants dropped."""
    s, k_mat = np.asarray(s, dtype=float), np.asarray(k_mat, dtype=float)
    return n * logdet_pd(k_mat) - n * float(np.trace(s @ k_mat))


@pytest.fixture
def sample():
    return sample_matrix_normal(4, 3, 5, seed=11)


class TestSampleSet:
    def test_k_property(self):
        s = sample_matrix_normal(3, 2, 2, seed=0)
        assert s.k == 2 * 2 - 3 == 1

    def test_concatenated(self, sample):
        # y is the concatenation [Y1 | ... | Yn]; the blocks are views of it
        assert sample.y.shape == (4, 15)
        assert (sample.m1, sample.m2, sample.n) == (4, 3, 5)
        assert len(sample.blocks) == 5
        assert np.array_equal(sample.y[:, 3:6], sample.blocks[1])
        assert all(np.shares_memory(b, sample.y) for b in sample.blocks)
        e = SampleSet(Matrix([[1, 2, 3, 4]]), 2)
        assert e.blocks == (Matrix([[1, 2]]), Matrix([[3, 4]]))

    def test_from_concatenation(self):
        # the constructor takes the concatenation [Y1 | ... | Yn] itself
        y = np.arange(24.0).reshape(4, 6)
        s = SampleSet(y, 2)
        assert (s.m1, s.m2, s.n, s.k) == (4, 2, 3, 2)
        assert s.y is y
        # a Fortran-ordered array is copied into a C-contiguous one
        f = np.asfortranarray(y)
        s2 = SampleSet(f, 3)
        assert s2.y.flags.c_contiguous and not np.shares_memory(s2.y, f)
        assert np.array_equal(s2.y, y)

    def test_shape_validation(self):
        # the width must split into n blocks of m2 >= 1 columns each
        y = np.arange(24.0).reshape(4, 6)
        for bad in (0, -2, 4, 5):
            with pytest.raises(ValueError):
                SampleSet(y, bad)
        with pytest.raises(ValueError):
            SampleSet(np.zeros((2, 3)), 2)
        with pytest.raises(ValueError):
            SampleSet(Matrix([[1, 2, 3]]), 2)
        with pytest.raises(ValueError):
            SampleSet(np.zeros(6), 2)

    def test_float_input_is_float64(self):
        s = SampleSet(np.arange(24).reshape(4, 6), 3)
        assert s.y.dtype == np.float64
        assert np.array_equal(s.y, np.arange(24.0).reshape(4, 6))
        e = SampleSet(Matrix([[1, 2, 3, 4]]), 2)
        assert e.to_float().y.dtype == np.float64

    def test_parsed_sample_is_not_copied(self, sample, monkeypatch):
        # the sample must hold the very array parse_matrix returned
        import kronmle.model as model

        real_parse = model.parse_matrix
        parsed = []

        def spy(lines, exact=False):
            parsed.append(real_parse(lines, exact=exact))
            return parsed[-1]

        monkeypatch.setattr(model, "parse_matrix", spy)
        s = parse_sample_set(format_sample_set(sample))
        assert len(parsed) == 1 and s.y is parsed[0]
        assert np.array_equal(s.y, sample.y)

    def test_exact_round_trip(self):
        s = SampleSet(Matrix([[1, 2, 5, 6], [3, 4, 7, 8]]), 2)
        assert s.is_exact
        f = s.to_float()
        assert not f.is_exact
        assert np.array_equal(f.blocks[1], [[5.0, 6.0], [7.0, 8.0]])


class TestThresholds:
    def test_equal_dims(self):
        b = thresholds(3, 3)
        assert b.lower == 1 and b.upper == 3

    def test_tall(self):
        b = thresholds(7, 2)
        assert b.lower == Fraction(7, 2)
        assert b.upper == math.floor(Fraction(7, 2) + Fraction(2, 7)) + 1 == 4

    def test_scalar(self):
        b = thresholds(1, 1)
        assert b.lower == 1 and b.upper == 3

    def test_lower_le_upper_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m1 = int(rng.integers(1, 30))
            m2 = int(rng.integers(1, 30))
            b = thresholds(m1, m2)
            assert b.lower <= b.upper

    def test_positive_required(self):
        with pytest.raises(ValueError):
            thresholds(0, 2)


class TestScatterKernels:
    # Fixed before running: the batched GEMMs sum the n*m2 (or n*m1) terms
    # in another order than the loop, so they agree to a few hundred ulps
    # of the largest entry, far inside this bound.
    RTOL = 1e-12

    def check(self, s, rng):
        k1 = random_pd(rng, s.m1)
        k2 = random_pd(rng, s.m2)
        for batched, loop, k in (
            (scatter_k2, loop_scatter_k2, k2),
            (scatter_k1, loop_scatter_k1, k1),
        ):
            got, ref = batched(s, k), loop(s, k)
            assert np.array_equal(got, got.T)
            assert np.abs(got - ref).max() <= self.RTOL * np.abs(ref).max()

    @pytest.mark.parametrize(
        "m1, m2, n", [(4, 3, 5), (6, 4, 1), (5, 1, 7), (1, 4, 3), (1, 1, 1), (30, 30, 3)]
    )
    def test_batched_matches_loop(self, m1, m2, n):
        rng = np.random.default_rng(m1 * 100 + m2 * 10 + n)
        self.check(sample_matrix_normal(m1, m2, n, seed=n), rng)

    def test_non_contiguous_column_views(self):
        # every other column of a Fortran-ordered array: a strided view,
        # which the sample copies into a C-contiguous concatenation
        rng = np.random.default_rng(3)
        big = np.asfortranarray(rng.standard_normal((5, 2 * 4 * 3)))[:, ::2]
        assert not (big.flags.c_contiguous or big.flags.f_contiguous)
        s = SampleSet(big, 3)
        assert s.y.flags.c_contiguous and np.array_equal(s.y, big)
        self.check(s, rng)

    def test_parsed_sample_views(self, sample):
        # parse_sample_set hands out column slices of one parsed array
        back = parse_sample_set(format_sample_set(sample))
        assert not back.blocks[1].flags.c_contiguous
        self.check(back, np.random.default_rng(4))

    def test_exact_sample(self):
        s = SampleSet(Matrix([[1, 2, 0, -1], [3, Fraction(1, 2), 2, 5]]), 2)
        ref = loop_scatter_k2(s.to_float(), np.eye(2))
        assert np.abs(scatter_k2(s, np.eye(2)) - ref).max() <= self.RTOL * np.abs(ref).max()
        # A Matrix K2 takes the exact branch: Y (I_n kron K2) Y^T over rationals.
        k2 = Matrix([[2, Fraction(1, 3)], [Fraction(1, 3), 1]])
        y = s.y
        assert scatter_k2(s, k2) == y @ kron(Matrix.identity(2), k2) @ y.transpose()


# Rationals with mixed denominators, zero and negative entries included.
RATIONALS = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


@st.composite
def exact_scatter_cases(draw):
    """An exact sample (sometimes all-integer) and a K2 that need not be symmetric."""
    m1, m2, n = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entries = draw(st.sampled_from([RATIONALS, st.integers(-30, 30)]))
    y = Matrix([[draw(entries) for _ in range(n * m2)] for _ in range(m1)])
    k2 = Matrix([[draw(RATIONALS) for _ in range(m2)] for _ in range(m2)])
    return SampleSet(y, m2), k2


class TestExactScatter:
    @given(exact_scatter_cases())
    @settings(max_examples=200, deadline=None)
    # n = 1; m2 = 1; an all-integer sample with a non-symmetric K2 of mixed
    # denominators; a mixed-denominator sample with zero rows and entries.
    @example((SampleSet(Matrix([[Fraction(1, 2), -3], [0, Fraction(5, 7)]]), 2),
              Matrix([[Fraction(1, 3), -1], [Fraction(2, 5), 0]])))
    @example((SampleSet(Matrix([[Fraction(-2, 3), 4, 0], [1, Fraction(1, 6), -5]]), 1),
              Matrix([[Fraction(-7, 4)]])))
    @example((SampleSet(Matrix([[3, -1, 0, 2], [0, 5, -4, 1], [7, 0, 0, -6]]), 2),
              Matrix([[Fraction(3, 4), Fraction(-1, 6)], [Fraction(5, 9), 2]])))
    @example((SampleSet(Matrix([[0, 0, 0, 0], [Fraction(1, 4), 0, Fraction(-3, 10), 1]]), 2),
              Matrix([[0, Fraction(1, 8)], [-1, Fraction(2, 3)]])))
    def test_matches_block_loop(self, case):
        sample, k2 = case
        assert scatter_k2(sample, k2) == block_loop_scatter_k2(sample, k2)


class TestGaussianLoglik:
    def test_identity(self):
        for m in (1, 2, 5):
            assert gaussian_loglik(np.eye(m), np.eye(m), 1) == pytest.approx(-m)

    def test_hand_value(self):
        val = gaussian_loglik(np.eye(2), np.diag([2.0, 0.5]), 1)
        assert val == pytest.approx(-2.5)

    def test_linear_in_n(self):
        s = np.array([[2.0, 0.3], [0.3, 1.0]])
        k = np.array([[1.5, -0.2], [-0.2, 0.8]])
        assert gaussian_loglik(s, k, 4) == pytest.approx(2 * gaussian_loglik(s, k, 2))

    def test_not_pd_raises(self):
        with pytest.raises(NotPD):
            gaussian_loglik(np.eye(2), np.diag([1.0, -1.0]), 1)


class TestKronLoglik:
    def test_vectorization_oracle(self, sample):
        rng = np.random.default_rng(4)
        k1 = random_pd(rng, 4)
        k2 = random_pd(rng, 3)
        # column-major vectorization has covariance kron(Sigma2, Sigma1)
        vecs = [y.flatten(order="F") for y in sample.blocks]
        s = sum(np.outer(v, v) for v in vecs) / sample.n
        expect = gaussian_loglik(s, kron(k2, k1), sample.n)
        assert kron_loglik(sample, k1, k2) == pytest.approx(expect, rel=1e-9)

    def test_scale_pairing(self, sample):
        rng = np.random.default_rng(5)
        k1 = random_pd(rng, 4)
        k2 = random_pd(rng, 3)
        assert kron_loglik(sample, 3.0 * k1, k2 / 3.0) == pytest.approx(
            kron_loglik(sample, k1, k2), rel=1e-9
        )

    def test_zero_data(self):
        s = SampleSet(np.zeros((2, 6)), 2)
        k1 = np.diag([2.0, 1.0])
        k2 = np.diag([1.0, 4.0])
        expect = 3 * 2 * np.log(2.0) + 3 * 2 * np.log(4.0)
        assert kron_loglik(s, k1, k2) == pytest.approx(expect)

    def test_dim_mismatch(self, sample):
        with pytest.raises(ValueError):
            kron_loglik(sample, np.eye(3), np.eye(3))


class TestProfileK1:
    def test_scalar_case(self):
        s = SampleSet(np.array([[1.0]]), 1)
        assert float(profile_k1(s, np.array([[1.0]]))[0, 0]) == pytest.approx(1.0)

    def test_stationarity(self, sample):
        rng = np.random.default_rng(6)
        k2 = random_pd(rng, 3)
        k1_hat = profile_k1(sample, k2)
        # gradient of the likelihood in K1: n*m2*K1^-1 - sum_i Yi K2 Yi^T
        grad = sample.n * sample.m2 * np.linalg.inv(k1_hat) - scatter_k2(sample, k2)
        assert np.abs(grad).max() <= 1e-8 * max(1.0, np.abs(scatter_k2(sample, k2)).max())

    def test_random_probe_maximality(self, sample):
        rng = np.random.default_rng(7)
        k2 = random_pd(rng, 3)
        best = kron_loglik(sample, profile_k1(sample, k2), k2)
        for _ in range(100):
            probe = random_pd(rng, 4)
            assert kron_loglik(sample, probe, k2) <= best + 1e-9

    def test_requires_enough_columns(self):
        s = sample_matrix_normal(5, 2, 2, seed=1)
        with pytest.raises(ValueError):
            profile_k1(s, np.eye(2))

    def test_degenerate_scatter(self):
        s = SampleSet(np.zeros((2, 4)), 2)
        with pytest.raises(SingularMatrix):
            profile_k1(s, np.eye(2))


class TestGObjective:
    def test_scale_invariance(self, sample):
        rng = np.random.default_rng(8)
        for c in (0.1, 1.0, 7.0, 10.0):
            k2 = random_pd(rng, 3)
            assert abs(g_objective(sample, c * k2) - g_objective(sample, k2)) <= 1e-9

    def test_left_action_shift(self, sample):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((4, 4)) + 2 * np.eye(4)
        moved = SampleSet(a @ sample.y, 3)
        k2 = random_pd(rng, 3)
        shift = g_objective(moved, k2) - g_objective(sample, k2)
        _, logabsdet = np.linalg.slogdet(a)
        # the m2 multiplier in g scales the additive constant as well
        assert shift == pytest.approx(2 * sample.m2 * logabsdet, abs=1e-9)
        # the shift does not depend on K2
        k2b = random_pd(rng, 3)
        shift_b = g_objective(moved, k2b) - g_objective(sample, k2b)
        assert shift_b == pytest.approx(shift, abs=1e-9)

    def test_profile_identity(self, sample):
        # kron_loglik at the profile maximizer differs from -n*g by a
        # constant that does not depend on K2
        rng = np.random.default_rng(10)

        def profiled(k2):
            return kron_loglik(sample, profile_k1(sample, k2), k2)

        k2a = random_pd(rng, 3)
        k2b = random_pd(rng, 3)
        const_a = profiled(k2a) + sample.n * g_objective(sample, k2a)
        const_b = profiled(k2b) + sample.n * g_objective(sample, k2b)
        assert const_a == pytest.approx(const_b, rel=1e-9)

    def test_singular_scatter_raises(self):
        s = SampleSet(np.zeros((2, 4)), 2)
        with pytest.raises(SingularMatrix):
            g_objective(s, np.eye(2))


class TestSampling:
    def test_determinism(self):
        a = sample_matrix_normal(3, 2, 4, seed=42)
        b = sample_matrix_normal(3, 2, 4, seed=42)
        assert np.array_equal(a.y, b.y)

    def test_draws_pinned(self):
        # Block by block, each block's standard normals in row order.
        s = sample_matrix_normal(3, 2, 2, seed=0)
        assert s.y[0].tolist() == [
            0.1257302210933933, -0.1321048632913019, 1.3040000451301372, 0.9470809631292422
        ]

    def test_identity_variance(self):
        n = 4000
        s = sample_matrix_normal(2, 2, n, seed=0)
        flat = np.concatenate([y.flatten() for y in s.blocks])
        assert abs(flat.var() - 1.0) <= 5 / np.sqrt(len(flat))

    def test_scaled_variance(self):
        n = 4000
        a = 2 * np.eye(2)
        s = sample_matrix_normal(2, 2, n, seed=0)
        flat = np.concatenate([(a @ y).flatten() for y in s.blocks])
        assert abs(flat.var() - 4.0) <= 20 / np.sqrt(len(flat))

    def test_covariance_factors(self):
        # covariance of A Z B is kron(B^T B, A A^T) for vec in column order
        rng = np.random.default_rng(12)
        a = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        b = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        n = 60000
        s = sample_matrix_normal(2, 2, n, seed=3)
        vecs = np.stack([(a @ z @ b).flatten(order="F") for z in s.blocks])
        emp = vecs.T @ vecs / n
        expect = np.kron(b.T @ b, a @ a.T)
        assert np.abs(emp - expect).max() <= 0.15 * np.abs(expect).max()


class TestSerialization:
    def test_round_trip_float(self, sample):
        text = format_sample_set(sample)
        assert text.splitlines()[0] == "4 3 5"
        back = parse_sample_set(text)
        for ya, yb in zip(back.blocks, sample.blocks):
            assert np.allclose(ya, yb)

    def test_round_trip_exact(self):
        s = SampleSet(Matrix([[1, Fraction(1, 2), 3, 4]]), 2)
        back = parse_sample_set(format_sample_set(s), exact=True)
        assert back.y == s.y

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            parse_sample_set("2 2 2\n2 2\n1 0\n0 1\n")
