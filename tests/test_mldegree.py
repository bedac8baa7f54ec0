"""Likelihood-equation solution counting and the constructed score systems."""

import json
from fractions import Fraction
from functools import reduce
from math import comb, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronmle import cli, groebner, mldegree, poly
from kronmle.canonical import descent
from kronmle.groebner import PolyIdeal, buchberger, dim_and_degree, normal_form, standard_monomials
from kronmle.linalg import Matrix
from kronmle.mldegree import (
    PRIMES,
    PROP43_UPPER,
    SCORE_VARS,
    PrimesExhausted,
    b_zero_quadratic,
    count_solutions_off_locus,
    likelihood_equations_m2_2,
    ml_degree,
    ml_multiplicity_prop43,
    prop43_system,
    random_integer_sample,
    score_polynomials,
)
from kronmle.poly import ORDER_KEYS, Poly
from kronmle.solvers import exact_mle_k1
from count_oracle import PRIMES as ORACLE_PRIMES
from count_oracle import (
    divide_out,
    ml_degree_by_buchberger,
    modular_stable_rank,
    multiplication_matrix_mod,
    prop43_pair,
    residue_ring,
    score_system,
    stable_rank_mod,
    terms_mod,
)
from matrix_helpers import column
from paper_helpers import evaluate
from test_acceptance import TABLE_CELLS


def xy_ring():
    vars = ("x", "y")
    return Poly.variable(vars, "x"), Poly.variable(vars, "y")


# The Fraction route that the Buchberger count used before its rank step
# moved to word-size primes; it stays here as the oracle of that oracle.


def multiplication_matrix(f, gb, monos):
    """Matrix of multiplication by f on the residue ring, in the given basis."""
    index = {m: i for i, m in enumerate(monos)}
    d = len(monos)
    mat = [[0] * d for _ in range(d)]
    for j, mono in enumerate(monos):
        shifted = Poly(
            f.vars,
            {tuple(a + b for a, b in zip(e, mono)): c for e, c in f.terms.items()},
        )
        nf = normal_form(shifted, list(gb.basis), gb.order)
        for e, c in nf.terms.items():
            mat[index[e]][j] = c
    return Matrix(mat)


def fraction_rank(mat):
    """Exact rank by Gaussian elimination over the rationals.

    Kept on Fraction rather than the Bareiss kernel of linalg: these
    matrices are dense with mixed denominators of thousands of bits, and
    the fraction-free route was measured 1.5-4x slower on them.
    """
    a = [list(row) for row in mat.data]
    nrows = len(a)
    ncols = len(a[0])
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        pv = a[row][col]
        a[row] = [x / pv for x in a[row]]
        for r in range(nrows):
            if r != row and a[r][col] != 0:
                fac = a[r][col]
                a[r] = [x - fac * y for x, y in zip(a[r], a[row])]
        row += 1
        if row == nrows:
            break
    return row


# The division loop that built the modular multiplication matrix one
# column at a time, reducing f times each standard monomial from scratch;
# it stays here as the oracle for the variable-matrix route.


def column_by_column_matrix_mod(f, basis, monos, key, prime):
    leads = [(max(g, key=key), g) for g in basis]

    def tail(exp):
        for lexp, g in leads:
            if all(x <= y for x, y in zip(lexp, exp)):
                shift = tuple(a - b for a, b in zip(exp, lexp))
                return [
                    (tuple(a + b for a, b in zip(gexp, shift)), gc)
                    for gexp, gc in g.items()
                    if gexp != lexp
                ]
        return None

    index = {m: i for i, m in enumerate(monos)}
    d = len(monos)
    mat = [[0] * d for _ in range(d)]
    for j, mono in enumerate(monos):
        work = {tuple(a + b for a, b in zip(e, mono)): c for e, c in f.items()}
        while work:
            exp = max(work, key=key)
            coeff = work.pop(exp)
            terms = tail(exp)
            if terms is None:
                mat[index[exp]][j] = coeff
                continue
            for tgt, gc in terms:
                s = (work.get(tgt, 0) - coeff * gc) % prime
                if s:
                    work[tgt] = s
                else:
                    work.pop(tgt, None)
    return mat


# The cells of the benchmark's mldegree rectangles (perfbench/spec.json).
BENCHMARK_CELLS = [
    (2, 3), (2, 4), (3, 3), (3, 4), (2, 5), (4, 3),
    (5, 3), (5, 4), (6, 4), (7, 4), (9, 5), (4, 4),
]


def per_block_grid(sample):
    """sum_i Yi K Yi^T on the k11 = 1 chart, one block and one entry at a time."""
    one = Poly.constant(SCORE_VARS, 1)
    k12 = Poly.variable(SCORE_VARS, "k12")
    k22 = Poly.variable(SCORE_VARS, "k22")
    k_chart = [[one, k12], [k12, k22]]
    m1 = sample.m1
    acc = [[Poly.constant(SCORE_VARS, 0)] * m1 for _ in range(m1)]
    for y in sample.blocks:
        for i in range(m1):
            for j in range(m1):
                for a in range(2):
                    for b in range(2):
                        coeff = y[i, a] * y[j, b]
                        if coeff != 0:
                            acc[i][j] = acc[i][j] + coeff * k_chart[a][b]
    return acc


def fraction_stable_rank(mat):
    """Rank of high powers of mat; counts components where f is invertible."""
    r_prev = fraction_rank(mat)
    if r_prev in (0, mat.rows):
        return r_prev
    power = mat
    while True:
        power = power @ mat
        r = fraction_rank(power)
        if r == r_prev:
            return r
        r_prev = r


def rank_inputs(m1, n, seed):
    """The (f, basis, standard monomials) that the Buchberger oracle ranks."""
    return residue_ring(*score_system(m1, n, seed))


def both_matrices_mod(f, gb, monos, prime):
    """The multiplication matrix mod prime by the variable matrices and by
    the column-by-column oracle."""
    basis = [terms_mod(g, prime) for g in gb.basis]
    f_mod = terms_mod(f, prime)
    args = (f_mod, basis, monos, ORDER_KEYS[gb.order], prime)
    return multiplication_matrix_mod(*args), column_by_column_matrix_mod(*args)


def refuse_q(monkeypatch):
    """Make every route over Q raise: the PRS gcd, exact division, the
    polynomial determinant, the score Polys and Buchberger."""
    def refuse(*args, **kwargs):
        raise AssertionError("a count went back to Q")

    for module, name in ((poly, "poly_gcd"), (poly, "exact_divide"), (poly, "poly_det"),
                         (mldegree, "score_polynomials"), (groebner, "buchberger")):
        monkeypatch.setattr(module, name, refuse)


# The cells with m1, n <= 9 and n <= m1 + 6, and those of them that
# ml_degree decides by shape: n*m2 <= m1, and m1 = m2 = n = 2.
GRID_CELLS = [(m1, n) for m1 in range(1, 10) for n in range(1, 10) if n <= m1 + 6]
RULE_CELLS = [(m1, n) for m1, n in GRID_CELLS if 2 * n <= m1] + [(2, 2)]


def spy_on_primes(monkeypatch):
    """Record the prime of every trial whose images exist."""
    used = []
    real = mldegree._sheared_count

    def spy(p, q, f, prime, shear):
        used.append(prime)
        return real(p, q, f, prime, shear)

    monkeypatch.setattr(mldegree, "_sheared_count", spy)
    return used


class TestRandomSample:
    def test_entries_in_range(self):
        s = random_integer_sample(4, 3, seed=0)
        for y in s.blocks:
            for i in range(4):
                for j in range(2):
                    assert 0 <= y[i, j] <= 16
                    assert y[i, j].denominator == 1

    def test_deterministic(self):
        a = random_integer_sample(3, 2, seed=5)
        b = random_integer_sample(3, 2, seed=5)
        assert a.y == b.y

    def test_draws_pinned(self):
        # The pinned ML-degree cells depend on these draws: block by block,
        # each block's rows in order.
        s = random_integer_sample(3, 2, seed=5)
        assert s.y == Matrix([[11, 13, 10, 4], [0, 13, 16, 0], [7, 8, 4, 6]])


class TestScorePolynomials:
    def test_requires_exact_m2_2(self):
        s = random_integer_sample(3, 2, seed=1)
        with pytest.raises(ValueError):
            score_polynomials(s.to_float())

    @pytest.mark.parametrize("m1,n", BENCHMARK_CELLS)
    def test_grid_matches_per_block_loop(self, monkeypatch, m1, n):
        grids = []
        real = poly.poly_det

        def spy(grid):
            grids.append(grid)
            return real(grid)

        monkeypatch.setattr(poly, "poly_det", spy)
        s = random_integer_sample(m1, n, seed=0)
        score_polynomials(s)
        assert grids[0] == per_block_grid(s)

    def test_g2_is_chart_determinant(self):
        s = random_integer_sample(3, 2, seed=1)
        _, g2, _ = score_polynomials(s)
        k12 = Poly.variable(SCORE_VARS, "k12")
        k22 = Poly.variable(SCORE_VARS, "k22")
        assert g2 == k22 - k12**2

    def test_degree_bookkeeping(self):
        for m1, n in ((2, 3), (3, 2), (4, 3)):
            s = random_integer_sample(m1, n, seed=2)
            g1, g2, gens = score_polynomials(s)
            assert g1.total_degree() <= m1
            for g in gens:
                assert g.total_degree() <= 2 * m1 - 1

    def test_g1_matches_numeric_determinant(self):
        s = random_integer_sample(3, 2, seed=3)
        g1, _, _ = score_polynomials(s)
        pt = {"k12": Fraction(1, 3), "k22": Fraction(7, 2)}
        k = Matrix(
            [[1, pt["k12"]], [pt["k12"], pt["k22"]]]
        )
        acc = Matrix.zeros(3, 3)
        for y in s.blocks:
            acc = acc + y @ k @ y.transpose()
        assert evaluate(g1, pt) == acc.det()

    def test_generators_vanish_at_exact_mle(self):
        # k = 1 instances have a rational MLE; on the k11 = 1 chart it must
        # solve the score equations exactly
        for m1, n in ((3, 2), (5, 3)):
            s = random_integer_sample(m1, n, seed=4)
            _, _, gens = score_polynomials(s)
            est = exact_mle_k1(s)
            scale = est.k2_exact[0, 0]
            pt = {
                "k12": est.k2_exact[0, 1] / scale,
                "k22": est.k2_exact[1, 1] / scale,
            }
            for g in gens:
                assert evaluate(g, pt) == 0


class TestCountSolutions:
    def test_simple_localized_count(self):
        x, y = xy_ring()
        # solutions (0, 0) and (1, 0); x != 0 keeps one of them, which has
        # the y of the locus point: only the shear tells them apart
        assert count_solutions_off_locus((x * (x - 1), y), (x,)) == 1

    def test_counts_with_multiplicity(self):
        x, y = xy_ring()
        assert count_solutions_off_locus((x**2 * (x - 1), y), (x - 5,)) == 3

    def test_common_factor_divides_f(self):
        x, y = xy_ring()
        # The shared factor (x - 1) lies on the locus f = x - 1, but no
        # count splits it off: the resultant vanishes on every prime.
        gens = ((x - 1) * x, (x - 1) * (y - 2))
        with pytest.raises(PrimesExhausted, match="shares a factor"):
            count_solutions_off_locus(gens, (x - 1, y))

    def test_common_factor_off_f_raises(self):
        x, y = xy_ring()
        # the line x = 1 survives localization at y
        gens = ((x - 1) * x, (x - 1) * (y - 2))
        with pytest.raises(PrimesExhausted, match="shares a factor"):
            count_solutions_off_locus(gens, (y,))

    def test_positive_dimensional_reports_zero(self):
        # At (2,2) the saturated likelihood ideal is not zero-dimensional
        # (its critical points form curves), and ml_degree reports 0.
        for seed in (0, 1, 2):
            zero_dim, degree = dim_and_degree(buchberger(likelihood_equations_m2_2(2, 2, seed)))
            assert not zero_dim and degree is None
            assert ml_degree(2, 2, seed) == 0

    def test_zero_generator(self):
        x, y = xy_ring()
        zero = Poly.constant(("x", "y"), 0)
        assert count_solutions_off_locus((zero, y), (x,)) == 0

    def test_each_factor_localizes(self):
        x, y = xy_ring()
        # solutions (0, 0), (1, 0), (2, 0) and (3, 0): each factor removes one
        gens = (x * (x - 1) * (x - 2) * (x - 3), y)
        assert count_solutions_off_locus(gens, ()) == 4
        assert count_solutions_off_locus(gens, (x, x - 2)) == 2
        assert count_solutions_off_locus(gens, (x * (x - 2),)) == 2
        assert count_solutions_off_locus(gens, (x - 7, Poly.constant(("x", "y"), 3))) == 4


def _oracle_cells():
    """The cells compared with the Buchberger oracle, each once."""
    cells = [(m1, n, seed) for m1, n, _ in TABLE_CELLS for seed in (0, 1, 2)]
    cells += [(m1, n, seed) for m1, n in ((7, 4), (9, 5)) for seed in (0, 1, 2)]
    cells += [(m1, n, 0) for m1, n in BENCHMARK_CELLS + [(5, 5), (7, 6)]]
    return list(dict.fromkeys(cells))


class TestCertifiedRoute:
    # The resultant mod primes against Buchberger over Q: every pinned cell
    # and the benchmark's (7,4) and (9,5) at seeds 0-2, the other benchmark
    # cells and (5,5), (7,6) at seed 0.
    @pytest.mark.parametrize("m1,n,seed", _oracle_cells())
    def test_matches_prs_route(self, m1, n, seed):
        assert ml_degree(m1, n, seed) == ml_degree_by_buchberger(m1, n, seed)

    def test_benchmark_cells_skip_fallback(self, monkeypatch):
        refuse_q(monkeypatch)
        for m1, n in BENCHMARK_CELLS:
            ml_degree(m1, n, seed=0)

    def test_divide_out_every_power(self):
        x, y = xy_ring()
        g = x - y**2
        assert divide_out(g**3 * (x + 1), g) == x + 1
        assert divide_out(x + 1, g) == x + 1
        zero = Poly.constant(("x", "y"), 0)
        assert divide_out(zero, g) == zero

    def test_coprime_pair_skips_fallback(self, monkeypatch):
        x, y = xy_ring()
        # Small primes do for a pair this small, and nothing runs over Q.
        monkeypatch.setattr(mldegree, "PRIMES", (5, 7, 11))
        refuse_q(monkeypatch)
        assert count_solutions_off_locus((x * (x - 1), y), (x,)) == 1

    def test_degenerate_shapes_count_zero(self, monkeypatch):
        # Each shape rule of ml_degree returns 0 before any data are drawn
        # or counted, and the Buchberger oracle agrees on the drawn data.
        assert len(RULE_CELLS) == 21
        seeds = {cell: range(6) if cell == (2, 2) else range(3) for cell in RULE_CELLS}
        oracle = {(m1, n, seed): ml_degree_by_buchberger(m1, n, seed) for m1, n in RULE_CELLS for seed in seeds[m1, n]}
        assert set(oracle.values()) == {0}

        def refuse(*args):
            raise AssertionError("a rule cell was drawn or counted")

        monkeypatch.setattr(mldegree, "_integer_data", refuse)
        monkeypatch.setattr(mldegree, "_sheared_count", refuse)
        for m1, n, seed in oracle:
            assert ml_degree(m1, n, seed) == 0

    def test_no_buchberger_on_the_count(self, monkeypatch):
        # Every grid cell at seeds 0-2, the benchmark and rule cells among
        # them, and the benchmark's five multiplicity systems count mod
        # primes alone, and none raises PrimesExhausted.
        assert set(BENCHMARK_CELLS + RULE_CELLS) <= set(GRID_CELLS)
        assert len(GRID_CELLS) * 3 - len(RULE_CELLS) * 3 == 171
        refuse_q(monkeypatch)
        for m1, n in GRID_CELLS:
            for seed in (0, 1, 2):
                ml_degree(m1, n, seed)
        for case_id, m2, k in [("one", 3, 2), ("one", 4, 2), ("two", 2, 2), ("two", 2, 3), ("two", 2, 4)]:
            ml_multiplicity_prop43(m2, k, case_id)


BAD_PRIME = PRIMES[0]


class TestModularCount:
    # The Buchberger oracle's modular rank against its Fraction rank: both
    # share Buchberger, so agreement here does not confirm a cell.
    @pytest.mark.parametrize(
        "m1,n,seed",
        [(m1, n, seed) for m1, n, _ in TABLE_CELLS[:10] for seed in (1, 2)]
        + [(m1, n, 0) for m1, n in BENCHMARK_CELLS],
    )
    def test_matches_fraction_count(self, m1, n, seed):
        f, gb, monos = rank_inputs(m1, n, seed)
        got = modular_stable_rank(f, gb, monos)
        assert got == fraction_stable_rank(multiplication_matrix(f, gb, monos))
        assert got == ml_degree(m1, n, seed)

    def test_basis_denominator_skips_prime(self, monkeypatch):
        x, y = xy_ring()
        used = spy_on_primes(monkeypatch)
        # roots x = 0 and x = 1/P: the pair has no image mod P
        gens = (x * (x - Fraction(1, BAD_PRIME)), y)
        assert count_solutions_off_locus(gens, (x,)) == 1
        assert used and BAD_PRIME not in used

    def test_f_denominator_skips_prime(self, monkeypatch):
        x, y = xy_ring()
        used = spy_on_primes(monkeypatch)
        gens = (x**2 * (x - 1), y)
        assert count_solutions_off_locus(gens, (x - Fraction(1, BAD_PRIME),)) == 3
        assert used and BAD_PRIME not in used

    def test_unlucky_prime_is_outvoted(self, monkeypatch):
        x, y = xy_ring()
        # f = x - 5 is x mod 5, which vanishes at the root x = 0
        gens = (x * (x - 1), y)
        monkeypatch.setattr(mldegree, "PRIMES", (5, 11, 17))
        used = spy_on_primes(monkeypatch)
        assert count_solutions_off_locus(gens, (x - 5,)) == 2
        assert used == [5, 11, 17]

    def test_unlucky_shear_is_outvoted(self, monkeypatch):
        x, y = xy_ring()
        # At 7 the shear is 4: the zero of p + 4q on f = 0 has y - 4x = 3,
        # as the solution (1, 0) does, so that solution is divided out too.
        gens = (x * (x - 1), y)
        monkeypatch.setattr(mldegree, "PRIMES", (7, 11, 17))
        counts = []
        real = mldegree._sheared_count
        monkeypatch.setattr(mldegree, "_sheared_count", lambda *a: counts.append(real(*a)) or counts[-1])
        assert count_solutions_off_locus(gens, (x - 5,)) == 2
        assert counts == [1, 2, 2]

    def test_no_agreement_raises(self, monkeypatch):
        x, y = xy_ring()
        monkeypatch.setattr(mldegree, "PRIMES", (5, 11))
        with pytest.raises(PrimesExhausted):
            count_solutions_off_locus((x * (x - 1), y), (x - 5,))

    def test_all_primes_bad_raises(self, monkeypatch):
        x, y = xy_ring()
        monkeypatch.setattr(mldegree, "PRIMES", (BAD_PRIME,))
        gens = (x * (x - Fraction(1, BAD_PRIME)), y)
        with pytest.raises(PrimesExhausted):
            count_solutions_off_locus(gens, (x,))

    def test_vanishing_leading_coefficient_skips_trial(self, monkeypatch):
        x, y = xy_ring()
        # The shear at 5 and at 11 is 1, where the top part x*(x - y) of the
        # first polynomial vanishes at (1, c); only 7 and 13 count.
        monkeypatch.setattr(mldegree, "PRIMES", (5, 7, 11, 13))
        assert [mldegree._shear(p) for p in (5, 11)] == [1, 1]
        used = spy_on_primes(monkeypatch)
        counts = []
        real = mldegree._sheared_count
        monkeypatch.setattr(mldegree, "_sheared_count", lambda *a: counts.append(real(*a)) or counts[-1])
        gens = (x * (x - y) + 1, y - 2)
        assert count_solutions_off_locus(gens, ()) == 2
        assert used == [5, 7, 11, 13] and counts == [None, 2, None, 2]
        # The same for a locus factor: x - y at (1, 1).
        used.clear(), counts.clear()
        assert count_solutions_off_locus((x * x - 2, y - 1), (x - y,)) == 2
        assert used == [5, 7, 11, 13] and counts == [None, 2, None, 2]


THREE_POINTS = [(1, 2), (3, 5), (-2, 7)]


def three_point_basis():
    """Reduced grevlex basis of THREE_POINTS in (k12, k22), built by
    interpolation: each degree-2 monomial minus the combination of 1, k12,
    k22 that agrees with it on the three points.  The standard monomials
    are 1, k22 and k12, so k12 is reached from 1 only through k12 and k22
    only through k22."""
    vander = Matrix([[1, a, b] for a, b in THREE_POINTS])
    one = Poly.constant(SCORE_VARS, 1)
    k12 = Poly.variable(SCORE_VARS, "k12")
    k22 = Poly.variable(SCORE_VARS, "k22")
    gens = []
    for mono in (k12 * k12, k12 * k22, k22 * k22):
        values = column([evaluate(mono, {"k12": a, "k22": b}) for a, b in THREE_POINTS])
        c = vander.solve(values)
        gens.append(mono - c[0, 0] * one - c[1, 0] * k12 - c[2, 0] * k22)
    return buchberger(PolyIdeal(generators=tuple(gens)), order="grevlex")


class TestMultiplicationMatrixMod:
    # The variable-matrix route must give the column-by-column matrix
    # entry for entry, at the two primes a count usually needs.
    @pytest.mark.parametrize(
        "m1,n,seed",
        [(m1, n, seed) for m1, n in BENCHMARK_CELLS for seed in (0, 1, 2)]
        + [(5, 5, 0), (6, 6, 0)],
    )
    def test_matches_column_by_column(self, m1, n, seed):
        f, gb, monos = rank_inputs(m1, n, seed)
        for prime in ORACLE_PRIMES[:2]:
            got, expect = both_matrices_mod(f, gb, monos, prime)
            assert got == expect

    def test_monomials_reached_through_one_variable(self):
        gb = three_point_basis()
        assert all(evaluate(g, {"k12": a, "k22": b}) == 0 for g in gb.basis for a, b in THREE_POINTS)
        monos = standard_monomials(gb)
        assert sorted(monos) == [(0, 0), (0, 1), (1, 0)]
        k12 = Poly.variable(SCORE_VARS, "k12")
        k22 = Poly.variable(SCORE_VARS, "k22")
        f = 2 + 3 * k12 - 5 * k22 + 7 * k12 * k22 + k12 * k12 * k22 - k22**3
        for prime in ORACLE_PRIMES[:2]:
            got, expect = both_matrices_mod(f, gb, monos, prime)
            assert got == expect
            # The values of the standard monomials at a point form a left
            # eigenvector, with eigenvalue f there: NF(f m)(p) = f(p) m(p).
            for a, b in THREE_POINTS:
                values = [a**i * b**j for i, j in monos]
                at_p = evaluate(f, {"k12": a, "k22": b})
                for j in range(len(monos)):
                    left = sum(v * got[i][j] for i, v in enumerate(values))
                    assert (left - at_p * values[j]) % prime == 0


small_ints = st.integers(min_value=-4, max_value=4)


@st.composite
def square_integer_matrices(draw):
    """Integer matrices whose rank may fall with each power."""
    n = draw(st.integers(min_value=1, max_value=6))
    kind = draw(st.sampled_from(["random", "low_rank_product", "jordan"]))
    if kind == "random":
        return draw(st.lists(st.lists(small_ints, min_size=n, max_size=n), min_size=n, max_size=n))
    if kind == "low_rank_product":
        r = draw(st.integers(min_value=0, max_value=n))
        a = draw(st.lists(st.lists(small_ints, min_size=r, max_size=r), min_size=n, max_size=n))
        b = draw(st.lists(st.lists(small_ints, min_size=n, max_size=n), min_size=r, max_size=r))
        return [[sum(a[i][t] * b[t][j] for t in range(r)) for j in range(n)] for i in range(n)]
    # A nilpotent Jordan block of size k (rank k - 1, k - 2, ..., 0 along
    # the powers) beside a random block, conjugated by a unimodular S.
    k = draw(st.integers(min_value=1, max_value=n))
    rest = draw(st.lists(st.lists(small_ints, min_size=n - k, max_size=n - k), min_size=n - k, max_size=n - k))
    j = [[0] * n for _ in range(n)]
    for i in range(k - 1):
        j[i][i + 1] = 1
    for i in range(n - k):
        for c in range(n - k):
            j[k + i][k + c] = rest[i][c]
    upper = draw(st.lists(small_ints, min_size=n * n, max_size=n * n))
    s = Matrix([[1 if r == c else (upper[r * n + c] if c > r else 0) for c in range(n)] for r in range(n)])
    conj = s @ Matrix(j) @ s.inverse()
    return [[int(x) for x in row] for row in conj.data]


class TestStableRankMod:
    @given(square_integer_matrices())
    @settings(max_examples=80, deadline=None)
    def test_matches_fraction_stable_rank(self, rows):
        expect = fraction_stable_rank(Matrix(rows))
        for prime in ORACLE_PRIMES[:2]:
            assert stable_rank_mod([[x % prime for x in row] for row in rows], prime) == expect

    def test_nilpotent_block_ranks(self):
        # J_3 has ranks 2, 1, 0 along its powers; beside the identity the
        # stable rank is the identity's size.
        rows = [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
        assert stable_rank_mod(rows, ORACLE_PRIMES[0]) == 2
        assert fraction_stable_rank(Matrix(rows)) == 2


def _pad(a, size):
    out = np.zeros((size, size), dtype=np.int64)
    out[: a.shape[0], : a.shape[1]] = a
    return out


def sylvester_resultant(a, b, prime):
    """Res(a, b) mod prime as the determinant of the Sylvester matrix, for
    coefficient lists lowest first."""
    da, db = len(a) - 1, len(b) - 1
    rows = [[0] * i + a[::-1] + [0] * (db - 1 - i) for i in range(db)]
    rows += [[0] * i + b[::-1] + [0] * (da - 1 - i) for i in range(da)]
    return int(Matrix(rows).det()) % prime


def sheared_rows(a, d, points, prime, shear):
    """Coefficients in x of a(x, t + c*x) at t = 0, ..., points-1 over
    Python ints: the binomial expansion of (y + c*x)^j shears the array,
    and Horner's rule in y evaluates each of its rows in x."""
    size = a.shape[0]
    b = [[0] * size for _ in range(size)]
    for i, j in zip(*np.nonzero(a)):
        for k in range(j + 1):
            b[i + k][j - k] = (b[i + k][j - k] + int(a[i, j]) * comb(j, k) * pow(shear, k, prime)) % prime
    return [[reduce(lambda acc, v: (acc * t + v) % prime, b[i][d::-1], 0) for i in range(d + 1)] for t in range(points)]


class TestModularKernels:
    # The int64 kernels of the count against exact arithmetic over Python ints.
    @given(st.integers(0, 6), st.integers(0, 3), st.integers(0, 2**32), st.sampled_from([5, 7, 11, PRIMES[0]]),
           st.sampled_from(["zero", "trial", "random"]), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_rows_at_match_the_sheared_array(self, d, extra, seed, prime, shear, vanish):
        # _rows_at shears while it evaluates; the reference shears first.
        rng = np.random.default_rng(seed)
        c = {"zero": 0, "trial": mldegree._shear(prime), "random": int(rng.integers(0, prime))}[shear]
        i, j = np.indices((d + 1 + extra,) * 2)
        a = np.where(i + j <= d, rng.integers(0, prime, i.shape), 0)
        a[0, d] = rng.integers(1, prime)  # total degree d
        top = sum(int(a[d - k, k]) * pow(c, k, prime) for k in range(d + 1)) % prime  # top part at (1, c)
        if vanish and d:
            a[d, 0] = (a[d, 0] - top) % prime
            top = 0
        points = int(rng.integers(1, min(prime, 12) + 1))
        rows = mldegree._rows_at(a, d, points, prime, c)
        assert rows.tolist() == sheared_rows(a, d, points, prime, c)
        assert rows[:, d].tolist() == [top] * points  # the leading coefficient, the same for every t

    @given(st.lists(st.integers(0, 10**12), min_size=2, max_size=7),
           st.lists(st.integers(0, 10**12), min_size=2, max_size=7),
           st.sampled_from([5, 7, 101, PRIMES[0]]), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_resultants_match_sylvester(self, a, b, prime, common):
        # A shared linear factor x - common makes the resultant vanish.
        a, b = ([c % prime for c in f] for f in (a, b))
        if common:
            a, b = ([(y - common * x) % prime for x, y in zip(f + [0], [0] + f)] for f in (a, b))
        if not (a[-1] and b[-1]):
            return
        want = sylvester_resultant(a, b, prime)
        assert want == 0 or not common
        assert mldegree._resultants(np.array([a]), np.array([b]), prime).tolist() == [want]

    def test_resultants_by_rows(self):
        # Rows whose remainders drop by different degrees go on in groups:
        # x^2 + 1 mod x^2 + 3 is a constant, x^2 + 2 mod itself is 0, and
        # (x + 1)^2 mod x^2 - 1 = 2x + 2 drops one degree.
        prime = 101
        a = [[1, 0, 1], [2, 0, 1], [1, 2, 1]]
        b = [[3, 0, 1], [2, 0, 1], [prime - 1, 0, 1]]
        want = [sylvester_resultant(u, v, prime) for u, v in zip(a, b)]
        assert want[0] and want[1] == want[2] == 0
        assert mldegree._resultants(np.array(a), np.array(b), prime).tolist() == want

    @pytest.mark.parametrize("n", [1, 2, 5, 17])
    def test_interpolation_recovers_coefficients(self, n):
        prime = PRIMES[1]
        coeffs = np.random.default_rng(n).integers(0, prime, n)
        values = np.array([sum(int(c) * pow(t, i, prime) for i, c in enumerate(coeffs)) % prime for t in range(n)])
        w = mldegree._interpolation_matrix(n, prime)
        assert mldegree._matmul_mod(w, values, prime).tolist() == coeffs.tolist()

    @pytest.mark.parametrize("m1,n", [(3, 3), (4, 3), (5, 3), (9, 5), (4, 4), (2, 2)])
    def test_chart_images_match_score_polynomials(self, m1, n):
        # The int64 chart route gives the images of the exact pair with g2
        # divided out and of g1*g2*k22, entry for entry.
        g1, g2, gens = score_polynomials(random_integer_sample(m1, n, seed=0))
        k22 = Poly.variable(SCORE_VARS, "k22")
        y = mldegree._integer_data(m1, n, 0)
        first, second = y[:, 0::2], y[:, 1::2]
        scatters = (first @ first.T, first @ second.T + second @ first.T, second @ second.T)
        prime = PRIMES[0]
        chart = mldegree._chart_images(scatters, prime)
        exact = mldegree._poly_images([divide_out(g, g2) for g in gens] + [g1 * g2 * k22], prime)
        for got, want in zip(chart, exact):
            size = max(got.shape[0], want.shape[0])
            assert np.array_equal(_pad(got, size), _pad(want, size))


class TestMlDegree:
    @pytest.mark.parametrize(
        "m1,n,expect",
        [(2, 3, 3), (3, 2, 1), (3, 3, 4), (4, 3, 3)],
    )
    def test_small_cells(self, m1, n, expect):
        assert ml_degree(m1, n, seed=1) == expect

    def test_degenerate_cell_reports_zero(self):
        assert ml_degree(2, 2, seed=1) == 0
        assert ml_degree(3, 1, seed=1) == 0

    def test_row_two_stabilizes_at_three(self):
        for n in (3, 4, 5):
            assert ml_degree(2, n, seed=0) == 3

    def test_k1_cells_are_degree_one(self):
        for m1, n in ((3, 2), (5, 3)):
            assert 2 * n == m1 + 1
            assert ml_degree(m1, n, seed=0) == 1

    def test_agrees_with_saturated_ideal_route(self):
        # independent route: Rabinowitsch saturation in three variables,
        # then a full basis and standard-monomial count
        for m1, n in ((2, 3), (3, 2), (3, 3)):
            for seed in (1, 2):
                sat = likelihood_equations_m2_2(m1, n, seed)
                zero_dim, degree = dim_and_degree(buchberger(sat))
                assert zero_dim
                assert degree == ml_degree(m1, n, seed)

    def test_castling_invariance(self):
        """The ML degree of (m1, 2, n) equals that of its castling dual (k, 2, n).

        Castling maps (m1, m2, n) to (k, m2, n), k = n*m2 - m1, and maps the
        dual back, so at m2 = 2 the cells (m1, n) and (k, n) are each other's
        duals.  By the determinant reduction identity, with Sigma = K2^-1,
        det(sum_i Y_i K2 Y_i^T) = det(K2)^n * det(T(Sigma)) up to a constant
        factor, T(Sigma) = sum_i Z_i Sigma Z_i^T the dual's scatter.  So the
        profile log-likelihood of the sample in K2,
        -n*(m2*logdet(sum_i Y_i K2 Y_i^T) - m1*logdet(K2)) / 2, is, up to a
        constant, -n*(m2*logdet(T(Sigma)) - k*logdet(Sigma)) / 2: the dual's
        profile in its own K2, read at Sigma.  Inversion K2 -> K2^-1 is a
        birational map that is regular wherever det K2 != 0, so it carries
        critical points to critical points, multiplicity kept.  The locus
        corresponds too: off det K2 = 0, the identity gives
        det(sum_i Y_i K2 Y_i^T) = 0 exactly where det T(Sigma) = 0, and
        det Sigma = 0 nowhere.  ml_degree counts solutions off g1*g2*k22 = 0
        (the scatter's determinant, det K2 and the chart's coordinate);
        for generic data no critical point lies on a coordinate hyperplane,
        and a generic sample has a generic dual, so both counts are the same
        invariant.  Every cell with 1 <= m1, k <= 8 at seed 0.

        The table fits one formula in d = min(m1, k): (d - 1)^2 when m1 = k,
        and d^2 - d + 1 otherwise.  (2,2), which reads 0 by its shape rule,
        is the one exception.  The Buchberger oracle confirms every cell
        with m1, k <= 5.  The abstract's degree-one setting is exactly the
        shapes whose castling descent ends at a 1 x 1 factor: a cell has
        degree 1 if and only if descent(m1, 2, n) ends "k1".
        """
        cells = [(m1, n) for n in range(1, 9) for m1 in range(1, 9) if 1 <= 2 * n - m1 <= 8]
        degree = {cell: ml_degree(*cell, seed=0) for cell in cells}
        assert len(cells) == 32
        for m1, n in cells:
            k = 2 * n - m1
            d = min(m1, k)
            assert degree[m1, n] == degree[k, n], (m1, n)
            assert (degree[m1, n] == 1) == (descent(m1, 2, n)[1] == "k1"), (m1, n)
            if (m1, n) != (2, 2):
                assert degree[m1, n] == ((d - 1) ** 2 if m1 == k else d * d - d + 1), (m1, n)
            if max(m1, k) <= 5:
                assert degree[m1, n] == ml_degree_by_buchberger(m1, n, 0), (m1, n)
        assert degree[2, 2] == 0


class TestQuadratics:
    def test_case_one_hand_coefficients(self):
        q = b_zero_quadratic(3, 2, "one")
        assert q.coefficients == (4, -11, -6)
        assert q.discriminant == 121 + 96 == 217
        assert str(q) == "4*x^2 + -11*x + -6"

    def test_case_two_hand_coefficients(self):
        q = b_zero_quadratic(2, 2, "two")
        assert q.coefficients == (4, 0, -6)
        assert q.discriminant == 96

    def test_case_one_values_at_denominator_roots(self):
        c2, c1, c0 = b_zero_quadratic(3, 2, "one").coefficients
        values = [c2 * t * t + c1 * t + c0 for t in (0, -1, 2)]
        assert values == [-6, 9, -12]

    def test_roots_solve_quadratic(self):
        q = b_zero_quadratic(3, 2, "one")
        for r in map(float, q.roots()):
            c2, c1, c0 = (float(c) for c in q.coefficients)
            assert c2 * r * r + c1 * r + c0 == pytest.approx(0.0, abs=1e-9)

    def test_bad_case_id(self):
        with pytest.raises(ValueError):
            b_zero_quadratic(3, 2, "three")


# The fifteen Prop. 4.3 systems: case one at k = 2 and k >= 3, case two at k = 2..9.
PROP43_SYSTEMS = [("one", m2, k) for m2, k in ((3, 2), (4, 2), (5, 2), (3, 3), (4, 3), (3, 4), (6, 5))]
PROP43_SYSTEMS += [("two", 2, k) for k in range(2, 10)]


class TestProp43:
    def test_regime_validation(self):
        with pytest.raises(ValueError):
            prop43_system(2, 2, "one")  # case one needs m2 > 2
        with pytest.raises(ValueError):
            prop43_system(3, 2, "two")  # case two needs m2 = 2
        with pytest.raises(ValueError):
            prop43_system(3, 1, "one")  # k >= 2

    def test_system_shape(self):
        sat = prop43_system(3, 2, "one")
        assert sat.vars == ("t", "b", "y_sat")
        assert len(sat.generators) == 3

    def test_case_one_count(self):
        count = ml_multiplicity_prop43(3, 2, "one")
        assert 2 <= count <= 5
        assert count == 4  # frozen regression value

    def test_case_two_counts(self):
        assert ml_multiplicity_prop43(2, 2, "two") == 2
        assert ml_multiplicity_prop43(2, 3, "two") == 4

    def test_band(self, monkeypatch):
        # The band stays as it is until Prop. 4.3 is derived for case one at
        # k >= 3, whose system has 6 solutions.
        assert PROP43_UPPER == {"one": 5, "two": 4}
        with pytest.raises(ValueError, match=r"count 6 outside expected \[2, 5\]"):
            ml_multiplicity_prop43(3, 3, "one")
        # and so is no solution off the locus
        monkeypatch.setattr(mldegree, "_count_by_trials", lambda images: 0)
        with pytest.raises(ValueError, match=r"count 0 outside expected \[2, 4\]"):
            ml_multiplicity_prop43(2, 3, "two")

    # Case one at k = 2 and at k >= 3 (6 solutions, outside the band), and
    # case two at k = 2..6.  Counting with f = 1 instead of the denominators
    # gives 7 at case one k >= 3 and 6/9/9/9/9 at case two.
    @pytest.mark.parametrize(
        "case_id,m2,k,count",
        [("one", 3, 2, 4), ("one", 4, 2, 4), ("one", 5, 2, 4),
         ("one", 3, 3, 6), ("one", 4, 3, 6), ("one", 3, 4, 6)]
        + [("two", 2, k, 2 if k == 2 else 4) for k in range(2, 7)],
    )
    def test_count_matches_rabinowitsch_oracle(self, case_id, m2, k, count):
        # The integer images, the Poly recipe of the oracle and Buchberger on
        # the lifted system agree.
        gens, factors = prop43_pair(m2, k, case_id)
        zero_dim, degree = dim_and_degree(buchberger(prop43_system(m2, k, case_id)))
        assert zero_dim
        images = mldegree._count_by_trials(lambda p: mldegree._prop43_images(m2, k, case_id, p))
        assert images == count_solutions_off_locus(gens, factors) == degree == count

    @pytest.mark.parametrize("case_id,m2,k", PROP43_SYSTEMS)
    def test_images_match_poly_recipe(self, case_id, m2, k):
        # At every prime, each image is the Poly recipe's _poly_images times
        # one nonzero scalar, and the lifted system is the recipe's pair.
        gens, factors = prop43_pair(m2, k, case_id)
        for prime in PRIMES:
            ours = mldegree._prop43_images(m2, k, case_id, prime)
            theirs = mldegree._poly_images((*gens, prod(factors[1:], start=factors[0])), prime)
            for a, b in zip(ours, theirs, strict=True):
                a, b = (np.pad(x, (0, 7 - len(x))).ravel().tolist() for x in (a, b))
                lead = next(i for i, x in enumerate(b) if x)
                scalar = a[lead] * pow(b[lead], -1, prime) % prime
                assert scalar and a == [scalar * x % prime for x in b]
        sat = prop43_system(m2, k, case_id)
        assert [g.primitive() for g in sat.generators[:2]] == [g.lift(sat.vars) for g in gens]

    def test_huge_arguments(self):
        # m2 and k are reduced mod each prime before any product; the lift
        # of the oracle system refuses coefficients a prime cannot hold.
        huge = 10**400
        assert ml_multiplicity_prop43(2, huge, "two") == ml_multiplicity_prop43(huge, 2, "one") == 4
        with pytest.raises(ValueError, match="do not lift"):
            prop43_system(2, huge, "two")

    def test_prime_dividing_the_content_is_skipped(self):
        # With m2 = k = 0 mod prime, case one's first numerator vanishes:
        # that prime proves nothing, rather than counting as a shared factor.
        m2 = k = PRIMES[0] * PRIMES[1]
        assert mldegree._prop43_images(m2, k, "one", PRIMES[0]) is None
        with pytest.raises(ValueError, match=r"count 6 outside expected \[2, 5\]"):
            ml_multiplicity_prop43(m2, k, "one")

    def test_cli_counts_without_poly(self, monkeypatch, tmp_path, capsys):
        # The benchmark's multiplicity items and mldegree rectangles run with
        # Poly arithmetic, count_solutions_off_locus and _poly_images refused.
        spec = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "spec.json").read_text())
        spec = spec["mldegree"]

        def refuse(*args, **kwargs):
            raise AssertionError("a CLI count computed with a Poly")

        refuse_q(monkeypatch)
        monkeypatch.setattr(Poly, "__init__", refuse)
        monkeypatch.setattr(mldegree, "count_solutions_off_locus", refuse)
        monkeypatch.setattr(mldegree, "_poly_images", refuse)
        monkeypatch.setenv("KRONMLE_WORKERS", "1")  # the cells run in this process
        argvs = [["multiplicity", "--case", c["case"], "--m2", str(c["m2"]), "--k", str(c["k"])]
                 for c in spec["multiplicity"]]
        argvs += [["mldegree", "--m1", r["m1"], "--n", r["n"], "--cache-dir", str(tmp_path / str(i))]
                  for i, r in enumerate(spec["rectangles"])]
        assert len(argvs) == 11
        for argv in argvs:
            assert cli.main(argv) == 0, argv
        assert capsys.readouterr().out.count("solution count: ") == 5

    def test_b_zero_roots_satisfy_system(self):
        # on the b = 0 slice the saturated system reduces to the quadratic;
        # its roots must be among the system's solutions, so the count is
        # at least 2 whenever the discriminant is positive
        q = b_zero_quadratic(3, 2, "one")
        assert q.discriminant > 0
        assert ml_multiplicity_prop43(3, 2, "one") >= 2
