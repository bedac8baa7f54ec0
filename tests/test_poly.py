"""Sparse rational polynomial arithmetic, GCDs, and polynomial determinants."""

from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from kronmle import mldegree, poly
from kronmle.linalg import Matrix
from kronmle.mldegree import PRIMES, random_integer_sample, score_polynomials
from kronmle.poly import Poly, exact_divide, poly_det, poly_gcd
from paper_helpers import evaluate

VARS = ("x", "y")


def x_y():
    return Poly.variable(VARS, "x"), Poly.variable(VARS, "y")


def random_poly(rng, vars=VARS, max_deg=3, n_terms=4):
    terms = {}
    for _ in range(n_terms):
        exp = tuple(int(rng.integers(0, max_deg + 1)) for _ in vars)
        terms[exp] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
    return Poly(vars, terms)


def random_point(rng, vars=VARS):
    return {v: Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 4))) for v in vars}


class TestArithmetic:
    def test_zero_coefficients_dropped(self):
        x, _ = x_y()
        assert (x - x).is_zero()
        assert Poly(VARS, {(1, 0): 0}).is_zero()

    def test_constant_and_variable(self):
        c = Poly.constant(VARS, Fraction(3, 2))
        assert evaluate(c, {"x": 5, "y": 7}) == Fraction(3, 2)
        x, _ = x_y()
        assert evaluate(x, {"x": 5, "y": 7}) == 5

    def test_evaluation_homomorphism(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            p = random_poly(rng)
            q = random_poly(rng)
            pt = random_point(rng)
            assert evaluate(p + q, pt) == evaluate(p, pt) + evaluate(q, pt)
            assert evaluate(p * q, pt) == evaluate(p, pt) * evaluate(q, pt)
            assert evaluate(p - q, pt) == evaluate(p, pt) - evaluate(q, pt)

    def test_pow(self):
        x, y = x_y()
        p = x + y
        assert p**3 == p * p * p
        assert p**0 == Poly.constant(VARS, 1)

    def test_diff(self):
        x, y = x_y()
        p = x**3 * y + 2 * x * y - 5
        assert p.diff("x") == 3 * x**2 * y + 2 * y
        assert p.diff("y") == x**3 + 2 * x

    def test_diff_product_rule(self):
        rng = np.random.default_rng(1)
        for _ in range(15):
            p = random_poly(rng)
            q = random_poly(rng)
            lhs = (p * q).diff("x")
            rhs = p.diff("x") * q + p * q.diff("x")
            assert lhs == rhs

    def test_total_degree_and_leading(self):
        x, y = x_y()
        p = x**2 * y + y
        assert p.total_degree() == 3
        assert p.leading("grevlex") == ((2, 1), 1)
        assert p.leading("lex") == ((2, 1), 1)

    def test_primitive(self):
        x, _ = x_y()
        p = Fraction(4, 6) * x**2 - Fraction(2, 3)
        prim = p.primitive()
        assert prim == x**2 - 1
        # sign-normalized: leading coefficient positive
        assert (-prim).primitive() == prim

    def test_lift(self):
        x, _ = x_y()
        lifted = x.lift(("t", "x", "y"))
        assert lifted.vars == ("t", "x", "y")
        assert evaluate(lifted, {"t": 99, "x": 5, "y": 0}) == 5

    def test_str_canonical(self):
        p = Poly(("k12", "k22"), {(2, 1): Fraction(3, 2), (0, 0): -5})
        assert str(p) == "3/2*k12^2*k22 - 5"


class TestExactDivide:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = random_poly(rng)
            q = random_poly(rng)
            if d.is_zero() or q.is_zero():
                continue
            assert exact_divide(d * q, d) == q

    def test_not_divisible(self):
        x, y = x_y()
        with pytest.raises(ValueError):
            exact_divide(x**2 + 1, x + y)

    def test_zero_divisor(self):
        x, _ = x_y()
        with pytest.raises(ZeroDivisionError):
            exact_divide(x, Poly.constant(VARS, 0))


class TestGcd:
    def test_univariate(self):
        x, _ = x_y()
        assert poly_gcd(x**2 - 1, x**3 - 1) == x - 1

    def test_coprime_gives_constant(self):
        x, y = x_y()
        g = poly_gcd(x + 1, y + 2)
        assert g.total_degree() == 0

    def test_common_factor_recovered(self):
        rng = np.random.default_rng(3)
        x, y = x_y()
        h = x * y + x + 1
        for _ in range(10):
            p = random_poly(rng)
            q = random_poly(rng)
            if p.is_zero() or q.is_zero():
                continue
            g = poly_gcd(h * p, h * q)
            # h divides the gcd
            exact_divide(g, h.primitive())  # raises if not

    def test_prs_coefficients_stay_small(self, monkeypatch):
        import kronmle.poly

        rng = np.random.default_rng(0)
        _, y = x_y()

        def univariate(deg):
            coeffs = [int(c) for c in rng.integers(-9, 10, deg)] + [1]
            return sum((c * y**i for i, c in enumerate(coeffs)), Poly.constant(VARS, 0))

        h = y**2 + 3 * y - 5
        p, q = h * univariate(12), h * univariate(11)
        bits = []
        pseudo_rem = kronmle.poly._pseudo_rem

        def recording(a, b, x):
            r = pseudo_rem(a, b, x)
            bits.extend(abs(c.numerator).bit_length() for c in r.terms.values())
            return r

        monkeypatch.setattr(kronmle.poly, "_pseudo_rem", recording)
        assert poly_gcd(p, q) == h
        # Without removing the integer content they reach about 30000 bits.
        assert 0 < max(bits) < 512

    def test_normalization(self):
        x, _ = x_y()
        g = poly_gcd(-2 * x - 2, -4 * x - 4)
        assert g == x + 1

    def test_sympy_oracle(self):
        import sympy

        rng = np.random.default_rng(4)
        sx, sy = sympy.symbols("x y")
        for _ in range(10):
            p = random_poly(rng)
            q = random_poly(rng)
            if p.is_zero() or q.is_zero():
                continue
            sp = sum(
                sympy.Rational(c) * sx**e[0] * sy**e[1] for e, c in p.terms.items()
            )
            sq = sum(
                sympy.Rational(c) * sx**e[0] * sy**e[1] for e, c in q.terms.items()
            )
            expect = sympy.Poly(sympy.gcd(sp, sq), sx, sy)
            got = poly_gcd(p, q)
            got_s = sympy.Poly(
                sum(
                    sympy.Rational(c) * sx**e[0] * sy**e[1]
                    for e, c in got.terms.items()
                ),
                sx,
                sy,
            )
            # equal up to a constant multiple
            assert sympy.simplify(got_s.as_expr() * expect.LC() - expect.as_expr() * got_s.LC()) == 0


small_coeffs = st.integers(min_value=-4, max_value=4)


@st.composite
def bivariate_polys(draw, max_deg=2):
    """Polys in x, y with small integer coefficients and degree <= max_deg in each."""
    exps = st.tuples(st.integers(0, max_deg), st.integers(0, max_deg))
    return Poly(VARS, draw(st.dictionaries(exps, small_coeffs, max_size=4)))


def resultant_certifies(p, q, primes=PRIMES):
    """Whether the sheared resultant Res_x(p, q) mod prime is nonzero at the
    first trial of mldegree's count whose images exist and keep their
    leading coefficients in x: it is then the image of the resultant over
    Q, which proves p and q coprime over Q."""
    for prime in primes:
        image = mldegree._poly_images((p, q, Poly.constant(p.vars, 1)), prime)
        if image is None:
            continue
        count = mldegree._sheared_count(*image, prime, mldegree._shear(prime))
        if count is not None:
            return count >= 0
    return False


class TestCertifyCoprime:
    # The certificate of coprimality is the resultant of the count itself.
    def test_coprime_pairs_certified(self):
        x, y = x_y()
        assert resultant_certifies(x + 1, y + 2)
        assert resultant_certifies(x**2 - y, x * y + 1)
        assert resultant_certifies(x * y + 1, x * y + 2)
        rng = np.random.default_rng(6)
        certified = 0
        for _ in range(20):
            p, q = random_poly(rng), random_poly(rng)
            if p.is_zero() or q.is_zero() or poly_gcd(p, q).total_degree() > 0:
                continue
            assert resultant_certifies(p, q)
            certified += 1
        assert certified >= 10

    def test_score_pairs_without_det_k_certified(self):
        from count_oracle import divide_out

        for m1, n in ((3, 3), (5, 3), (4, 4)):
            _, g2, gens = score_polynomials(random_integer_sample(m1, n, seed=0))
            p, q = (divide_out(g, g2) for g in gens)
            assert resultant_certifies(p, q)
            if m1 > n:
                # a power of det K is common to the undivided pair
                assert not resultant_certifies(*gens)

    @given(bivariate_polys(), bivariate_polys(), bivariate_polys())
    @settings(max_examples=150, deadline=None)
    def test_common_factor_never_certified(self, h, a, b):
        if h.total_degree() <= 0 or a.is_zero() or b.is_zero():
            return
        # Small primes make leading coefficients vanish far more often.
        for primes in (PRIMES, (5,), (7,), (11,)):
            assert not resultant_certifies(h * a, h * b, primes)

    def test_point_where_leading_coefficient_vanishes_is_skipped(self):
        x, y = x_y()
        # The shear at 5 is 1, where the top part x*(x - y) of the first
        # polynomial vanishes at (1, c): that trial proves nothing, and the
        # one at 7 does.
        p = x * (x - y) + 1
        assert mldegree._shear(5) == 1
        assert not resultant_certifies(p, y - 2, (5,))
        assert resultant_certifies(p, y - 2, (5, 7))

    def test_every_variable_certified(self):
        x, y = x_y()
        # Each factor has degree 0 in one variable; after the shear both
        # involve the eliminated one, and the resultant vanishes.
        assert not resultant_certifies((x + 1) * (x * y + 2), (x + 1) * (y + 3 * x))
        assert not resultant_certifies((y + 1) * (x * y + 2), (y + 1) * (x + 3 * y))

    def test_denominator_divisible_by_prime(self):
        x, y = x_y()
        # x*y - 1/P has no image mod P: that prime proves nothing, and no
        # error is raised.
        p = x * y - Fraction(1, PRIMES[0])
        assert not resultant_certifies(p, y - 2, PRIMES[:1])
        assert resultant_certifies(p, y - 2)
        assert poly_gcd(p, y - 2).total_degree() == 0

    def test_zero_never_certified(self):
        x, _ = x_y()
        assert not resultant_certifies(Poly.constant(VARS, 0), x)


def cofactor_det(grid):
    """Determinant of a square grid of Poly by memoized cofactor expansion.

    poly_det's route before it moved to evaluation and interpolation; kept
    as the oracle.
    """
    n = len(grid)
    vars = grid[0][0].vars
    memo = {}

    def minor(cols):
        # Determinant of rows [n - len(cols), n) restricted to `cols`.
        if not cols:
            return Poly.constant(vars, 1)
        cached = memo.get(cols)
        if cached is not None:
            return cached
        row = n - len(cols)
        total = Poly.constant(vars, 0)
        for pos, col in enumerate(cols):
            entry = grid[row][col]
            if entry.is_zero():
                continue
            term = entry * minor(cols[:pos] + cols[pos + 1 :])
            total = total + term if pos % 2 == 0 else total - term
        memo[cols] = total
        return total

    return minor(tuple(range(n)))


@st.composite
def poly_grids(draw):
    """Square grids of Poly in 1-3 variables, n <= 5, entries of degree <= 2."""
    vars = ("x", "y", "z")[: draw(st.integers(min_value=1, max_value=3))]
    n = draw(st.integers(min_value=1, max_value=5))
    kind = draw(st.sampled_from(["general", "zero_row", "constant"]))
    if kind == "constant":
        exps = st.just((0,) * len(vars))
    else:
        exps = st.tuples(*(st.integers(min_value=0, max_value=2) for _ in vars)).filter(
            lambda e: sum(e) <= 2
        )
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=3)
    entries = st.dictionaries(exps, coeffs, max_size=3).map(lambda t: Poly(vars, t))
    grid = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if kind == "zero_row":
        grid[draw(st.integers(min_value=0, max_value=n - 1))] = [Poly(vars)] * n
    return grid


class TestPolyDetOracle:
    @given(poly_grids())
    @settings(max_examples=60, deadline=None)
    def test_equals_cofactor_expansion(self, grid):
        assert poly_det(grid) == cofactor_det(grid)

    @pytest.mark.parametrize("m1,n", [(5, 4), (9, 5), (4, 4)])
    def test_score_g1_equals_cofactor(self, monkeypatch, m1, n):
        grids = []
        real = poly.poly_det

        def spy(grid):
            grids.append(grid)
            return real(grid)

        monkeypatch.setattr(poly, "poly_det", spy)
        g1, _, _ = score_polynomials(random_integer_sample(m1, n, seed=0))
        assert g1 == cofactor_det(grids[0])


class TestPolyDet:
    def test_diagonal(self):
        x, y = x_y()
        zero = Poly.constant(VARS, 0)
        assert poly_det([[x, zero], [zero, y]]) == x * y

    def test_chart_matrix(self):
        vars = ("k12", "k22")
        k12 = Poly.variable(vars, "k12")
        k22 = Poly.variable(vars, "k22")
        one = Poly.constant(vars, 1)
        assert poly_det([[one, k12], [k12, k22]]) == k22 - k12**2

    def test_evaluation_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            grid = [[random_poly(rng, max_deg=1, n_terms=2) for _ in range(n)] for _ in range(n)]
            pt = random_point(rng)
            symbolic = evaluate(poly_det(grid), pt)
            numeric = Matrix(
                [[evaluate(grid[i][j], pt) for j in range(n)] for i in range(n)]
            ).det()
            assert symbolic == numeric

    def test_non_square_rejected(self):
        x, y = x_y()
        with pytest.raises(ValueError):
            poly_det([[x, y]])

    def test_interpolation_over_ints(self):
        # Integer values of an integer polynomial at 0, 1, ... give back its
        # coefficients as ints, degree 0 and falling-factorial cases included.
        rng = np.random.default_rng(12)
        cases = [[7], [0, -1, 1], [0, 2, -3, 1]]
        cases += [[int(c) for c in rng.integers(-50, 51, n)] for n in range(1, 10)]
        for coeffs in cases:
            values = [sum(c * x**k for k, c in enumerate(coeffs)) for x in range(len(coeffs))]
            got = poly._interpolate_at_naturals(values)
            assert got == coeffs
            assert all(type(c) is int for c in got)
