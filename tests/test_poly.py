"""Sparse rational polynomial arithmetic, GCDs, and polynomial determinants."""

from fractions import Fraction

import numpy as np
import pytest

from kronmle.linalg import Matrix
from kronmle.poly import Poly, exact_divide, poly_det, poly_gcd

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
        assert c.evaluate({"x": 5, "y": 7}) == Fraction(3, 2)
        x, _ = x_y()
        assert x.evaluate({"x": 5, "y": 7}) == 5

    def test_evaluation_homomorphism(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            p = random_poly(rng)
            q = random_poly(rng)
            pt = random_point(rng)
            assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
            assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)
            assert (p - q).evaluate(pt) == p.evaluate(pt) - q.evaluate(pt)

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
        assert lifted.evaluate({"t": 99, "x": 5, "y": 0}) == 5

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
            symbolic = poly_det(grid).evaluate(pt)
            numeric = Matrix(
                [[grid[i][j].evaluate(pt) for j in range(n)] for i in range(n)]
            ).det()
            assert symbolic == numeric

    def test_non_square_rejected(self):
        x, y = x_y()
        with pytest.raises(ValueError):
            poly_det([[x, y]])
