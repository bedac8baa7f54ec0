"""Buchberger bases, saturation, and standard-monomial degree counting."""

from fractions import Fraction

import numpy as np
import pytest

from kronmle.groebner import (
    GroebnerBasis,
    PairBudgetExceeded,
    PolyIdeal,
    buchberger,
    dim_and_degree,
    normal_form,
    saturate_rabinowitsch,
    standard_monomials,
)
from kronmle.poly import Poly


def make(vars, *term_dicts):
    return tuple(Poly(vars, t) for t in term_dicts)


def univariate(coeffs, vars=("x",)):
    """Poly from coefficient list, constant term first."""
    return Poly(vars, {(i,) + (0,) * (len(vars) - 1): c for i, c in enumerate(coeffs)})


def s_polynomial(f, g, order="grevlex"):
    """lcm(LM f, LM g) * (f / LT f - g / LT g)."""
    (ef, cf), (eg, cg) = f.leading(order), g.leading(order)
    l = tuple(map(max, ef, eg))
    mf = Poly(f.vars, {tuple(a - b for a, b in zip(l, ef)): 1 / cf})
    mg = Poly(g.vars, {tuple(a - b for a, b in zip(l, eg)): 1 / cg})
    return mf * f - mg * g


def ideal_membership_residual(p, gb):
    """Normal form of p modulo the basis; zero iff p is in the ideal."""
    return normal_form(p, list(gb.basis), gb.order)


def format_ideal(ideal, order=None):
    """One polynomial per line, after a ring header listing variables/order."""
    head = "ring " + " ".join(ideal.vars)
    if order:
        head += f" order={order}"
    gens = ideal.generators if isinstance(ideal, PolyIdeal) else ideal.basis
    return head + "\n" + "\n".join(str(g) for g in gens) + "\n"


def random_ideal(rng, vars, n_gens=2):
    gens = []
    while len(gens) < n_gens:
        terms = {}
        for _ in range(3):
            exp = tuple(int(rng.integers(0, 3)) for _ in vars)
            terms[exp] = int(rng.integers(-5, 6))
        p = Poly(vars, terms)
        if not p.is_zero():
            gens.append(p)
    return PolyIdeal(generators=tuple(gens))


class TestNormalForm:
    def test_reduces_basis_members_to_zero(self):
        vars = ("x", "y")
        x = Poly.variable(vars, "x")
        y = Poly.variable(vars, "y")
        basis = [x**2 - 1, y - x]
        assert normal_form(basis[0], basis).is_zero()
        assert normal_form(basis[0] * (x + y) + basis[1] * y, basis).is_zero()

    def test_remainder_not_divisible(self):
        vars = ("x", "y")
        x = Poly.variable(vars, "x")
        y = Poly.variable(vars, "y")
        r = normal_form(x * y + y, [x**2 - 1])
        assert r == x * y + y


class TestBuchberger:
    def test_textbook_lex_example(self):
        vars = ("x", "y")
        x = Poly.variable(vars, "x")
        y = Poly.variable(vars, "y")
        gb = buchberger(PolyIdeal(generators=(x**2 - 1, y - x)), order="lex")
        assert set(gb.basis) == {x - y, y**2 - 1}

    def test_principal_ideal_monic(self):
        vars = ("x",)
        f = univariate([Fraction(6), 0, Fraction(3)], vars)  # 3x^2 + 6
        gb = buchberger(PolyIdeal(generators=(f,)))
        assert gb.basis == (univariate([2, 0, 1], vars),)

    def test_saturation_eliminates_branch(self):
        # <x(x-1), t*x - 1> with lex t > x contains x - 1
        vars = ("t", "x")
        t = Poly.variable(vars, "t")
        x = Poly.variable(vars, "x")
        gb = buchberger(PolyIdeal(generators=(x * (x - 1), t * x - 1)), order="lex")
        assert x - 1 in gb.basis

    def test_spolys_reduce_to_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            ideal = random_ideal(rng, ("x", "y"))
            gb = buchberger(ideal)
            basis = list(gb.basis)
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    s = s_polynomial(basis[i], basis[j], gb.order)
                    assert normal_form(s, basis, gb.order).is_zero()

    def test_generators_reduce_to_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            ideal = random_ideal(rng, ("x", "y"))
            gb = buchberger(ideal)
            for g in ideal.generators:
                assert ideal_membership_residual(g, gb).is_zero()

    def test_reduced_shape(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            ideal = random_ideal(rng, ("x", "y"))
            gb = buchberger(ideal)
            leads = [g.leading(gb.order) for g in gb.basis]
            for (lexp, lc) in leads:
                assert lc == 1
            for i, g in enumerate(gb.basis):
                for exp in g.terms:
                    for j, (lexp, _) in enumerate(leads):
                        if i != j:
                            assert not all(a <= b for a, b in zip(lexp, exp))

    def test_sympy_oracle(self):
        import sympy

        rng = np.random.default_rng(3)
        sx, sy = sympy.symbols("x y")
        for order in ("lex", "grevlex"):
            for _ in range(8):
                ideal = random_ideal(rng, ("x", "y"))
                gb = buchberger(ideal, order=order)
                sgens = [
                    sum(c * sx**e[0] * sy**e[1] for e, c in g.terms.items())
                    for g in ideal.generators
                ]
                ref = sympy.groebner(sgens, sx, sy, order=order)
                expect = set()
                for e in ref.exprs:
                    p = sympy.Poly(e, sx, sy)
                    back = Poly(
                        ("x", "y"),
                        {
                            tuple(int(d) for d in m): Fraction(str(c))
                            for m, c in zip(p.monoms(), p.coeffs())
                        },
                    )
                    expect.add(back.monic(order))
                assert set(gb.basis) == expect

    def test_pair_budget(self):
        vars = ("x", "y", "z")
        x = Poly.variable(vars, "x")
        y = Poly.variable(vars, "y")
        z = Poly.variable(vars, "z")
        gens = (x**3 - 2 * x * y, x**2 * y - 2 * y**2 + x, z * x - y**3)
        with pytest.raises(PairBudgetExceeded):
            buchberger(PolyIdeal(generators=gens), pair_budget=1)


class TestSaturate:
    def test_fresh_variable_added(self):
        vars = ("x",)
        x = Poly.variable(vars, "x")
        sat = saturate_rabinowitsch(PolyIdeal(generators=(x**2 - x,)), x)
        assert sat.vars == ("x", "y_sat")
        assert len(sat.generators) == 2

    def test_variable_clash_rejected(self):
        vars = ("y_sat",)
        p = Poly.variable(vars, "y_sat")
        with pytest.raises(ValueError):
            saturate_rabinowitsch(PolyIdeal(generators=(p,)), p)

    def count_nonvanishing(self, poly_coeffs, f_coeffs):
        vars = ("x",)
        ideal = PolyIdeal(generators=(univariate(poly_coeffs, vars),))
        f = univariate(f_coeffs, vars)
        sat = saturate_rabinowitsch(ideal, f)
        gb = buchberger(sat)
        zero_dim, degree = dim_and_degree(gb)
        assert zero_dim
        return degree

    def test_removes_origin(self):
        # x^2 - x = 0 with x != 0 leaves only x = 1
        assert self.count_nonvanishing([0, -1, 1], [0, 1]) == 1

    def test_removes_named_root(self):
        # x^2 - 1 = 0 with x != 1 leaves only x = -1
        assert self.count_nonvanishing([-1, 0, 1], [-1, 1]) == 1

    def test_root_enumeration_oracle(self):
        # (x-1)(x-2)(x-3) = 0 with x != 2 leaves two roots
        assert self.count_nonvanishing([-6, 11, -6, 1], [-2, 1]) == 2


class TestDimAndDegree:
    def test_two_point_ideal(self):
        vars = ("x", "y")
        x = Poly.variable(vars, "x")
        y = Poly.variable(vars, "y")
        gb = buchberger(PolyIdeal(generators=(x**2 - 1, y - x)))
        assert dim_and_degree(gb) == (True, 2)
        assert sorted(standard_monomials(gb)) in ([(0, 0), (0, 1)], [(0, 0), (1, 0)])

    def test_positive_dimensional(self):
        vars = ("x", "y")
        x = Poly.variable(vars, "x")
        gb = GroebnerBasis(basis=(x,), order="grevlex")
        assert dim_and_degree(gb) == (False, None)
        assert standard_monomials(gb) is None

    def test_monomial_ideal(self):
        vars = ("x", "y")
        x = Poly.variable(vars, "x")
        y = Poly.variable(vars, "y")
        gb = GroebnerBasis(basis=(x**3, y**2), order="grevlex")
        assert dim_and_degree(gb) == (True, 6)

    def test_unit_ideal(self):
        vars = ("x",)
        one = Poly.constant(vars, 1)
        gb = GroebnerBasis(basis=(one,), order="grevlex")
        assert standard_monomials(gb) == []
        assert dim_and_degree(gb) == (True, 0)

    def test_degree_is_order_independent(self):
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 8:
            ideal = random_ideal(rng, ("x", "y"), n_gens=2)
            zd_g, deg_g = dim_and_degree(buchberger(ideal, order="grevlex"))
            if not zd_g:
                continue
            zd_l, deg_l = dim_and_degree(buchberger(ideal, order="lex"))
            assert zd_l and deg_l == deg_g
            checked += 1


class TestFormat:
    def test_ideal_text(self):
        vars = ("x", "y")
        x = Poly.variable(vars, "x")
        text = format_ideal(PolyIdeal(generators=(x**2 - 1,)), order="grevlex")
        lines = text.splitlines()
        assert lines[0] == "ring x y order=grevlex"
        assert lines[1] == "x^2 - 1"
