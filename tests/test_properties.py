"""Property-based checks with hypothesis for the exact arithmetic layers."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from kronmle.linalg import Matrix, SingularMatrix, _bareiss, solve_fraction_free
from kronmle.poly import Poly, exact_divide, poly_gcd

entries = st.integers(min_value=-9, max_value=9)
rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
sizes = st.integers(min_value=1, max_value=5)


def row_lists(n, count, elements):
    return st.lists(
        st.lists(elements, min_size=n, max_size=n), min_size=count, max_size=count
    )


def square_matrices(n, elements=entries):
    return row_lists(n, n, elements).map(Matrix)


rational_matrices = sizes.flatmap(lambda n: square_matrices(n, rationals))


@st.composite
def systems(draw):
    """A rational square matrix and a right-hand side of 1 to 3 columns."""
    a = draw(rational_matrices)
    b = Matrix(draw(row_lists(draw(st.integers(1, 3)), a.rows, rationals)))
    return a, b


@st.composite
def singular_matrices(draw):
    """One row a rational combination of the others, at a drawn position."""
    n = draw(st.integers(min_value=2, max_value=5))
    rows = draw(row_lists(n, n - 1, rationals))
    coeffs = draw(st.lists(rationals, min_size=n - 1, max_size=n - 1))
    dependent = [sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0)) for j in range(n)]
    rows.insert(draw(st.integers(min_value=0, max_value=n - 1)), dependent)
    return Matrix(rows)


@st.composite
def symmetric_matrices(draw):
    """PD (A A^T + I), indefinite (A + A^T), or A + A^T with a zero first pivot."""
    a = draw(rational_matrices)
    kind = draw(st.sampled_from(["pd", "indefinite", "zero_first_pivot"]))
    if kind == "pd":
        return a @ a.transpose() + Matrix.identity(a.rows)
    rows = [list(r) for r in (a + a.transpose()).data]
    if kind == "zero_first_pivot":
        rows[0][0] = 0
    return Matrix(rows)


def to_sympy(m):
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in m.data])


coeffs = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
).filter(lambda c: c != 0)

exponents = st.tuples(
    st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
)

polys = st.dictionaries(exponents, coeffs, min_size=0, max_size=5).map(
    lambda t: Poly(("x", "y"), t)
)

points = st.fixed_dictionaries(
    {
        "x": st.fractions(min_value=-4, max_value=4, max_denominator=3),
        "y": st.fractions(min_value=-4, max_value=4, max_denominator=3),
    }
)


class TestMatrixProperties:
    @given(square_matrices(3), square_matrices(3))
    @settings(max_examples=50, deadline=None)
    def test_det_multiplicative(self, a, b):
        assert (a @ b).det() == a.det() * b.det()

    @given(square_matrices(3))
    @settings(max_examples=50, deadline=None)
    def test_inverse_round_trip(self, a):
        if a.det() == 0:
            return
        assert a @ a.inverse() == Matrix.identity(3)

    @given(square_matrices(2), square_matrices(3))
    @settings(max_examples=30, deadline=None)
    def test_kron_det(self, a, b):
        assert a.kron(b).det() == a.det() ** 3 * b.det() ** 2

    @given(square_matrices(3))
    @settings(max_examples=30, deadline=None)
    def test_transpose_det_invariant(self, a):
        assert a.transpose().det() == a.det()

    @given(square_matrices(3))
    @settings(max_examples=30, deadline=None)
    def test_singular_matrices_refuse_solve(self, a):
        if a.det() != 0:
            return
        try:
            a.inverse()
        except SingularMatrix:
            return
        raise AssertionError("singular matrix inverted")


class TestEliminationAgainstSympy:
    @given(systems())
    @settings(max_examples=60, deadline=None)
    def test_det_solve_inverse(self, ab):
        a, b = ab
        sa = to_sympy(a)
        det = sa.det()
        assert sympy.Rational(a.det()) == det
        if det == 0:
            return
        assert to_sympy(a.solve(b)) == sa.LUsolve(to_sympy(b))
        assert to_sympy(a.inverse()) == sa.inv()

    @given(systems())
    @settings(max_examples=60, deadline=None)
    def test_fraction_free_solve_is_integral(self, ab):
        a, b = ab
        if a.det() == 0:
            return
        d, dx = solve_fraction_free(a.data, b.data)
        assert d != 0 and all(type(x) is int for row in dx for x in row)
        assert a @ Matrix(dx) == b.scale(d)

    @given(singular_matrices(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_singular_matrices_raise(self, a, cols):
        assert a.det() == 0 == to_sympy(a).det()
        # In the transpose a column can depend on earlier ones; it gets no pivot.
        rank = to_sympy(a).rank()
        assert len(_bareiss(a.data, a.cols)[0]) == len(_bareiss(a.transpose().data, a.cols)[0]) == rank
        with pytest.raises(SingularMatrix):
            a.inverse()
        with pytest.raises(SingularMatrix):
            a.solve(Matrix.zeros(a.rows, cols))

    @given(symmetric_matrices())
    @settings(max_examples=60, deadline=None)
    def test_positive_definite_symmetric(self, s):
        assert s.is_positive_definite() == to_sympy(s).is_positive_definite

    @given(rational_matrices)
    @settings(max_examples=30, deadline=None)
    def test_positive_definite_needs_symmetry(self, a):
        assert a.is_positive_definite() == (a.is_symmetric() and to_sympy(a).is_positive_definite)


class TestPolyProperties:
    @given(polys, polys, points)
    @settings(max_examples=80, deadline=None)
    def test_ring_homomorphism(self, p, q, pt):
        assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
        assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)

    @given(polys, polys)
    @settings(max_examples=50, deadline=None)
    def test_mul_commutative_associative(self, p, q):
        assert p * q == q * p
        r = Poly.variable(("x", "y"), "x") + 1
        assert (p * q) * r == p * (q * r)

    @given(polys, polys)
    @settings(max_examples=50, deadline=None)
    def test_exact_divide_round_trip(self, p, q):
        if p.is_zero() or q.is_zero():
            return
        assert exact_divide(p * q, p) == q

    @given(polys, polys)
    @settings(max_examples=30, deadline=None)
    def test_gcd_divides_both(self, p, q):
        if p.is_zero() or q.is_zero():
            return
        g = poly_gcd(p, q)
        if g.total_degree() <= 0:
            return
        exact_divide(p.primitive(), g)  # raises if g does not divide p
        exact_divide(q.primitive(), g)

    @given(polys, points)
    @settings(max_examples=50, deadline=None)
    def test_diff_of_square(self, p, pt):
        # (p^2)' = 2 p p' as an identity, checked structurally
        assert (p * p).diff("x") == 2 * p * p.diff("x")
