"""Property-based checks with hypothesis for the exact arithmetic layers."""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kronmle.linalg import Matrix, SingularMatrix, solve_stack
from kronmle.poly import Poly, exact_divide, poly_gcd
from matrix_helpers import kron
from paper_helpers import evaluate

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
        assert kron(a, b).det() == a.det() ** 3 * b.det() ** 2

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
        (d,), (dx,) = solve_stack(a.num[None], b.num)
        assert type(d) is int and all(type(x) is int for x in dx.flat)
        assert Fraction(d, a.den**a.rows) == a.det()  # d = det(num), so d != 0
        assert Matrix.from_ints(a.num) @ Matrix.from_ints(dx) == Matrix.from_ints(b.num).scale(d)

    @given(singular_matrices(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_singular_matrices_raise(self, a, cols):
        assert a.det() == 0 == to_sympy(a).det()
        with pytest.raises(SingularMatrix):
            a.inverse()
        with pytest.raises(SingularMatrix):
            a.solve(Matrix.zeros(a.rows, cols))

    @given(symmetric_matrices())
    @settings(max_examples=60, deadline=None)
    # Two row swaps each: the elimination's sign ends at +1 and its pivots
    # are all 1, yet neither matrix is PD (leading minors 0, -1, 0, 1).
    @example(Matrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]))
    @example(Matrix([[0, 1, 0, 0], [1, 2, 0, 0], [0, 0, 0, 1], [0, 0, 1, 2]]))
    def test_positive_definite_symmetric(self, s):
        assert s.is_positive_definite() == to_sympy(s).is_positive_definite

    @given(rational_matrices)
    @settings(max_examples=30, deadline=None)
    def test_positive_definite_needs_symmetry(self, a):
        assert a.is_positive_definite() == (a.is_symmetric() and to_sympy(a).is_positive_definite)


    @pytest.mark.parametrize(
        "rows",
        [
            [[2, 1], [0, 3]],  # det 6: the zero row is rescaled by 2, then divided by 1
            [[2, 1, 0, 0], [1, 3, 0, 0], [0, 0, 5, 2], [0, 0, 1, 4]],  # block diagonal
            [[3, 0, 0], [0, 5, 0], [0, 0, 7]],
        ],
    )
    def test_zero_multiplier_rows(self, rows):
        # A row with a zero under the pivot is only rescaled by p/prev.
        a = Matrix(rows)
        sa = sympy.Matrix(rows)
        assert sympy.Rational(a.det()) == sa.det()
        assert to_sympy(a.inverse()) == sa.inv()
        b = Matrix([[1, -2], [0, 3]] + [[i, 1] for i in range(a.rows - 2)])
        assert to_sympy(a.solve(b)) == sa.LUsolve(to_sympy(b))

    def test_identity_block_solve(self):
        # The [I | C] solve of canonicalize: every multiplier is zero and p == prev.
        c = Matrix([[1, 2, -3], [Fraction(4, 5), 0, 6], [7, Fraction(-8, 3), 9]])
        assert Matrix.identity(3).solve(c) == c
        (d,), (dx,) = solve_stack(Matrix.identity(3).num[None], c.num)
        assert d == 1 and Matrix(dx) == Matrix.from_ints(c.num)
        ystar = Matrix([[2, 0, 0], [0, 2, 0], [1, 0, 2]])
        assert to_sympy(ystar.solve(c)) == to_sympy(ystar).LUsolve(to_sympy(c))


def lowest_terms(m):
    return m.den > 0 and math.gcd(m.den, *(x for row in m.num for x in row)) == 1


# Entries whose numerator and denominator each overflow a float while the
# value does not, e.g. (10**400 + 1) / 10**399.
huge_rationals = st.builds(
    lambda s, k, e: Fraction(s * 10**e + k, 10 ** (e - 1)),
    st.integers(-9, 9),
    st.integers(-(10**6), 10**6),
    st.integers(300, 420),
)
mixed_rationals = st.one_of(rationals, huge_rationals)


class TestCommonDenominatorForm:
    @given(systems())
    @settings(max_examples=60, deadline=None)
    def test_stored_in_lowest_terms(self, ab):
        a, b = ab
        built = [a, b, a + a, a - a, -a, a.scale(Fraction(-3, 4)), a.scale(0), a @ b,
                 a.transpose(), a.hstack(b), a.submatrix(range(a.rows), [0])]
        if a.det() != 0:
            built += [a.solve(b), a.inverse()]
        for m in built:
            assert lowest_terms(m)

    @given(row_lists(3, 2, rationals))
    @settings(max_examples=60, deadline=None)
    @example([[Fraction(1, 2)] * 3, [Fraction(-1, 2), 0, Fraction(2, 4)]])
    def test_equal_values_compare_and_hash_equal(self, rows):
        m = Matrix(rows)
        doubled = Matrix([[2 * x for x in row] for row in rows])
        a = Matrix([[2, 1], [1, 1]])
        routes = [
            Matrix([[Fraction(2 * x.numerator, 2 * x.denominator) for x in row] for row in rows]),
            Matrix([[f"{x.numerator}/{x.denominator}" for x in row] for row in rows]),
            doubled.scale(Fraction(1, 2)),
            Matrix.identity(2).scale(Fraction(1, 2)) @ doubled,
            a.solve(a @ m),
        ]
        for r in routes:
            assert r == m and hash(r) == hash(m) and (r.num.tolist(), r.den) == (m.num.tolist(), m.den)

    def test_half_by_every_route(self):
        routes = [
            Matrix([[Fraction(2, 4)]]),
            Matrix([["1/2"]]),
            Matrix([[1]]).scale(Fraction(1, 2)),
            Matrix([[1, 0]]) @ Matrix([["1/2"], [7]]),
            Matrix([[2]]).solve(Matrix([[1]])),
        ]
        assert len(set(routes)) == 1 and routes[0].num.tolist() == [[1]] and routes[0].den == 2

    @given(sizes.flatmap(lambda n: row_lists(n, n, mixed_rationals)))
    @settings(max_examples=60, deadline=None)
    def test_data_round_trip(self, rows):
        m = Matrix(rows)
        assert Matrix(m.data) == m
        assert all(type(x) is Fraction for row in m.data for x in row)

    @given(sizes.flatmap(lambda n: row_lists(n, 2, mixed_rationals)))
    @settings(max_examples=80, deadline=None)
    @example([[Fraction(10**400 + 1, 10**399), Fraction(1, 3)], [Fraction(-1, 10**320), 0]])
    def test_to_numpy_bit_for_bit(self, rows):
        m = Matrix(rows)
        expect = np.array([[float(x) for x in row] for row in m.data])
        got = m.to_numpy()
        assert got.dtype == np.float64 and got.tobytes() == expect.tobytes()


class TestPolyProperties:
    @given(polys, polys, points)
    @settings(max_examples=80, deadline=None)
    def test_ring_homomorphism(self, p, q, pt):
        assert evaluate(p + q, pt) == evaluate(p, pt) + evaluate(q, pt)
        assert evaluate(p * q, pt) == evaluate(p, pt) * evaluate(q, pt)

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
