"""Exact and float dense linear algebra."""

import io
import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import orjson
import pytest
import sympy
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kronmle.linalg import (
    Matrix,
    NotPD,
    SingularMatrix,
    cholesky,
    det_stack,
    format_matrix,
    logdet_pd,
    parse_matrix,
    read_ints,
    solve_stack,
)
from matrix_helpers import diagonal, kron, trace, vstack


def random_int_matrix(rng, r, c, lo=-5, hi=6):
    return Matrix([[int(rng.integers(lo, hi)) for _ in range(c)] for _ in range(r)])


def random_nonsingular(rng, n):
    while True:
        a = random_int_matrix(rng, n, n)
        if a.det() != 0:
            return a


class TestMatrixBasics:
    def test_shape_and_entries(self):
        a = Matrix([[1, 2], [3, 4], [5, 6]])
        assert a.shape == (3, 2)
        assert a[2, 1] == 6
        assert isinstance(a[0, 0], Fraction)

    def test_fraction_entries_kept(self):
        # Entries are stored as integer rows over one denominator; reading
        # one back makes a new Fraction of the same value.
        f = Fraction(7, 3)
        a = Matrix([[f, 2, "1/2"]])
        assert a[0, 0] == f and type(a[0, 0]) is Fraction
        assert a.data == ((Fraction(7, 3), Fraction(2), Fraction(1, 2)),)
        assert all(type(x) is Fraction for x in a.data[0])

    def test_immutable(self):
        a = Matrix([[1]])
        with pytest.raises(AttributeError):
            a.rows = 2

    def test_num_is_a_read_only_object_array(self):
        a = Matrix([[2, Fraction(1, 3)], [1, 1]])
        b = Matrix([[1, 0], [5, 7]])
        built = [a, Matrix.from_ints([[4, 6]], 2), a @ b, a.transpose(), a.hstack(b),
                 a.submatrix([1], [0, 1]), a.solve(b)]
        for m in built:
            assert m.num.dtype == object and m.num.ndim == 2
            assert all(type(x) is int for x in m.num.flat)
            with pytest.raises(ValueError):
                m.num[0, 0] = 1

    def test_numpy_integer_entries_become_python_ints(self):
        rows = np.array([[2**62, 1], [1, 3]])
        for m in (Matrix(rows), Matrix([[np.int64(2**62), Fraction(1, 2)], [1, 3]])):
            assert all(type(x) is int for x in m.num.flat)
            assert (m @ m)[0, 0] == 2**124 + m[0, 1]

    def test_from_ints_stores_python_ints(self):
        # From an int64 array and from np.int64 entries inside rows alike,
        # so that a product of two entries does not wrap around.
        for num in (np.array([[2**62, 1], [1, 3]]), [[np.int64(2**62), 1], [np.int64(1), 3]]):
            m = Matrix.from_ints(num)
            assert all(type(x) is int for x in m.num.flat)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert (m @ m)[0, 0] == 2**124 + 1
        with pytest.raises(TypeError):
            Matrix.from_ints([[Fraction(1, 2)]])

    def test_from_ints_copies_its_input(self):
        arr = np.array([[2, 4], [6, 9]], dtype=object)
        m = Matrix.from_ints(arr, 3)
        before, h = m.data, hash(m)
        arr[0, 0] = 100
        assert m.data == before and hash(m) == h
        assert m == Matrix([[Fraction(2, 3), Fraction(4, 3)], [2, 3]])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2], [3]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="^matrix must be non-empty$"):
            Matrix([])

    def test_matmul_transpose_trace(self):
        a = Matrix([[1, 2], [3, 4]])
        b = Matrix([[0, 1], [1, 0]])
        assert a @ b == Matrix([[2, 1], [4, 3]])
        assert a.transpose() == Matrix([[1, 3], [2, 4]])
        assert trace(a) == 5

    def test_stacking(self):
        a = Matrix([[1], [2]])
        b = Matrix([[3], [4]])
        assert a.hstack(b) == Matrix([[1, 3], [2, 4]])
        assert vstack(a, b) == Matrix([[1], [2], [3], [4]])


class TestKron:
    def test_identity_factor_is_block_diagonal(self):
        b = Matrix([[3, 1], [1, 3]])
        out = kron(Matrix.identity(2), b)
        expect = Matrix(
            [[3, 1, 0, 0], [1, 3, 0, 0], [0, 0, 3, 1], [0, 0, 1, 3]]
        )
        assert out == expect

    def test_scalar_factor(self):
        b = Matrix([[3, 1], [1, 3]])
        assert kron(Matrix([[2]]), b) == b.scale(2)

    def test_kron_det_against_direct_4x4(self):
        b = Matrix([[3, 1], [1, 3]])
        out = kron(Matrix.identity(2), b)
        assert out.det() == 64
        # brute-force cofactor expansion of the same 4x4
        def cof(m):
            if len(m) == 1:
                return m[0][0]
            total = Fraction(0)
            for j in range(len(m)):
                sub = [row[:j] + row[j + 1 :] for row in m[1:]]
                total += (-1) ** j * m[0][j] * cof(sub)
            return total

        assert cof([list(r) for r in out.data]) == 64

    def test_float_kron_dispatches_to_numpy(self):
        a = np.eye(2)
        b = np.array([[3.0, 1.0], [1.0, 3.0]])
        assert np.allclose(kron(a, b), np.kron(a, b))

    def test_kron_det_identity_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = int(rng.integers(1, 5))
            q = int(rng.integers(1, 5))
            a = random_int_matrix(rng, p, p)
            b = random_int_matrix(rng, q, q)
            assert kron(a, b).det() == a.det() ** q * b.det() ** p


class TestDet:
    def test_identity(self):
        for m in (1, 3, 5):
            assert Matrix.identity(m).det() == 1

    def test_2x2_by_hand(self):
        assert Matrix([[3, 1], [1, 3]]).det() == 8

    def test_worked_4x4_is_16640(self):
        c = Matrix([[1, 2], [3, 4], [5, 6], [7, 8]])
        y = Matrix.identity(4).hstack(c)
        k = Matrix([[3, 1], [1, 3]])
        lhs = y @ kron(Matrix.identity(3), k) @ y.transpose()
        assert lhs.det() == 16640

    def test_rational_entries(self):
        a = Matrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]])
        assert a.det() == Fraction(1, 14) - Fraction(1, 15)

    def test_multiplicativity_random(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            a = random_int_matrix(rng, n, n)
            b = random_int_matrix(rng, n, n)
            assert (a @ b).det() == a.det() * b.det()

    def test_float_exact_agreement(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            a = random_int_matrix(rng, n, n)
            exact = float(a.det())
            approx = float(np.linalg.det(a.to_numpy()))
            assert approx == pytest.approx(exact, rel=1e-9, abs=1e-9)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2]]).det()


class TestSolveInverse:
    def test_inverse_identity(self):
        assert Matrix.identity(4).inverse() == Matrix.identity(4)

    def test_inverse_diagonal(self):
        assert diagonal([2, 4]).inverse() == diagonal(
            [Fraction(1, 2), Fraction(1, 4)]
        )

    def test_solve_by_adjugate(self):
        a = Matrix([[3, 1], [1, 3]])
        x = a.solve(Matrix.identity(2))
        assert x == Matrix([[3, -1], [-1, 3]]).scale(Fraction(1, 8))

    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            a = random_nonsingular(rng, n)
            assert a @ a.inverse() == Matrix.identity(n)

    def test_fraction_free_solve_over_ints(self):
        # d * X is integral, d = det A, and solve divides it by d.
        a = [[2, 1], [1, 3]]
        (d,), (dx,) = solve_stack(as_stack([a]), np.identity(2, dtype=object))
        assert d == 5 and all(type(x) is int for x in dx.flat)
        assert Matrix(a) @ Matrix(dx) == Matrix.identity(2).scale(d)
        assert Matrix(dx).scale(Fraction(1, d)) == Matrix(a).inverse()
        with pytest.raises(SingularMatrix):
            solve_stack(as_stack([[[1, 2], [2, 4]]]), np.ones((2, 1), dtype=object))

    def test_exact_singular_raises(self):
        with pytest.raises(SingularMatrix):
            Matrix([[1, 2], [2, 4]]).inverse()


@st.composite
def int_stacks(draw):
    """A (b, s, s) stack as nested lists: small entries, so that zero pivots,
    row swaps and singular members are common; each member may be forced
    singular (a repeated row) or to swap (a zero first column entry)."""
    size = draw(st.integers(1, 5))
    count = draw(st.integers(1, 5))
    entries = st.integers(-3, 3) | st.integers(-(2**80), 2**80)
    stack = []
    for _ in range(count):
        m = [[draw(entries) for _ in range(size)] for _ in range(size)]
        shape = draw(st.sampled_from(["any", "singular", "swap"]))
        if shape == "singular" and size > 1:
            m[-1] = list(m[0])
        elif shape == "swap":
            m[0][0] = 0
        stack.append(m)
    return stack


def as_stack(stack):
    return np.array(stack, dtype=object).reshape(len(stack), len(stack[0]), len(stack[0]))


def sympy_adjugate(m):
    """sympy's adjugate over ZZ: the same answer as sympy.Matrix(m).adjugate(),
    which takes about 50 ms per 5 x 5 member with 80-bit entries, 40 times
    longer, and so can push one example past hypothesis's deadline."""
    return DomainMatrix([[ZZ(v) for v in row] for row in m], (len(m), len(m)), ZZ).adjugate().to_Matrix().tolist()


@st.composite
def int_systems(draw):
    """An int_stacks stack and a right-hand side of 1 to 3 columns, as nested
    lists: one (s, c) array for every member, or a (count, s, c) stack."""
    stack = draw(int_stacks())
    size, count, cols = len(stack[0]), len(stack), draw(st.integers(1, 3))
    shape = draw(st.sampled_from([(size, cols), (count, size, cols)]))
    entries = st.integers(-3, 3) | st.integers(-(2**80), 2**80)
    flat = draw(st.lists(entries, min_size=math.prod(shape), max_size=math.prod(shape)))
    return stack, np.array(flat, dtype=object).reshape(shape).tolist()


def nonsingular_members(stack, b):
    """Indices of the nonsingular members of stack, after checking that
    solve_stack raises SingularMatrix on the whole stack if any is singular."""
    kept = [i for i, m in enumerate(stack) if sympy.Matrix(m).det() != 0]
    if len(kept) < len(stack):
        with pytest.raises(SingularMatrix):
            solve_stack(as_stack(stack), b)
    return kept


class TestStackedBareiss:
    """det_stack and solve_stack against sympy, independent of the kernel."""

    @given(int_stacks())
    @example([[[0, 1], [1, 0]], [[1, 2], [2, 4]], [[0, 0], [0, 0]], [[2, 1], [1, 3]]])
    @example([[[0, 2, 1], [1, 0, 0], [0, 1, 0]]])  # zero leading minor, nonsingular
    @example([[[0, 0, 1], [0, 1, 0], [1, 0, 0]]])
    @example([[[7]]])
    def test_det_matches_sympy(self, stack):
        dets = det_stack(as_stack(stack))
        assert dets.shape == (len(stack),)
        assert dets.tolist() == [sympy.Matrix(m).det() for m in stack]
        assert all(type(d) is int for d in dets)

    @given(int_stacks())
    @example([[[0, 1], [1, 0]], [[2, 1], [1, 3]], [[0, 3], [5, 0]]])
    @example([[[0, 1], [1, 0]], [[1, 2], [2, 4]]])  # one singular member
    @example([[[0, 2, 1], [1, 0, 0], [0, 1, 0]]])
    @example([[[-4]]])
    def test_adjugate_matches_sympy(self, stack):
        # B = I: det A * A^-1 is adj A.
        eye = np.identity(len(stack[0]), dtype=object)
        kept = [stack[i] for i in nonsingular_members(stack, eye)]
        if kept:
            dets, adj = solve_stack(as_stack(kept), eye)
            assert dets.tolist() == [sympy.Matrix(m).det() for m in kept]
            assert adj.tolist() == [sympy_adjugate(m) for m in kept]

    @given(int_systems())
    @example(([[[0, 1], [1, 0]], [[1, 2], [2, 4]], [[2, 1], [1, 3]]], [[1, -2], [0, 3]]))
    @example(([[[0, 1], [1, 0]], [[0, 3], [5, 0]]], [[[1], [2]], [[2**80], [-1]]]))
    @example(([[[0, 2, 1], [1, 0, 0], [0, 1, 0]]], [[[5], [0], [-7]]]))  # zero leading minor
    @example(([[[1, 2], [2, 4]]], [[0], [0]]))  # only a singular member
    def test_solve_matches_sympy(self, system):
        # det A * A^-1 B is adj A @ B, for a shared B and for a stack of them.
        stack, b = system
        b = np.array(b, dtype=object)
        kept = nonsingular_members(stack, b)
        if kept:
            dets, dx = solve_stack(as_stack([stack[i] for i in kept]), b if b.ndim == 2 else b[kept])
            assert dets.tolist() == [sympy.Matrix(stack[i]).det() for i in kept]
            rhs = [b if b.ndim == 2 else b[i] for i in kept]
            assert dx.tolist() == [
                (sympy.Matrix(sympy_adjugate(stack[i])) * sympy.Matrix(r.tolist())).tolist()
                for i, r in zip(kept, rhs)
            ]
            assert all(type(x) is int for x in dx.flat)

    def test_input_left_unchanged(self):
        a = as_stack([[[0, 1], [1, 0]], [[2, 1], [1, 3]]])
        b = np.array([[[1], [2]], [[3], [4]]], dtype=object)
        before, b_before = a.copy(), b.copy()
        det_stack(a)
        solve_stack(a, b)
        solve_stack(a, np.identity(2, dtype=object))
        assert (a == before).all() and (b == b_before).all()


def residue_stack(rng, size, bound, prime):
    """Six int64 size x size members with entries in [-bound, bound]: any,
    a zero first pivot, zero columns, singular over Z, singular mod prime
    but not over Z, and entries within 3 of +-(2**31 - 1)."""
    a = rng.integers(-bound, bound + 1, (6, size, size))
    a[1, 0, 0] = 0  # a swap, or a singular member
    a[2] = a[2] @ np.diag(rng.integers(0, 2, size))
    a[3, -1] = a[3, 0]
    # Row -1 = row 0 + prime * e_k: det = prime * cofactor, which is 0 mod
    # prime; over Z it is 0 only when the cofactor is.
    a[4, -1] = a[4, 0]
    a[4, -1, rng.integers(size)] += prime
    a[5] = rng.choice([-1, 1], (size, size)) * (2**31 - 1 - rng.integers(0, 4, (size, size)))
    return a


class TestResidueBareiss:
    """det_stack(a, prime) on int64 stacks against the exact determinant mod prime."""

    @given(st.integers(1, 8), st.integers(0, 2**32), st.sampled_from([5, 7, 2**31 - 1, 2**31 - 69]),
           st.sampled_from([3, 2**31 - 1]))
    @example(8, 0, 2**31 - 1, 2**31 - 1)  # int64 headroom: the largest prime and entries at size 8
    @example(8, 1, 5, 3)
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_det_mod_prime(self, size, seed, prime, bound):
        a = residue_stack(np.random.default_rng(seed), size, bound, prime)
        before = a.copy()
        got = det_stack(a, prime)
        assert got.dtype == np.int64
        assert got.tolist() == [d % prime for d in det_stack(a.astype(object))]
        assert (a == before).all()

    @pytest.mark.parametrize("rows, det", [
        ([[1, 2], [3, 1]], -5),  # singular mod 5, not over Z
        ([[5, 1], [1, 1]], 4),  # a zero pivot mod 5 only: a swap mod 5, none over Z
        ([[5, 0, 1], [1, 5, 0], [0, 1, 5]], 126),  # two swaps mod 5, sign +1
        ([[0, 0], [0, 7]], 0),  # singular at the first step, a nonzero pivot after it
        ([[-3]], -3),
    ])
    def test_small_members_mod_5(self, rows, det):
        assert det_stack(as_stack([rows]).astype(object))[0] == det
        assert det_stack(np.array([rows]), 5).tolist() == [det % 5]


class TestPD:
    def test_cholesky_identity(self):
        assert np.allclose(cholesky(np.eye(3)), np.eye(3))
        assert np.allclose(cholesky(Matrix.identity(3)), np.eye(3))

    def test_cholesky_indefinite(self):
        with pytest.raises(NotPD):
            cholesky(np.diag([1.0, -1.0]))

    def test_cholesky_of_a_non_square_array(self):
        with pytest.raises(ValueError, match="^symmetric matrix required$"):
            cholesky(np.zeros((2, 3)))

    def test_cholesky_by_hand(self):
        l = cholesky(np.array([[4.0, 2.0], [2.0, 2.0]]))
        assert np.allclose(l, [[2.0, 0.0], [1.0, 1.0]])

    @pytest.mark.parametrize("scale", [1e-14, 1.0, 1e14])
    def test_cholesky_symmetry_is_relative(self, scale):
        a = np.array([[4.0, 2.0], [2.0, 2.0]]) * scale
        assert np.allclose(cholesky(a), np.sqrt(scale) * np.array([[2.0, 0.0], [1.0, 1.0]]))
        # asymmetric at the matrix's own scale, whatever that scale is
        skew = a + np.array([[0.0, 1e-3], [0.0, 0.0]]) * scale
        with pytest.raises(ValueError, match="symmetric"):
            cholesky(skew)

    @pytest.mark.parametrize(
        "a", [[[np.inf]], [[np.nan]], [[1.0, np.inf], [np.inf, 1.0]], [[-np.inf, 0.0], [0.0, 1.0]]]
    )
    def test_non_finite_refused(self, a):
        # numpy factored [[inf]] into [[inf]] after warning "atol: inf"
        with pytest.raises(ValueError, match="^non-finite matrix entry$"):
            cholesky(np.array(a))
        with pytest.raises(ValueError, match="^non-finite matrix entry$"):
            logdet_pd(np.array(a))

    @given(
        st.integers(1, 5).flatmap(lambda m: arrays(
            float, (m, m), elements=st.floats(-1e6, 1e6, allow_subnormal=False))),
        st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        st.integers(0, 2**32 - 1),
    )
    @example(np.array([[1.0, 1e-12], [0.0, 1.0]]), 0.0, 0)  # exactly at atol
    @example(np.array([[1.0, np.nextafter(1e-12, 1.0)], [0.0, 1.0]]), 0.0, 0)  # one ulp past it
    @example(np.array([[2.0, 1.0 + 2e-8], [1.0, 1.0]]), 0.0, 0)  # rtol's share of |a^T|
    def test_symmetry_check_is_allclose(self, a, shift, seed):
        # Shift the upper triangle by `shift` times the tolerance itself, so
        # that entries land at it, inside it and past it.
        rng = np.random.default_rng(seed)
        a = np.tril(a) + np.tril(a, -1).T
        atol = 1e-12 * np.abs(a).max(initial=0.0)
        bump = shift * (atol + 1e-8 * np.abs(a)) * rng.choice([-1.0, 1.0], a.shape)
        a = a + np.triu(bump, 1)
        want = np.allclose(a, a.T, rtol=1e-8, atol=1e-12 * np.abs(a).max(initial=0.0))
        try:
            cholesky(a)
            symmetric = True
        except NotPD:
            symmetric = True
        except ValueError as exc:
            assert str(exc) == "symmetric matrix required"
            symmetric = False
        assert symmetric == want

    def test_exact_pd_predicate(self):
        assert Matrix([[4, 2], [2, 2]]).is_positive_definite()
        assert not diagonal([1, -1]).is_positive_definite()
        assert not Matrix([[1, 2], [3, 4]]).is_positive_definite()

    def test_logdet_pd(self):
        s = np.diag([2.0, 4.0])
        assert logdet_pd(s) == pytest.approx(np.log(8.0))
        with pytest.raises(NotPD):
            logdet_pd(np.diag([1.0, -1.0]))


def per_entry_format(a):
    """The text format written one entry at a time, with a type check per
    entry: each float in orjson's spelling of a Python float, each fraction
    as p/q or an integer."""

    def entry(x):
        if isinstance(x, Fraction):
            return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
        return orjson.dumps(float(x)).decode()

    rows = a.data if isinstance(a, Matrix) else np.asarray(a, dtype=float).tolist()
    r, c = a.shape
    return "\n".join([f"{r} {c}"] + [" ".join(entry(x) for x in row) for row in rows]) + "\n"


class TestTextFormat:
    def test_read_ints_takes_ascii_digits_with_a_sign(self):
        tokens = ["3", "+3", "-3", "007", "-0", "123456789012345678901234567890"]
        assert read_ints(tokens, 6, "bad") == [3, 3, -3, 7, 0, 123456789012345678901234567890]
        assert read_ints([], 0, "bad") == []

    @pytest.mark.parametrize(
        "token", ["1_0", "\u0663", "\uff13", " 3", "3\n", "", "+", "--3", "3.0", "0x3", "1e3"]
    )
    def test_read_ints_refuses_other_spellings(self, token):
        # int() reads the first five as 10, 3, 3, 3 and 3
        with pytest.raises(ValueError, match="^bad header$"):
            read_ints(["2", token], 2, "bad header")

    @pytest.mark.parametrize("tokens", [["1"], ["1", "2", "3"]])
    def test_read_ints_refuses_another_count(self, tokens):
        with pytest.raises(ValueError, match="^bad header$"):
            read_ints(tokens, 2, "bad header")

    def test_round_trip_exact(self):
        a = Matrix([[Fraction(1, 2), 3], [-4, Fraction(7, 5)]])
        text = format_matrix(a)
        assert text.splitlines()[0] == "2 2"
        back = parse_matrix(iter(text.splitlines()), exact=True)
        assert back == a

    def test_round_trip_float(self):
        a = np.array([[0.5, 3.0], [-4.0, 1.4]])
        back = parse_matrix(iter(format_matrix(a).splitlines()))
        assert np.allclose(back, a)

    @given(
        arrays(
            float,
            st.tuples(st.integers(0, 4), st.integers(1, 4)),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    @example(np.array([[-0.0, 5e-324, -2.2250738585072e-309, 1.7976931348623157e308],
                       [0.1, -1e-320, np.nextafter(1.0, 2.0), -1.7976931348623157e308]]))
    @example(np.zeros((0, 3)))
    def test_round_trip_float_bits(self, a):
        # repr writes the shortest string that reads back to the same double;
        # the parse must read it back bit for bit, sign of zero included
        back = parse_matrix(iter(format_matrix(a).splitlines()))
        assert back.shape == a.shape
        assert np.array_equal(back.view(np.uint64), a.view(np.uint64))

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize(
        "text",
        ["2 2\n1\t2\n3 4\n", "2 2\n  1    2\n\t3 \t 4  \n", "2 2\r\n1 2\r\n3 4\r\n"],
    )
    def test_tabs_spaces_and_crlf_accepted(self, text, exact):
        # as split by str.splitlines (parse_sample_set) and as read from a file
        for lines in (text.splitlines(), io.StringIO(text, newline="")):
            back = parse_matrix(lines, exact=exact)
            assert back.shape == (2, 2)
            assert np.array_equal(back.to_numpy() if exact else back,
                                  [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("exact", [False, True])
    def test_rows_narrower_than_the_header_rejected(self, exact):
        with pytest.raises(ValueError, match="^bad matrix row width$"):
            parse_matrix(["2 3", "1 2", "3 4"], exact=exact)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("row", ["", "  ", "#", "# comment", "1 # 2"])
    def test_blank_or_comment_row_rejected(self, row, exact):
        with pytest.raises(ValueError):
            parse_matrix(iter(["3 2", "1 2", row, "3 4"]), exact=exact)
        with pytest.raises(ValueError):
            parse_matrix(iter(["1 2", row]), exact=exact)

    @pytest.mark.parametrize(
        "a",
        [
            np.array([[-0.0, 0.0, 5e-324], [2.2250738585072e-309, -1e-320, 1e300]]),
            np.array([[1.0, -2.0, 3e15], [1e16, 2.0**53 + 2, -7.0]]),
            np.array([[0.1, -1 / 3, np.nextafter(1.0, 2.0)]]),
            np.zeros((0, 3)),
        ],
    )
    def test_float_rows_match_per_entry_route(self, a):
        assert format_matrix(a) == per_entry_format(a)

    @given(st.integers(1, 6).flatmap(lambda m: arrays(
        float, (m, m), elements=st.floats(allow_nan=False, allow_infinity=False))))
    @example(np.array([[2.0, 0.1, -1 / 3], [0.1, 5e-324, 1e300], [-1 / 3, 1e300, -0.0]]))
    @example(np.array([[2.0, 0.1], [0.1 + 2**-56, 3.0]]))  # one ulp short of symmetric
    @example(np.array([[1.0, -0.0, 2.0], [0.0, 1.0, 3.0], [2.0, 3.0, 1.0]]))  # 0.0 facing -0.0
    @example(np.array([[-1e-320]]))
    @example(np.zeros((0, 0)))
    def test_square_matches_per_entry_route(self, a):
        # each double has one spelling, so a bitwise-symmetric matrix gives symmetric text
        for b in (a, np.asfortranarray(a), np.triu(a) + np.triu(a, 1).T):
            assert format_matrix(b) == per_entry_format(b)

    def test_orjson_spelling(self):
        # the shortest round-trip decimal, as repr, but never with "e-05" or "e+16"
        a = np.array([[1e-05, 1e16, -0.0], [1e-7, 1e22, 123.25]])
        assert format_matrix(a) == "2 3\n0.00001 1e16 -0.0\n1e-7 1e22 123.25\n"
        assert format_matrix(np.zeros((0, 4))) == "0 4\n"
        assert format_matrix(np.zeros((2, 0))) == "2 0\n\n\n"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_not_written(self, bad):
        # orjson writes null for each of them
        with pytest.raises(ValueError, match="^non-finite matrix entry"):
            format_matrix(np.array([[1.0, 2.0], [bad, 3.0]]))

    @given(
        arrays(
            float,
            st.tuples(st.integers(1, 4), st.integers(1, 4)),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    @example(np.array([[-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
                       [1e-05, 1e16, 123456789012345678.0, -1e-320]]))
    def test_text_reads_back_bit_for_bit(self, a):
        # through the program's reader, float() entry by entry and np.loadtxt
        lines = format_matrix(a).splitlines()
        bits = a.view(np.uint64)
        assert np.array_equal(parse_matrix(iter(lines)).view(np.uint64), bits)
        by_float = np.array([[float(t) for t in row.split(" ")] for row in lines[1:]])
        assert np.array_equal(by_float.view(np.uint64), bits)
        by_loadtxt = np.loadtxt(lines[1:], dtype=float, ndmin=2)
        assert np.array_equal(by_loadtxt.view(np.uint64), bits)

    def test_exact_rows_match_per_entry_route(self):
        a = Matrix([[Fraction(-1, 2), 0, 3], [Fraction(10**30, 7), -4, Fraction(7, 5)]])
        assert format_matrix(a) == per_entry_format(a)

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            parse_matrix(iter(["2 2", "1 2 3", "4 5"]))

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf", "1/0", "1e400/1"])
    def test_non_finite_rejected(self, token, exact):
        with pytest.raises(ValueError):
            parse_matrix(iter(["2 2", f"1 {token}", "3 4"]), exact=exact)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("lines", [[], ["2 2"], ["2 2", "1 2"]])
    def test_truncated_rejected(self, lines, exact):
        with pytest.raises(ValueError, match="truncated"):
            parse_matrix(iter(lines), exact=exact)

    def test_oversized_header_rejected(self):
        # 8e14 bytes cannot be preallocated; the header alone is refused
        with pytest.raises(ValueError, match="too large"):
            parse_matrix(iter(["1000000000 100000"]))

    def test_fraction_rows_in_float_mode(self):
        back = parse_matrix(iter(["2 2", "1/2 3", "-4 7/5"]))
        assert back.tolist() == [[0.5, 3.0], [-4.0, 1.4]]

    def test_overflow_rejected_in_float_mode(self):
        with pytest.raises(ValueError, match="inf"):
            parse_matrix(iter(["1 2", "1 1e400"]))

    def test_fraction_overflow_rejected_in_float_mode(self):
        big = f"{10**400}/3"
        assert parse_matrix(iter(["1 2", f"1 {big}"]), exact=True)[0, 1] == Fraction(10**400, 3)
        with pytest.raises(ValueError, match="overflows"):
            parse_matrix(iter(["1 2", f"1 {big}"]))

    @pytest.mark.parametrize(
        "tokens",
        [
            ["1/3", "-2/7", "5"],
            [f"{10**30}/7", "1/" + "1" + "0" * 320, "-3/" + "1" * 330],  # huge, subnormal, tiny
            ["1/10", "0.1", "-1e-320"],  # decimals in a p/q matrix are rounded the same way
        ],
    )
    def test_fraction_rows_round_like_float_of_fraction(self, tokens):
        back = parse_matrix(iter(["2 3", " ".join(tokens), "1 2 3"]))
        want = np.array([float(Fraction(t)) for t in tokens])
        assert np.array_equal(back[0].view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize(
        "module, reader, row",
        [(np, "loadtxt", "+1 2"), (orjson, "loads", "1 2")],  # JSON has no "+1"
        ids=["loadtxt", "orjson"],
    )
    def test_memory_error_in_float_parse_is_too_large(self, monkeypatch, module, reader, row):
        calls = []

        def exhausted(*args, **kwargs):
            calls.append(reader)
            raise MemoryError

        monkeypatch.setattr(module, reader, exhausted)
        with pytest.raises(ValueError, match="too large"):
            parse_matrix(iter(["2 2", row, "3 4"]))
        assert calls == [reader]

    @staticmethod
    def float_read(lines):
        """parse_matrix's float array, or the message of its ValueError."""
        try:
            return parse_matrix(iter(lines))
        except ValueError as e:
            return str(e)

    def assert_reads_as_loadtxt(self, rows):
        # the reference is parse_matrix with the orjson reader off, so that
        # every matrix goes to np.loadtxt: the same bits, or the same message
        for width in {len(rows[0].split()), len(rows[0].replace(",", " ").split())}:
            lines = [f"{len(rows)} {width}", *rows]
            with mock.patch.object(orjson, "loads", side_effect=orjson.JSONDecodeError("off", "", 0)):
                want = self.float_read(lines)
            got = self.float_read(lines)
            if isinstance(want, str):
                assert got == want
            else:
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_repr_rows_take_the_json_reader(self, monkeypatch):
        a = np.random.default_rng(0).standard_normal((3, 4)) * [1, -1e-300, 1e300, 0]
        loads = mock.Mock(wraps=orjson.loads)
        monkeypatch.setattr(orjson, "loads", loads)
        monkeypatch.setattr(np, "loadtxt", mock.Mock(side_effect=AssertionError))
        back = parse_matrix(iter(format_matrix(a).splitlines()))
        assert np.array_equal(back.view(np.uint64), a.view(np.uint64))
        assert loads.call_count == 3

    @pytest.mark.parametrize(
        "token",
        [
            "-0", "-0.0", "-0e5", "-0E-0", "-1e-400", "0", "0.0",
            "9007199254740993",  # 2^53 + 1: a JSON int, rounded to even
            "9223372036854775809", "18446744073709551615",  # above int64, within uint64
            "18446744073709553665",  # 2^64 + 2049: past uint64, rounds up to 2^64 + 4096
            "1" * 800,  # past the largest double
            "1." + "0" * 798 + "1",
            # the midpoint of 1 and its successor, then nudged up at digit 800
            "1.00000000000000011102230246251565404236316680908203125",
            "1.00000000000000011102230246251565404236316680908203125".ljust(799, "0") + "1",
            "2.4703282292062328e-324", "2.4703282292062327e-324", "5e-324",
            "1e400", "-1e400", "1e-400", "1.7976931348623157e308", "1.7976931348623159e308",
            "+1", ".5", "01", "-01", "1.", "1e", "e5", "-", "1e+5", "1E-5",
            "true", "null", "NaN", "inf", '"1"', "[1]", "{}", "1,2", "1\t2", "1  2", "1\u00a02", "\u0661",
        ],
    )
    def test_float_rows_read_as_loadtxt(self, token):
        # both readers round as float() does; JSON's int "-0" and the
        # spellings JSON lacks must come out as loadtxt reads them
        for rows in ([token], [f"1.5 {token}"], [f"{token} -2.5"], [f"-0 {token}"], [f"0 {token}"]):
            self.assert_reads_as_loadtxt(rows)
            self.assert_reads_as_loadtxt([*rows, " ".join(["3"] * len(rows[0].split(" ")))])
            self.assert_reads_as_loadtxt([" ".join(["3"] * len(rows[0].split(" "))), *rows])

    @given(st.lists(st.lists(st.one_of(
        st.floats(allow_nan=False).map(repr),
        st.integers(-(2**70), 2**70).map(str),
        st.sampled_from(["-0", "0", "-0.0", "+1", ".5", "1.", "01", "1e400", "x", ""]),
        st.from_regex(r"-?[0-9]{1,30}(\.[0-9]{0,30})?([eE][+-]?[0-9]{1,3})?", fullmatch=True),
    ), min_size=1, max_size=4).map(" ".join), min_size=1, max_size=3))
    @example(["-0 1"])
    @example(["1 2", "0 -0"])
    def test_float_rows_read_as_loadtxt_random(self, rows):
        self.assert_reads_as_loadtxt(rows)

    @pytest.mark.parametrize(
        "first, token, as_float",
        [
            pytest.param("1", "1_0", 10.0, id="1_0-10.0"),
            pytest.param("1", "\u0661", 1.0, id="\u0661-1.0"),
            pytest.param("1/2", "1_0", 10.0, id="fraction-1_0"),
            pytest.param("1/2", "\u0661", 1.0, id="fraction-\u0661"),
        ],
    )
    def test_float_mode_reads_ascii_decimals_only(self, first, token, as_float):
        # float() and Fraction() read an underscore separator and a
        # non-ASCII digit (here the Arabic-Indic one); numpy's C reader,
        # behind float mode, does not, and neither does a "p/q" row
        assert float(token) == as_float
        with pytest.raises(ValueError):
            parse_matrix(iter(["1 2", f"{first} {token}"]))

    @pytest.mark.parametrize("token", ["1_0", "\u0661", "1/2_0"])
    def test_exact_mode_reads_ascii_numbers_only(self, token):
        assert Fraction(token)
        with pytest.raises(ValueError, match="ASCII"):
            parse_matrix(iter(["1 2", f"1 {token}"]), exact=True)
