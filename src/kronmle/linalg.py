"""Dense linear algebra over exact rationals and binary64 floats.

The exact side is a small immutable ``Matrix`` class over
``fractions.Fraction`` whose determinant, solve, inverse and PD test share
one fraction-free integer elimination, dividing once at the end.  The float
side dispatches to numpy.  Both sides share the same text serialization: a
"rows cols" header line followed by whitespace-separated rows, rationals
written as ``p/q``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Relative pivot threshold below which a float matrix is treated as singular.
FLOAT_PIVOT_RTOL = 1e-12


class SingularMatrix(Exception):
    """Raised when an inverse or solve hits a (numerically) singular matrix."""


class NotPD(Exception):
    """Raised when a Cholesky factorization fails; a normal outcome, not a bug."""


def _as_fraction_rows(rows):
    # Entries that already are Fractions are kept, not re-wrapped.
    return tuple(
        tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in rows
    )


class Matrix:
    """Immutable dense matrix with exact rational entries, stored row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows):
        data = _as_fraction_rows(rows)
        if not data or not data[0]:
            raise ValueError("matrix must be non-empty")
        ncols = len(data[0])
        if any(len(r) != ncols for r in data):
            raise ValueError("ragged rows")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, r, c):
        return cls([[0] * c for _ in range(r)])

    @classmethod
    def diagonal(cls, entries):
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def column(cls, entries):
        return cls([[x] for x in entries])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return f"Matrix({[list(r) for r in self.data]})"

    def __add__(self, other):
        self._check_same_shape(other)
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ]
        )

    def __sub__(self, other):
        self._check_same_shape(other)
        return Matrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ]
        )

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return Matrix([[c * x for x in row] for row in self.data])

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        bt = other.transpose().data
        return Matrix(
            [
                [sum(a * b for a, b in zip(row, col)) for col in bt]
                for row in self.data
            ]
        )

    @property
    def shape(self):
        return (self.rows, self.cols)

    def transpose(self):
        return Matrix(list(zip(*self.data)))

    def trace(self):
        self._check_square()
        return sum(self.data[i][i] for i in range(self.rows))

    def is_symmetric(self):
        return self.rows == self.cols and self.data == self.transpose().data

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return Matrix([ra + rb for ra, rb in zip(self.data, other.data)])

    def vstack(self, other):
        if self.cols != other.cols:
            raise ValueError("column count mismatch")
        return Matrix(self.data + other.data)

    def submatrix(self, row_idx, col_idx):
        return Matrix([[self.data[i][j] for j in col_idx] for i in row_idx])

    def to_numpy(self):
        return np.array([[float(x) for x in row] for row in self.data])

    def _check_square(self):
        if self.rows != self.cols:
            raise ValueError("square matrix required")

    def _check_same_shape(self, other):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    def det(self):
        """Exact determinant: the sign times the last Bareiss pivot, unscaled."""
        self._check_square()
        pivots, swaps, _, scale = _bareiss(self.data, self.cols)
        if len(pivots) < self.rows:
            return Fraction(0)
        return Fraction((-1) ** swaps * pivots[-1], scale)

    def solve(self, rhs):
        """Exact solve of self @ X = rhs: solve_fraction_free, then one division."""
        self._check_square()
        d, dx = solve_fraction_free(self.data, rhs.data)
        return Matrix([[Fraction(x, d) for x in row] for row in dx])

    def inverse(self):
        return self.solve(Matrix.identity(self.rows))

    def kron(self, other):
        return _kron_exact(self, other)

    def is_positive_definite(self):
        """Exact PD test via leading principal minors (requires symmetry).

        Without a row swap the Bareiss pivots are the leading principal
        minors, each times a positive row scale; a swap means a zero minor.
        """
        if not self.is_symmetric():
            return False
        pivots, swaps, _, _ = _bareiss(self.data, self.cols)
        return len(pivots) == self.rows and not swaps and all(p > 0 for p in pivots)


def solve_fraction_free(a, b):
    """Integer d != 0 and the integer rows of d*X, where A @ X = B.

    a (square) and b are sequences of rows of ints or Fractions.  One
    Bareiss pass over [A | B] (see _bareiss) leaves d*I | d*X, d its last
    pivot; Matrix.solve divides by d, and callers that keep working over
    the integers do not.  Raises SingularMatrix when A is singular.
    """
    n = len(a)
    if len(b) != n:
        raise ValueError("rhs row count mismatch")
    pivots, _, reduced, _ = _bareiss(
        [tuple(ra) + tuple(rb) for ra, rb in zip(a, b)], n, reduce_above=True
    )
    if len(pivots) < n:
        raise SingularMatrix("exact rank deficiency")
    return pivots[-1], [row[n:] for row in reduced]


def _bareiss(rows, ncols, reduce_above=False):
    """Fraction-free (Bareiss 1968) elimination of rational rows.

    Rows are scaled by the lcm of their denominators, so the work is over
    ints and every division is exact.  Pivots come from the first `ncols`
    columns; a column without one is skipped.  reduce_above also clears the
    rows above each pivot (Gauss-Jordan), leaving a full-rank square block
    as d * I, d the last pivot.  Returns (pivots, row swaps, reduced rows,
    product of row scales); det of the scaled block is (-1)**swaps * d.
    """
    scales = [math.lcm(*(x.denominator for x in row)) for row in rows]
    a = [[x.numerator * (s // x.denominator) for x in row] for row, s in zip(rows, scales)]
    swaps = 0
    pivots = []
    prev = 1
    for k in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][k]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            swaps += 1
        prow = a[r]
        p = prow[k]
        for i in range(0 if reduce_above else r + 1, len(a)):
            if i != r:
                row = a[i]
                f = row[k]
                # Below the pivot row, columns left of k are already zero.
                j = 0 if i < r else k
                row[j:] = [(p * x - f * y) // prev for x, y in zip(row[j:], prow[j:])]
        pivots.append(p)
        prev = p
    return pivots, swaps, a, math.prod(scales)


def _kron_exact(a, b):
    out = []
    for ra in a.data:
        for rb in b.data:
            out.append([x * y for x in ra for y in rb])
    return Matrix(out)


def kron(a, b):
    """Kronecker product; block (i, j) of the result is a[i, j] * b."""
    if isinstance(a, Matrix):
        return _kron_exact(a, b)
    return np.kron(a, b)


def det(a):
    """Determinant: Bareiss over rationals, LU (numpy) over floats."""
    if isinstance(a, Matrix):
        return a.det()
    return float(np.linalg.det(np.asarray(a, dtype=float)))


def solve(a, b):
    """Solve a @ X = b; raises SingularMatrix on (near-)rank deficiency."""
    if isinstance(a, Matrix):
        return a.solve(b)
    a = np.asarray(a, dtype=float)
    _check_float_nonsingular(a)
    return np.linalg.solve(a, np.asarray(b, dtype=float))


def inverse(a):
    if isinstance(a, Matrix):
        return a.inverse()
    a = np.asarray(a, dtype=float)
    _check_float_nonsingular(a)
    return np.linalg.inv(a)


def _check_float_nonsingular(a):
    scale = np.abs(a).max()
    if scale == 0:
        raise SingularMatrix("zero matrix")
    sign, _ = np.linalg.slogdet(a)
    if sign == 0 or np.linalg.cond(a) > 1.0 / FLOAT_PIVOT_RTOL:
        raise SingularMatrix("pivot below threshold")


def cholesky(s):
    """Lower-triangular L with L @ L.T = s, or raise NotPD.

    s must be symmetric up to 1e-12 of its largest entry (plus a relative
    1e-8 per entry), at any scale.  Exact input is factored in floats; use
    Matrix.is_positive_definite for an exact PD decision.
    """
    a = s.to_numpy() if isinstance(s, Matrix) else np.asarray(s, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("symmetric matrix required")
    atol = 1e-12 * np.abs(a).max(initial=0.0)
    if not np.allclose(a, a.T, rtol=1e-8, atol=atol):
        raise ValueError("symmetric matrix required")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotPD("matrix is not positive definite") from None


def logdet_pd(s):
    """log det of a PD matrix via Cholesky; raises NotPD otherwise."""
    l = cholesky(s)
    return 2.0 * float(np.sum(np.log(np.diag(l))))


def _format_fraction(x):
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def format_matrix(a):
    """Shared text format: "rows cols" header, then one line per row.

    Float entries are written by repr, which round-trips every binary64.
    """
    if isinstance(a, Matrix):
        r, c = a.shape
        rows = (" ".join(map(_format_fraction, row)) for row in a.data)
    else:
        a = np.asarray(a, dtype=float)
        r, c = a.shape
        rows = (" ".join(map(repr, row)) for row in a.tolist())
    return "\n".join([f"{r} {c}", *rows]) + "\n"


def parse_matrix(lines, exact=False):
    """Parse the shared text format from an iterator of lines.

    Returns a Matrix when exact=True, else a float ndarray filled row by
    row.  NaN and infinite entries (including floats that overflow), zero
    denominators, a wrong row width and a file that ends before the header
    or before the last declared row raise ValueError.
    """
    it = iter(lines)
    header = next(it, None)
    if header is None:
        raise ValueError("truncated matrix: no header")
    r, c = (int(t) for t in header.split())
    if exact:
        rows = []
    else:
        try:
            out = np.empty((r, c))
        except MemoryError:
            raise ValueError(f"matrix header {r} x {c} is too large") from None
    for i in range(r):
        line = next(it, None)
        if line is None:
            raise ValueError(f"truncated matrix: {i} of {r} rows")
        toks = line.split()
        if len(toks) != c:
            raise ValueError("bad matrix row width")
        try:
            if exact:
                rows.append([Fraction(t) for t in toks])
            elif "/" in line:
                out[i] = [float(Fraction(t)) for t in toks]
            else:
                out[i] = np.fromiter(map(float, toks), float, c)
        except ZeroDivisionError:
            raise ValueError("non-finite matrix entry: zero denominator") from None
        except OverflowError:
            raise ValueError("non-finite matrix entry: a fraction overflows") from None
    if exact:
        return Matrix(rows)  # Fraction() already rejects "nan" and "inf"
    finite = np.isfinite(out)
    if not finite.all():
        raise ValueError(f"non-finite matrix entry {out[~finite][0]}")
    return out
