"""Dense linear algebra over exact rationals and binary64 floats.

The exact side is a small immutable ``Matrix`` class: num, a read-only 2-D
numpy object array of Python ints, over one positive denominator, in
lowest terms.  Its sums, products and stacking are array expressions.
Every exact determinant, solve, inverse and PD test runs one fraction-free
(Bareiss) elimination kernel, _bareiss_stack, on an object stack of such
arrays, one step for every member at once, through its two wrappers:
det_stack (forward elimination) and solve_stack (Gauss-Jordan).
A Matrix passes num[None], a stack of one; the determinant identity's
check passes hundreds of tiny matrices of one shape, where a pass per
matrix would cost more in Python overhead than in arithmetic.  The
forward mode also runs on int64 residues mod a prime below 2**31, with no
division: det_stack(a, prime) gives the ML-degree count its grid
determinants.  A ``Fraction`` is made only where one is read: an entry, a
determinant, or ``data``.  The float side is a Cholesky factorization and a
log-determinant over numpy.  Both sides share the same text
serialization: a "rows cols" header line followed by whitespace-separated
rows, rationals written as ``p/q``.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from itertools import islice

import numpy as np


class SingularMatrix(Exception):
    """Raised when an exact inverse or solve hits a singular matrix."""


class NotPD(Exception):
    """Raised when a Cholesky factorization fails; a normal outcome, not a bug."""


class Matrix:
    """Immutable dense rational matrix: the integer array num over one int den.

    num is a read-only 2-D object array of Python ints, den > 0 and gcd(den,
    every entry of num) = 1, so a value has exactly one (num, den) and == and
    hash compare values.
    """

    __slots__ = ("num", "den")

    def __init__(self, rows):
        """Rows of ints, Fractions, or anything Fraction() accepts ("1/2")."""
        rows = [tuple(r) for r in rows]
        if not rows or not rows[0]:
            raise ValueError("matrix must be non-empty")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        den = 1
        if not all(type(x) is int for r in rows for x in r):
            # A numpy integer's Fraction keeps it as a fixed-width numerator.
            rows = [[Fraction(int(x) if isinstance(x, np.integer) else x) for x in r] for r in rows]
            # Over the lcm of reduced denominators the rows are in lowest terms.
            den = math.lcm(*(x.denominator for r in rows for x in r))
            rows = [[x.numerator * (den // x.denominator) for x in r] for r in rows]
        self._set(np.array(rows, dtype=object), den)

    def _set(self, num, den):
        num.flags.writeable = False
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def from_ints(cls, num, den=1):
        """The matrix num / den for a 2-D array (or rows) of ints num and an int den != 0.

        num is copied as Python ints, den made positive and gcd(den, *num) divided out.
        """
        rows = num if isinstance(num, np.ndarray) else [[operator.index(x) for x in r] for r in num]
        num = np.array(rows, dtype=object)  # numpy integers in rows become Python ints too
        if den < 0:
            num, den = -num, -den
        g = math.gcd(den, *num.flat)
        if g > 1:
            num, den = num // g, den // g
        m = object.__new__(cls)
        m._set(num, den)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n):
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, r, c):
        return cls([[0] * c for _ in range(r)])

    @property
    def data(self):
        """The entries as rows of Fractions, made afresh on each read."""
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.num.tolist())

    def __getitem__(self, ij):
        return Fraction(self.num[ij], self.den)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.den == other.den and np.array_equal(self.num, other.num)

    def __hash__(self):
        return hash((self.shape, tuple(self.num.flat), self.den))

    def __repr__(self):
        return f"Matrix({[list(r) for r in self.data]})"

    def __add__(self, other):
        self._check_same_shape(other)
        den = math.lcm(self.den, other.den)
        return Matrix.from_ints(self.num * (den // self.den) + other.num * (den // other.den), den)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return Matrix.from_ints(c.numerator * self.num, self.den * c.denominator)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        return Matrix.from_ints(self.num @ other.num, self.den * other.den)

    @property
    def shape(self):
        return self.num.shape

    @property
    def rows(self):
        return self.num.shape[0]

    @property
    def cols(self):
        return self.num.shape[1]

    def transpose(self):
        return Matrix.from_ints(self.num.T, self.den)

    def is_symmetric(self):
        return self.rows == self.cols and np.array_equal(self.num, self.num.T)

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        den = math.lcm(self.den, other.den)
        num = np.hstack([self.num * (den // self.den), other.num * (den // other.den)])
        return Matrix.from_ints(num, den)

    def submatrix(self, row_idx, col_idx):
        return Matrix.from_ints(self.num[np.ix_(row_idx, col_idx)], self.den)

    def to_numpy(self):
        # int / int is correctly rounded, as float(Fraction) is, at any size.
        return (self.num / self.den).astype(float)

    def _check_square(self):
        if self.rows != self.cols:
            raise ValueError("square matrix required")

    def _check_same_shape(self, other):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    def det(self):
        """Exact determinant: det_stack of num as a stack of one, over den^rows."""
        self._check_square()
        (d,) = det_stack(self.num[None])
        return Fraction(d, self.den**self.rows)

    def solve(self, rhs):
        """Exact solve of self @ X = rhs over the integer arrays, then one division.

        With A = num/den and B = rhs.num/rhs.den, X = den * num^-1 rhs.num / rhs.den.
        """
        self._check_square()
        (d,), (dx,) = solve_stack(self.num[None], rhs.num)
        return Matrix.from_ints(self.den * dx, d * rhs.den)

    def inverse(self):
        return self.solve(Matrix.identity(self.rows))

    def is_positive_definite(self):
        """Exact PD test by Sylvester's criterion: symmetric, and every leading
        principal minor of num positive (den > 0 keeps their signs)."""
        minors = (det_stack(self.num[None, :j, :j])[0] for j in range(1, self.rows + 1))
        return self.is_symmetric() and all(m > 0 for m in minors)


def _bareiss_stack(a, reduce_above=False, prime=None):
    """Fraction-free (Bareiss 1968) elimination of a stack, one step for every member.

    a is a (b, s, c) object array of Python ints, c >= s, and pivots come
    from the leading s x s block of each member.  Step j maps each row
    below the pivot row to (p*row - f*pivot row) / prev, p the pivot, f the
    row's entry under it and prev the last pivot; every division is exact.
    reduce_above also clears the rows above each pivot (Gauss-Jordan),
    leaving a nonsingular block as d*I, d the last pivot; without it the
    pivots stay on the diagonal.  Forward elimination also runs mod a
    prime below 2**31: a is then an int64 stack, reduced mod prime first,
    and each step takes the same product difference mod prime with no
    division (prev stays 1), so no residue leaves [0, prime) and no
    product leaves int64.  A member whose pivot is zero swaps in the
    first row below with a nonzero entry in that column; one with none
    there is singular, and its diagonal entry is set to its last pivot so
    that the step leaves it as it is.  Returns (sign, reduced): sign per
    member is (-1)**swaps, or 0 when the block is singular, and reduced
    holds the reduced rows, so over Z sign * reduced[:, -1, s - 1] is the
    block's determinant.
    """
    a = a.copy() if prime is None else a % prime
    count, size = a.shape[:2]
    sign = np.ones(count, dtype=a.dtype)
    prev = np.ones((count, 1, 1), dtype=a.dtype)
    for j in range(size):
        zero = a[:, j, j] == 0
        if zero.any():
            below = a[:, j:, j] != 0
            piv = j + np.argmax(below, axis=1)
            swap = np.nonzero(zero & below.any(axis=1))[0]
            a[swap, j], a[swap, piv[swap]] = a[swap, piv[swap]], a[swap, j]  # fancy indexing copies
            sign[swap] = -sign[swap]
            singular = np.nonzero(zero & ~below.any(axis=1))[0]
            sign[singular] = 0
            a[singular, j, j] = prev[singular, 0, 0]
        p = a[:, j, j].reshape(count, 1, 1)
        if reduce_above:
            prow = a[:, j].copy()
            a = (p * a - a[:, :, j : j + 1] * prow[:, None]) // prev
            a[:, j] = prow
        else:
            # Below the pivot row, columns left of j are already zero.
            rest = a[:, j + 1 :, j:]
            rest = p * rest - rest[:, :, :1] * a[:, j : j + 1, j:]
            a[:, j + 1 :, j:] = rest // prev if prime is None else rest % prime
        if prime is None:
            prev = p
    return sign, a


def det_stack(a, prime=None):
    """Determinants of a (b, s, s) stack, one Bareiss pass for all: exact for
    Python ints, or mod a prime below 2**31 for int64.  Mod prime, step j
    scales each later row by pivot j, so the pivots' product is divided by
    prod pivot_j**(s-1-j), never 0 mod prime: the singular rule puts 1 there."""
    sign, reduced = _bareiss_stack(a, prime=prime)
    if prime is None:
        return sign * reduced[:, -1, -1]
    run = den = np.ones(len(a), dtype=np.int64)
    for pivot in reduced.diagonal(axis1=1, axis2=2).T:
        den = den * run % prime  # run is the product of the pivots before this one
        run = run * pivot % prime
    return sign * run % prime * np.array([pow(d, -1, prime) for d in den.tolist()], dtype=np.int64) % prime


def solve_stack(a, b):
    """(det A, det A * A^-1 B) of each member of a (count, s, s) stack of Python ints.

    b is a (count, s, c) stack or one (s, c) array for every member.  The
    Gauss-Jordan form of [A | B] leaves d*I | d*A^-1 B, d the last pivot;
    with the sign of the row swaps, det A = sign*d, and B = I gives
    adj A = det A * A^-1.  Raises SingularMatrix when any member is singular.
    """
    size = a.shape[-1]
    b = np.broadcast_to(b, (*a.shape[:2], b.shape[-1]))
    sign, reduced = _bareiss_stack(np.concatenate([a, b], axis=2), reduce_above=True)
    if not sign.all():
        raise SingularMatrix("exact rank deficiency")
    return sign * reduced[:, -1, size - 1], sign[:, None, None] * reduced[:, :, size:]


def cholesky(s):
    """Lower-triangular L with L @ L.T = s, or raise NotPD.

    s must be finite and symmetric up to 1e-12 of its largest entry (plus a
    relative 1e-8 per entry), at any scale: np.allclose(s, s.T), written
    out.  Exact input is factored in floats; use
    Matrix.is_positive_definite for an exact PD decision.
    """
    a = s.to_numpy() if isinstance(s, Matrix) else np.asarray(s, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("symmetric matrix required")
    if not np.isfinite(a).all():
        raise ValueError("non-finite matrix entry")
    atol = 1e-12 * np.abs(a).max(initial=0.0)
    if not (np.abs(a - a.T) <= atol + 1e-8 * np.abs(a.T)).all():
        raise ValueError("symmetric matrix required")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotPD("matrix is not positive definite") from None


def logdet_pd(s):
    """log det of a PD matrix via Cholesky; raises NotPD otherwise."""
    l = cholesky(s)
    return 2.0 * float(np.sum(np.log(np.diag(l))))


def format_matrix(a):
    """Shared text format: "rows cols" header, then one line per row.

    Float entries are written by orjson, the shortest decimal that reads
    back to the same binary64 (1e-05 as 0.00001, 1e+16 as 1e16), so each
    double has one spelling and a bitwise-symmetric matrix symmetric text.
    orjson is imported by the first float call.  A non-finite entry raises
    ValueError, since orjson would write it as null.
    """
    if isinstance(a, Matrix):
        r, c = a.shape
        rows = (" ".join(map(str, row)) for row in a.data)
    else:
        import orjson

        a = np.ascontiguousarray(a, dtype=np.float64)
        r, c = a.shape
        if not np.isfinite(a).all():
            raise ValueError("non-finite matrix entry: cannot be written")
        # "[[x,y],[z,w]]": no number holds a comma or a bracket
        text = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY).decode()
        rows = text[2:-2].replace(",", " ").split("] [") if r else []
    return "\n".join([f"{r} {c}", *rows]) + "\n"


def read_ints(tokens, count, message):
    """The ints of count tokens, each ASCII [+-]?[0-9]+, else ValueError(message).

    Every integer read from outside the program comes through here: int()
    alone would also read "1_0" as 10 and "\u0663" (Arabic-Indic three) as 3.
    """
    if len(tokens) != count or not all(re.fullmatch("[+-]?[0-9]+", t) for t in tokens):
        raise ValueError(message)
    return [int(t) for t in tokens]


# Every byte but [0-9eE.+-] becomes "x", which JSON reads nowhere, and a space
# becomes ",", so a row is a JSON array exactly when it is decimals split by
# single spaces: no literal, string, nesting, tab or empty entry gets through.
_TO_JSON = bytes(
    ord(",") if b == ord(" ") else b if chr(b) in "0123456789eE.+-" else ord("x") for b in range(256)
)


def _json_rows(rows, out):
    """Fill out (r x c) from rows read by orjson, or return False if any row is not JSON.

    A JSON number is a subset of what loadtxt reads (no "+1", ".5", "01",
    "1.", "inf" or "nan"), and orjson rounds it as float() does: correctly.
    The one difference is "-0", an int to JSON, so a zero row holding one
    goes to loadtxt too.  orjson is imported by the first call, as flipflop
    imports scipy.  One row at a time: one JSON text for the whole matrix
    would hold a second copy of it.
    """
    import orjson

    for i, row in enumerate(rows):
        if not row.isascii():
            return False
        try:
            values = orjson.loads(b"[" + row.encode().translate(_TO_JSON) + b"]")
        except orjson.JSONDecodeError:  # also 1e400, which loadtxt reads as inf
            return False
        if len(values) != out.shape[1]:
            return False
        out[i] = values
        if not out[i].all() and "-0" in row.split(" "):
            return False
    return True


def parse_matrix(lines, exact=False):
    """Parse the shared text format: a header, then the rows it declares.

    Returns a Matrix when exact=True, else a float ndarray: read by
    orjson when every row is decimals split by single spaces (_json_rows),
    else by numpy's C text reader, or read exactly and rounded when any
    entry is "p/q".  Both float readers round as float() does, so a matrix
    has the same bits whichever reads it.  Non-finite or unparsable
    entries, zero denominators, blank or short rows and a file that ends
    before its last declared row raise ValueError.
    """
    it = iter(lines)
    header = next(it, None)
    if header is None:
        raise ValueError("truncated matrix: no header")
    r, c = read_ints(header.split(), 2, "matrix header is not two integers 'rows cols'")
    try:
        out = np.empty((r, c))  # refuse a header no memory could hold before reading rows
    except MemoryError:
        raise ValueError(f"matrix header {r} x {c} is too large") from None
    rows = list(islice(it, r))
    if len(rows) < r:
        raise ValueError(f"truncated matrix: {len(rows)} of {r} rows")
    if any(not row or row.isspace() for row in rows):
        raise ValueError("blank line inside the declared rows")
    try:
        if exact or any("/" in row for row in rows):
            # Fraction() reads "1_0" and non-ASCII digits, which the C reader
            # refuses; it rejects "nan" and "inf" by itself.
            if not all(row.isascii() and "_" not in row for row in rows):
                raise ValueError("matrix entries must be ASCII numbers without '_'")
            m = Matrix([row.split() for row in rows])
            out = m if exact else m.to_numpy()
        elif r and not _json_rows(rows, out):  # loadtxt warns on input with no rows
            out = np.loadtxt(rows, dtype=float, comments=None, ndmin=2)
    except ZeroDivisionError:
        raise ValueError("non-finite matrix entry: zero denominator") from None
    except OverflowError:
        raise ValueError("non-finite matrix entry: a fraction overflows") from None
    except MemoryError:
        raise ValueError(f"matrix header {r} x {c} is too large") from None
    if out.shape != (r, c):
        raise ValueError("bad matrix row width")
    if exact:
        return out
    finite = np.isfinite(out)
    if not finite.all():
        raise ValueError(f"non-finite matrix entry {out[~finite][0]}")
    return out
