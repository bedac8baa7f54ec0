"""The castling dual of a sample, and the [I | C] form of exact data.

Cut a k x (n*m2) matrix D^T whose rows span ker Y, Y = [Y1|...|Yn], into
n blocks Z_i of size k x m2: they form a (k, m2, n) sample, the castling
dual (Derksen, Makam & Walter 2022).  A change of basis, Z_i -> A Z_i,
keeps the dual's K2 MLE.  Its scatter T(Sigma) = sum_i Z_i Sigma Z_i^T is
the trace form of the reduced objective m2*logdet(T(Sigma)) - k*logdet(Sigma).
castle takes the basis from an SVD of float data.  canonicalize works
over Q: a nonsingular left block Y_* gives Y_*^-1 Y = [I | C] and
D^T = [C^T | -I_k], on which the determinant reduction identity
det(sum_i Y_i K Y_i^T) = det(K)^n * det(T(K^-1)) is checked: by
det_reduction_sides on integer stacks of one shape, with the stacked
Bareiss kernels of linalg, and by det_reduction_check on one exact form
as a stack of one.  descent follows the castles of a shape by shape alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import Matrix, SingularMatrix, det_stack, solve_stack
from .model import SampleSet, scatter_k2_stack


class DegenerateData(Exception):
    """The data concatenation, its left m1 x m1 block or a scatter is singular."""


@dataclass(frozen=True)
class CanonicalForm:
    """[I | C] and its dual sample; m1 and k are read off C, m2 and n off the dual."""

    C: Matrix  # m1 x k
    dual: SampleSet  # D^T = [C^T | -I_k]: n blocks Z_i of size k x m2

    @property
    def m1(self):
        return self.C.shape[0]

    @property
    def k(self):
        return self.C.shape[1]

    @property
    def m2(self):
        return self.dual.m2

    @property
    def n(self):
        return self.dual.n


def castle(sample):
    """The castling dual of a float sample: an orthonormal basis of ker Y, by SVD.

    Raises DegenerateData when Y is rank-deficient by numpy's matrix_rank
    rule (smallest singular value <= largest * max(Y.shape) * eps), and
    ValueError when k < 1.
    """
    k = sample.k
    if k < 1:
        raise ValueError(f"k = n*m2 - m1 = {k} must be >= 1")
    y = sample.to_float().y
    _, s, vt = np.linalg.svd(y)
    if s[-1] <= s[0] * max(y.shape) * np.finfo(float).eps:
        raise DegenerateData("the data concatenation Y is rank-deficient")
    return SampleSet(vt[-k:], sample.m2)


def descent(m1, m2, n):
    """(path, end): the castling descent of the shape (m1, m2, n), see README.

    It ends "unbounded" at a shape with n*m2 < m1 or n*m1 < m2, "k1" at a
    1 x 1 factor.  Else its next step is ("castle", (n*m2 - m1, m2, n)) or,
    failing that, ("castle^T", (n*m1 - m2, m1, n)), if the new first
    dimension is at least 1 and below the old; else it ends "reduced".
    Dimensions below 1 raise ValueError.
    """
    if min(m1, m2, n) < 1:
        raise ValueError("dimensions must be positive")
    path = []
    while True:
        if n * m2 < m1 or n * m1 < m2:
            return tuple(path), "unbounded"
        if min(m1, m2) == 1:
            return tuple(path), "k1"
        for kind, a, b in (("castle", m1, m2), ("castle^T", m2, m1)):
            if 1 <= n * b - a < a:
                m1, m2 = n * b - a, b
                path.append((kind, (m1, m2, n)))
                break
        else:
            return tuple(path), "reduced"


def canonicalize(sample):
    """Reduce an exact sample to [I | C] form and cut D^T into the dual sample.

    Raises ValueError on float data (castle is the float route) or when
    k < 1, and DegenerateData when Y_* is singular.
    """
    if not sample.is_exact:
        raise ValueError("canonicalize works over Q: exact data only")
    k = sample.k
    if k < 1:
        raise ValueError(f"k = n*m2 - m1 = {k} must be >= 1")
    y, m1 = sample.y, sample.m1
    ystar = y.submatrix(range(m1), range(m1))
    try:
        c = ystar.solve(y.submatrix(range(m1), range(m1, y.shape[1])))
    except SingularMatrix:
        raise DegenerateData("left m1 x m1 block is singular") from None
    d_t = c.transpose().hstack(Matrix.identity(k).scale(-1))
    return CanonicalForm(C=c, dual=SampleSet(d_t, sample.m2))


def _identity_dets(c, k, scale=1):
    """det(S), det(K) and det(T(adj K)) per member of integer stacks, exactly.

    c is (b, m1, k') and k is (b, m2, m2), object arrays of Python ints.
    S = sum_i Y_i K Y_i^T over the blocks of Y = [scale*I | C], and
    T(adj K) = sum_i Z_i adj(K) Z_i^T over those of D^T = [C^T | -scale*I].
    Raises SingularMatrix when any K is singular.
    """
    count, m1, kk = c.shape
    left = np.broadcast_to(scale * np.identity(m1, dtype=object), (count, m1, m1))
    right = np.broadcast_to(-scale * np.identity(kk, dtype=object), (count, kk, kk))
    y = np.concatenate([left, c], axis=2)
    d_t = np.concatenate([c.transpose(0, 2, 1), right], axis=2)
    det_k, adj_k = solve_stack(k, np.identity(k.shape[-1], dtype=object))
    return det_stack(scatter_k2_stack(y, k)), det_k, det_stack(scatter_k2_stack(d_t, adj_k))


def det_reduction_sides(c, k):
    """Both sides of the determinant reduction identity on integer stacks.

    For data [I | C] with C the (b, m1, k') stack and K the (b, m2, m2)
    stack, object arrays of Python ints, returns the integer arrays
    det(sum_i Y_i K Y_i^T) * det(K)^k' and det(K)^n * det(T(adj K)): the
    identity's two sides times det(K)^k', since T(adj K) = det(K) * T(K^-1)
    is k' x k'.  One stacked Bareiss pass per determinant and one
    Gauss-Jordan pass for adj K serve the whole stack.  Raises
    SingularMatrix when any K is singular.
    """
    kk, m2 = c.shape[2], k.shape[-1]
    n = (c.shape[1] + kk) // m2
    det_s, det_k, det_t = _identity_dets(c, k)
    return det_s * det_k**kk, det_k**n * det_t


def det_reduction_check(cf, k_mat):
    """Both sides of the determinant reduction identity, over Q.

    lhs = det(sum_i Y_i K Y_i^T) over the blocks Y_i of [I | C];
    rhs = det(K)^n * det(sum_i Z_i K^-1 Z_i^T) over the dual sample.
    Equal for every nonsingular K.  Runs as a stack of one on the integer
    arrays: with C = NC/dc and K = NK/dk, Y = [dc*I | NC]/dc and
    K^-1 = dk*adj(NK)/det(NK), and the denominators are put back at the
    end.  Raises ValueError unless K is an m2 x m2 Matrix, and
    SingularMatrix when K is singular.
    """
    if not isinstance(k_mat, Matrix):
        raise ValueError("the identity is checked over Q: K must be a Matrix")
    m1, kk, m2, n = cf.m1, cf.k, cf.m2, cf.n
    if k_mat.shape != (m2, m2):
        raise ValueError(f"K must be {m2} x {m2}, got shape {k_mat.shape}")
    dc, dk = cf.C.den, k_mat.den
    (det_s,), (det_k,), (det_t,) = _identity_dets(cf.C.num[None], k_mat.num[None], dc)
    lhs = Fraction(det_s, (dc * dc * dk) ** m1)
    rhs = Fraction(det_k**n * det_t * dk**kk, dk ** (m2 * n) * dc ** (2 * kk) * det_k**kk)
    return lhs, rhs
