"""The castling dual of a sample, and the [I | C] form of exact data.

Cut a k x (n*m2) matrix D^T whose rows span ker Y, Y = [Y1|...|Yn], into
n blocks Z_i of size k x m2: they form a (k, m2, n) sample, the castling
dual (Derksen, Makam & Walter 2022).  A change of basis, Z_i -> A Z_i,
keeps the dual's K2 MLE.  Its scatter T(Sigma) = sum_i Z_i Sigma Z_i^T is
the trace form of the reduced objective m2*logdet(T(Sigma)) - k*logdet(Sigma).
castle takes the basis from an SVD of float data.  canonicalize works
over Q: a nonsingular left block Y_* gives Y_*^-1 Y = [I | C] and
D^T = [C^T | -I_k], on which the determinant reduction identity
det(sum_i Y_i K Y_i^T) = det(K)^n * det(T(K^-1)) is checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Matrix, SingularMatrix
from .model import SampleSet, scatter_k2


class DegenerateData(Exception):
    """The data concatenation, its left m1 x m1 block or a scatter is singular."""


class NonPositiveK(Exception):
    """Raised when k = n*m2 - m1 < 1 and no reduction exists."""


@dataclass(frozen=True)
class CanonicalForm:
    """[I | C] and its dual sample; m1 and k are read off C, m2 and n off the dual."""

    C: Matrix  # m1 x k
    dual: SampleSet  # D^T = [C^T | -I_k]: n blocks Z_i of size k x m2

    @classmethod
    def from_c(cls, c, m2):
        """The form of exact data [I | C] whose blocks are m2 columns wide."""
        d_t = c.transpose().hstack(Matrix.identity(c.shape[1]).scale(-1))
        return cls(C=c, dual=SampleSet(d_t, m2))

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
    NonPositiveK when k < 1.
    """
    k = sample.k
    if k < 1:
        raise NonPositiveK(f"k = n*m2 - m1 = {k} must be >= 1")
    y = sample.to_float().y
    _, s, vt = np.linalg.svd(y)
    if s[-1] <= s[0] * max(y.shape) * np.finfo(float).eps:
        raise DegenerateData("the data concatenation Y is rank-deficient")
    return SampleSet(vt[-k:], sample.m2)


def canonicalize(sample):
    """Reduce an exact sample to [I | C] form and cut D^T into the dual sample.

    Raises ValueError on float data (castle is the float route),
    NonPositiveK when k < 1 and DegenerateData when Y_* is singular.
    """
    if not sample.is_exact:
        raise ValueError("canonicalize works over Q: exact data only")
    k = sample.k
    if k < 1:
        raise NonPositiveK(f"k = n*m2 - m1 = {k} must be >= 1")
    y, m1 = sample.y, sample.m1
    ystar = y.submatrix(range(m1), range(m1))
    try:
        c = ystar.solve(y.submatrix(range(m1), range(m1, y.shape[1])))
    except SingularMatrix:
        raise DegenerateData("left m1 x m1 block is singular") from None
    return CanonicalForm.from_c(c, sample.m2)


def canonical_sample(cf):
    """The canonicalized data [I | C] of cf, as a sample of n m1 x m2 matrices."""
    return SampleSet(Matrix.identity(cf.m1).hstack(cf.C), cf.m2)


def det_reduction_check(cf, k_mat):
    """Both sides of the determinant reduction identity, over Q.

    lhs = det(sum_i Y_i K Y_i^T) over the blocks Y_i of [I | C];
    rhs = det(K)^n * det(sum_i Z_i K^-1 Z_i^T) over the dual sample.
    Equal for every nonsingular K.  Raises ValueError unless K is an
    m2 x m2 Matrix, and SingularMatrix when K is singular.
    """
    if not isinstance(k_mat, Matrix):
        raise ValueError("the identity is checked over Q: K must be a Matrix")
    k_inv = k_mat.inverse()
    lhs = scatter_k2(canonical_sample(cf), k_mat).det()
    rhs = k_mat.det() ** cf.n * scatter_k2(cf.dual, k_inv).det()
    return lhs, rhs
