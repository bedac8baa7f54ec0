"""Group-action reduction of the data to [I | C] form, and its dual sample.

For a sample whose concatenation Y = [Y1|...|Yn] has a nonsingular left
m1 x m1 block Y_*, left-multiplying by Y_*^-1 puts the data into the form
[I | C].  The kernel matrix D with D^T = [C^T | -I_k] then carries the
whole likelihood.  Cut D^T into n blocks Z_i of size k x m2: they form a
(k, m2, n) sample, the castling dual of the data (Derksen, Makam & Walter
2022).  Its scatter scatter_k2(dual, Sigma) = sum_i Z_i Sigma Z_i^T is the
trace form T(Sigma) of the reduced objective
m2*logdet(T(Sigma)) - k*logdet(Sigma).  The determinant reduction identity
det(sum_i Y_i K Y_i^T) = det(K)^n * det(T(K^-1)) is checked exactly, over Q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Matrix, SingularMatrix
from .model import SampleSet, scatter_k2


class DegenerateData(Exception):
    """The left m1 x m1 block of the data concatenation is singular."""


class NonPositiveK(Exception):
    """Raised when k = n*m2 - m1 < 1 and no reduction exists."""


@dataclass(frozen=True)
class CanonicalForm:
    """[I | C] and its dual sample; m1 and k are read off C, m2 and n off the dual."""

    C: object  # m1 x k
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

    @property
    def is_exact(self):
        return isinstance(self.C, Matrix)


def canonicalize(sample):
    """Reduce a sample to [I | C] form and cut D^T into the dual sample."""
    k = sample.k
    if k < 1:
        raise NonPositiveK(f"k = n*m2 - m1 = {k} must be >= 1")
    y = sample.y
    m1, m2, n = sample.m1, sample.m2, sample.n
    if sample.is_exact:
        ystar = y.submatrix(range(m1), range(m1))
        try:
            c = ystar.solve(y.submatrix(range(m1), range(m1, n * m2)))
        except SingularMatrix:
            raise DegenerateData("left m1 x m1 block is singular") from None
        d_t = c.transpose().hstack(Matrix.identity(k).scale(-1))
    else:
        ystar = y[:, :m1]
        if np.linalg.cond(ystar) > 1e14:
            raise DegenerateData("left m1 x m1 block is singular")
        c = np.linalg.solve(ystar, y[:, m1:])
        d_t = np.hstack([c.T, -np.eye(k)])
    return CanonicalForm(C=c, dual=SampleSet(d_t, m2))


def canonical_sample(cf):
    """The canonicalized data [I | C] of an exact cf, as a sample of n m1 x m2 matrices."""
    return SampleSet(Matrix.identity(cf.m1).hstack(cf.C), cf.m2)


def det_reduction_check(cf, k_mat):
    """Both sides of the determinant reduction identity, over Q.

    lhs = det(sum_i Y_i K Y_i^T) over the blocks Y_i of [I | C];
    rhs = det(K)^n * det(sum_i Z_i K^-1 Z_i^T) over the dual sample.
    Equal for every nonsingular K.  Raises ValueError unless cf is exact
    and K an m2 x m2 Matrix, and SingularMatrix when K is singular.
    """
    if not (cf.is_exact and isinstance(k_mat, Matrix)):
        raise ValueError("the identity is checked over Q: exact data and a Matrix K")
    k_inv = k_mat.inverse()
    lhs = scatter_k2(canonical_sample(cf), k_mat).det()
    rhs = k_mat.det() ** cf.n * scatter_k2(cf.dual, k_inv).det()
    return lhs, rhs
