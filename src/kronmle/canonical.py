"""Group-action reduction of the data to [I | C] form, and its dual sample.

For a sample whose concatenation Y = [Y1|...|Yn] has a nonsingular left
m1 x m1 block Y_*, left-multiplying by Y_*^-1 puts the data into the form
[I | C].  The kernel matrix D with D^T = [C^T | -I_k] then carries the
whole likelihood.  Cut D^T into n blocks Z_i of size k x m2: they form a
(k, m2, n) sample, the castling dual of the data (Derksen, Makam & Walter
2022), and the reduced objective m2*logdet(T(Sigma)) - k*logdet(Sigma)
reads T(Sigma) = sum_i Z_i Sigma Z_i^T off it as a scatter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Matrix, SingularMatrix, det, inverse
from .model import SampleSet, scatter_k1, scatter_k2


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
    """The canonicalized data [I | C] as a sample of n m1 x m2 matrices."""
    if cf.is_exact:
        y = Matrix.identity(cf.m1).hstack(cf.C)
    else:
        y = np.hstack([np.eye(cf.m1), cf.C])
    return SampleSet(y, cf.m2)


def det_reduction_check(cf, k_mat):
    """Both sides of the determinant reduction identity.

    lhs = det(sum_i Y_i K Y_i^T) over the blocks Y_i of [I | C];
    rhs = det(K)^n * det(sum_i Z_i K^-1 Z_i^T) over the dual sample.
    Equal for every nonsingular K; exact when cf is exact and K a Matrix.
    """
    if not isinstance(k_mat, Matrix):
        k_mat = np.asarray(k_mat, dtype=float)
    k_inv = inverse(k_mat)  # raises SingularMatrix when K is singular
    lhs = det(scatter_k2(canonical_sample(cf), k_mat))
    rhs = det(k_mat) ** cf.n * det(scatter_k2(cf.dual, k_inv))
    return lhs, rhs


def trace_form(cf, sigma):
    """T(Sigma) = sum_i Z_i Sigma Z_i^T, the k x k scatter of the dual sample.

    Equals D^T (I_n kron Sigma) D; exact when cf is exact and Sigma a Matrix.
    """
    if not isinstance(sigma, Matrix):
        sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (cf.m2, cf.m2):
        raise ValueError("Sigma dimension mismatch")
    return scatter_k2(cf.dual, sigma)


def reduced_objective(cf, sigma):
    """m2*logdet(T(Sigma)) - k*logdet(Sigma), float evaluation."""
    sigma = np.asarray(sigma, dtype=float)
    t = trace_form(cf, sigma)
    sign_t, ld_t = np.linalg.slogdet(t)
    sign_s, ld_s = np.linalg.slogdet(sigma)
    if sign_t <= 0 or sign_s <= 0:
        raise SingularMatrix("objective undefined: nonpositive determinant")
    return cf.m2 * ld_t - cf.k * ld_s


def reduced_gradient(cf, sigma):
    """Unconstrained matrix gradient of reduced_objective at Sigma.

    d/dSigma [m2*logdet(T(Sigma))] = m2 * sum_i Z_i^T T^-1 Z_i, the dual
    sample's other scatter at T^-1; at symmetric Sigma the result is
    symmetric and vanishes at the MLE.
    """
    sigma = np.asarray(sigma, dtype=float)
    t_inv = np.linalg.inv(trace_form(cf, sigma))
    return cf.m2 * scatter_k1(cf.dual, t_inv) - cf.k * np.linalg.inv(sigma).T
