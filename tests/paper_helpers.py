"""The paper's objectives that only the tests evaluate.

The profile objective g and the profile maximizer of K1 on the data, the
reduced objective and its gradient on the dual sample of the canonical
form, and polynomial evaluation.  The estimators never evaluate these; the
tests use them to check invariances, stationarity and score roots.  Also
the determinant reduction identity by Matrix sums and sympy, one instance
at a time: the oracle for the stacked check.  And the one-step shape rules
that the castling descent replaced, to count what the descent adds.
"""

from fractions import Fraction

import numpy as np
import sympy

from kronmle.canonical import canonicalize, descent
from kronmle.linalg import Matrix, NotPD, SingularMatrix, cholesky, logdet_pd
from kronmle.model import SampleSet, scatter_k1, scatter_k2


def one_step_rules(m1, m2, n):
    """Whether (m1, m2, n) meets a shape rule that looks at most one castle away.

    The threshold n < max(m1/m2, m2/m1), the first step's n*k < m2 for
    k = n*m2 - m1 >= 1 and its mirror n*k_T < m1 for k_T = n*m1 - m2 >= 1:
    the rules by which mle refused shapes before it followed the descent.
    """
    k, k_t = n * m2 - m1, n * m1 - m2
    below = n * m2 < m1 or n * m1 < m2
    return below or (k >= 1 and n * k < m2) or (k_t >= 1 and n * k_t < m1)


def chain_only_shapes(n, top=30):
    """The shapes (m1, m2, n) with 1 <= m1, m2 <= top whose descent is
    unbounded but that meet no one-step rule."""
    return [
        (m1, m2, n)
        for m1 in range(1, top + 1)
        for m2 in range(1, top + 1)
        if descent(m1, m2, n)[1] == "unbounded" and not one_step_rules(m1, m2, n)
    ]


def profile_k1(sample, k2):
    """Maximizer of the likelihood over K1 for fixed K2.

    Returns ((1/(n*m2)) * sum_i Yi K2 Yi^T)^-1; requires n*m2 >= m1.
    """
    if sample.n * sample.m2 < sample.m1:
        raise ValueError("profile update needs n*m2 >= m1")
    cholesky(k2)  # raises NotPD early
    avg = scatter_k2(sample, k2) / (sample.n * sample.m2)
    sign, _ = np.linalg.slogdet(avg)
    if sign <= 0 or np.linalg.cond(avg) > 1e14:
        raise SingularMatrix("sum_i Yi K2 Yi^T is rank-deficient")
    return np.linalg.inv(avg)


def g_objective(sample, k2):
    """Profile objective m2*logdet(sum_i Yi K2 Yi^T) - m1*logdet(K2).

    Scale invariant: g(c*K2) = g(K2).  Minimizing g over PD(m2) yields the
    second Kronecker factor of the MLE.
    """
    k2 = np.asarray(k2, dtype=float)
    try:
        ld_s = logdet_pd(scatter_k2(sample, k2))
    except NotPD:
        raise SingularMatrix("sum_i Yi K2 Yi^T is not positive definite") from None
    return sample.m2 * ld_s - sample.m1 * logdet_pd(k2)


def reduced_objective(cf, sigma):
    """m2*logdet(T(Sigma)) - k*logdet(Sigma), T(Sigma) the dual sample's scatter."""
    sigma = np.asarray(sigma, dtype=float)
    sign_t, ld_t = np.linalg.slogdet(scatter_k2(cf.dual, sigma))
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
    t_inv = np.linalg.inv(scatter_k2(cf.dual, sigma))
    return cf.m2 * scatter_k1(cf.dual, t_inv) - cf.k * np.linalg.inv(sigma).T


def evaluate(p, point):
    """The Poly p at a map {var: value}; exact when every value is an int or Fraction."""
    exact = all(isinstance(point[v], (int, Fraction)) for v in p.vars)
    total = Fraction(0) if exact else 0.0
    for exp, c in p.terms.items():
        term = c if exact else float(c)
        for v, e in zip(p.vars, exp):
            if e:
                term = term * point[v] ** e
        total = total + term
    return total


def canonical_sample(cf):
    """The canonicalized data [I | C] of cf, as a sample of n m1 x m2 matrices."""
    return SampleSet(Matrix.identity(cf.m1).hstack(cf.C), cf.m2)


def lemma_instance(rng, m2, k, n):
    """A random (canonical form, K = L L^T + I) built with Matrix arithmetic.

    Draws C (m1 x k, entries in [-8, 8]) and then L (m2 x m2, entries in
    [-3, 3]) entry by entry, the stream verify-lemma reads per instance.
    """
    m1 = n * m2 - k
    c = Matrix([[int(rng.integers(-8, 9)) for _ in range(k)] for _ in range(m1)])
    cf = canonicalize(SampleSet(Matrix.identity(m1).hstack(c), m2))
    l = Matrix([[int(rng.integers(-3, 4)) for _ in range(m2)] for _ in range(m2)])
    return cf, l @ l.transpose() + Matrix.identity(m2)


def det_reduction_oracle(cf, k_mat):
    """(lhs, rhs) of the determinant reduction identity, independent of the
    exact kernels: det(sum_i Y_i K Y_i^T) over [I | C] and det(K)^n * det(T(K^-1))
    over the dual, the scatters summed block by block with Matrix products,
    K^-1 and the determinants from sympy."""
    k_inv = Matrix(_from_sympy(_to_sympy(k_mat).inv()))
    lhs = _sympy_det(_block_scatter(canonical_sample(cf), k_mat))
    rhs = _sympy_det(k_mat) ** cf.n * _sympy_det(_block_scatter(cf.dual, k_inv))
    return lhs, rhs


def _block_scatter(sample, k):
    total = Matrix.zeros(sample.m1, sample.m1)
    for y in sample.blocks:
        total = total + y @ k @ y.transpose()
    return total


def _to_sympy(m):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m.data])


def _from_sympy(m):
    return [[Fraction(int(x.p), int(x.q)) for x in row] for row in m.tolist()]


def _sympy_det(m):
    d = _to_sympy(m).det()
    return Fraction(int(d.p), int(d.q))
