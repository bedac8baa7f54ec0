"""Group-action reduction of the data to [I | C] form.

For a sample whose concatenation Y = [Y1|...|Yn] has a nonsingular left
m1 x m1 block Y_*, left-multiplying by Y_*^-1 puts the data into the form
[I | C].  The kernel matrix D with D^T = [C^T | -I_k] then carries the
whole likelihood: splitting D into n row-blocks of height m2 gives vectors
d_ij whose outer-product sums D_ab = sum_i d_ia d_ib^T parameterize the
reduced objective m2*logdet([tr(D_ab Sigma)]) - k*logdet(Sigma).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Matrix, SingularMatrix, kron


class DegenerateData(Exception):
    """The left m1 x m1 block of the data concatenation is singular."""


class NonPositiveK(Exception):
    """Raised when k = n*m2 - m1 < 1 and no reduction exists."""


@dataclass(frozen=True)
class CanonicalForm:
    m1: int
    m2: int
    n: int
    k: int
    C: object  # m1 x k
    D: object  # (n*m2) x k, D^T = [C^T | -I_k]
    Dab: tuple  # k x k grid of m2 x m2 matrices

    @property
    def is_exact(self):
        return isinstance(self.C, Matrix)

    def d_block(self, i, j):
        """The m2-vector d_ij (column j of row-block i of D), as a column."""
        if self.is_exact:
            return self.D.submatrix(range(i * self.m2, (i + 1) * self.m2), [j])
        return self.D[i * self.m2 : (i + 1) * self.m2, j : j + 1]

    def dab_grid(self):
        """The stacked (m2*k) x (m2*k) block matrix [D_ab]."""
        if self.is_exact:
            rows = None
            for a in range(self.k):
                row = None
                for b in range(self.k):
                    row = self.Dab[a][b] if row is None else row.hstack(self.Dab[a][b])
                rows = row if rows is None else rows.vstack(row)
            return rows
        return np.block([[self.Dab[a][b] for b in range(self.k)] for a in range(self.k)])


def canonicalize(sample):
    """Reduce a sample to [I | C] form and assemble D and the D_ab grid."""
    k = sample.k
    if k < 1:
        raise NonPositiveK(f"k = n*m2 - m1 = {k} must be >= 1")
    y = sample.concatenated()
    m1, m2, n = sample.m1, sample.m2, sample.n
    if sample.is_exact:
        ystar = y.submatrix(range(m1), range(m1))
        try:
            c = ystar.solve(y.submatrix(range(m1), range(m1, n * m2)))
        except SingularMatrix:
            raise DegenerateData("left m1 x m1 block is singular") from None
        d = c.vstack(Matrix.identity(k).scale(-1))
    else:
        ystar = y[:, :m1]
        if np.linalg.cond(ystar) > 1e14:
            raise DegenerateData("left m1 x m1 block is singular")
        c = np.linalg.solve(ystar, y[:, m1:])
        d = np.vstack([c, -np.eye(k)])

    dab = tuple(
        tuple(_dab_entry(d, m2, n, a, b) for b in range(k)) for a in range(k)
    )
    return CanonicalForm(m1=m1, m2=m2, n=n, k=k, C=c, D=d, Dab=dab)


def _dab_entry(d, m2, n, a, b):
    if isinstance(d, Matrix):
        out = Matrix.zeros(m2, m2)
        for i in range(n):
            da = d.submatrix(range(i * m2, (i + 1) * m2), [a])
            db = d.submatrix(range(i * m2, (i + 1) * m2), [b])
            out = out + da @ db.transpose()
        return out
    out = np.zeros((m2, m2))
    for i in range(n):
        da = d[i * m2 : (i + 1) * m2, a : a + 1]
        db = d[i * m2 : (i + 1) * m2, b : b + 1]
        out += da @ db.T
    return out


def _as_float_block(block):
    return block.to_numpy() if isinstance(block, Matrix) else block


def canonical_blocks(cf):
    """The n matrices of the canonicalized sample [I | C], split m2-wise."""
    y = cf.C
    if cf.is_exact:
        full = Matrix.identity(cf.m1).hstack(y)
        return [
            full.submatrix(range(cf.m1), range(i * cf.m2, (i + 1) * cf.m2))
            for i in range(cf.n)
        ]
    full = np.hstack([np.eye(cf.m1), y])
    return [full[:, i * cf.m2 : (i + 1) * cf.m2] for i in range(cf.n)]


def det_reduction_check(cf, k_mat):
    """Both sides of the determinant reduction identity.

    lhs = det(Y (I_n kron K) Y^T) for Y = [I | C];
    rhs = det(K)^n * det(D^T (I_n kron K^-1) D).
    Equal for every nonsingular K; exact over rationals.
    """
    n = cf.n
    if cf.is_exact:
        k_inv = k_mat.inverse()  # raises SingularMatrix when K is singular
        ident_kron_k = Matrix.identity(n).kron(k_mat)
        y = Matrix.identity(cf.m1).hstack(cf.C)
        lhs = (y @ ident_kron_k @ y.transpose()).det()
        inner = cf.D.transpose() @ Matrix.identity(n).kron(k_inv) @ cf.D
        rhs = k_mat.det() ** n * inner.det()
        return lhs, rhs
    k_arr = np.asarray(k_mat, dtype=float)
    y = np.hstack([np.eye(cf.m1), cf.C])
    lhs = float(np.linalg.det(y @ kron(np.eye(n), k_arr) @ y.T))
    inner = cf.D.T @ kron(np.eye(n), np.linalg.inv(k_arr)) @ cf.D
    rhs = float(np.linalg.det(k_arr)) ** n * float(np.linalg.det(inner))
    return lhs, rhs


def trace_form(cf, sigma):
    """The k x k matrix with (a, b) entry tr(D_ab @ Sigma).

    Equals D^T (I_n kron Sigma) D entrywise.
    """
    if cf.is_exact and isinstance(sigma, Matrix):
        if sigma.shape != (cf.m2, cf.m2):
            raise ValueError("Sigma dimension mismatch")
        return Matrix(
            [
                [(cf.Dab[a][b] @ sigma).trace() for b in range(cf.k)]
                for a in range(cf.k)
            ]
        )
    sigma = sigma.to_numpy() if isinstance(sigma, Matrix) else np.asarray(sigma, dtype=float)
    if sigma.shape != (cf.m2, cf.m2):
        raise ValueError("Sigma dimension mismatch")
    return np.array(
        [
            [float(np.trace(_as_float_block(cf.Dab[a][b]) @ sigma)) for b in range(cf.k)]
            for a in range(cf.k)
        ]
    )


def reduced_objective(cf, sigma):
    """m2*logdet([tr(D_ab Sigma)]) - k*logdet(Sigma), float evaluation."""
    sigma = np.asarray(sigma, dtype=float)
    t = trace_form(cf, sigma)
    sign_t, ld_t = np.linalg.slogdet(t)
    sign_s, ld_s = np.linalg.slogdet(sigma)
    if sign_t <= 0 or sign_s <= 0:
        raise SingularMatrix("objective undefined: nonpositive determinant")
    return cf.m2 * ld_t - cf.k * ld_s


def reduced_gradient(cf, sigma):
    """Unconstrained matrix gradient of reduced_objective at Sigma.

    d/dSigma [m2*logdet(T(Sigma))] = m2 * sum_ab (T^-1)_ba * D_ab^T;
    at symmetric Sigma the result is symmetric and vanishes at the MLE.
    """
    sigma = np.asarray(sigma, dtype=float)
    t = trace_form(cf, sigma)
    t_inv = np.linalg.inv(t)
    grad = np.zeros((cf.m2, cf.m2))
    for a in range(cf.k):
        for b in range(cf.k):
            grad += t_inv[b, a] * _as_float_block(cf.Dab[a][b]).T
    return cf.m2 * grad - cf.k * np.linalg.inv(sigma).T


def format_canonical_form(cf):
    """Serialize: header "m1 m2 n k", then C in the shared matrix format."""
    from .linalg import format_matrix

    return f"{cf.m1} {cf.m2} {cf.n} {cf.k}\n" + format_matrix(cf.C)
