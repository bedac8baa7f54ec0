"""Statistical layer for the matrix normal model with Kronecker covariance.

Likelihood functions are parameterized by concentration matrices
K1 = Sigma1^-1 (rows) and K2 = Sigma2^-1 (columns), so the covariance of
the vectorized data is kron(Sigma2, Sigma1).  The mean is fixed at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .linalg import Matrix, format_matrix, logdet_pd, parse_matrix, read_ints


@dataclass(frozen=True)
class SampleSet:
    """n data matrices Yi of shape (m1, m2), kept as Y = [Y1 | ... | Yn].

    y is the m1 x (n*m2) concatenation: an exact Matrix, or a float array
    stored C-contiguous in float64 (without a copy when it already is).
    """

    y: object
    m2: int

    def __post_init__(self):
        if not isinstance(self.y, Matrix):
            object.__setattr__(self, "y", np.ascontiguousarray(self.y, dtype=np.float64))
            if self.y.ndim != 2:
                raise ValueError("the concatenation must be a 2-D array")
        cols = self.y.shape[1]
        if self.m2 < 1 or cols % self.m2:
            raise ValueError(f"{cols} columns do not split into blocks of width {self.m2}")

    @cached_property
    def m1(self):
        return self.y.shape[0]

    @cached_property
    def n(self):
        return self.y.shape[1] // self.m2

    @property
    def k(self):
        return self.n * self.m2 - self.m1

    @cached_property
    def is_exact(self):
        return isinstance(self.y, Matrix)

    @cached_property
    def blocks(self):
        """The n blocks Yi: submatrices of an exact y, column views of a float one."""
        m1, m2 = self.m1, self.m2
        cuts = range(0, self.n * m2, m2)
        if self.is_exact:
            return tuple(self.y.submatrix(range(m1), range(c, c + m2)) for c in cuts)
        return tuple(self.y[:, c : c + m2] for c in cuts)

    def to_float(self):
        return SampleSet(self.y.to_numpy(), self.m2) if self.is_exact else self


@dataclass(frozen=True)
class ThresholdBounds:
    """Bounds on the minimum sample size for MLE existence/uniqueness."""

    lower: Fraction
    upper: int


def thresholds(m1, m2):
    """Sample-size bounds: lower max{m1/m2, m2/m1}, upper floor(m1/m2 + m2/m1) + 1."""
    if m1 < 1 or m2 < 1:
        raise ValueError("dimensions must be positive")
    lower = max(Fraction(m1, m2), Fraction(m2, m1))
    upper = math.floor(Fraction(m1, m2) + Fraction(m2, m1)) + 1
    return ThresholdBounds(lower=lower, upper=upper)


def _as_array(a):
    return a.to_numpy() if isinstance(a, Matrix) else np.asarray(a, dtype=float)


def scatter_k2(sample, k2):
    """The m1 x m1 matrix sum_i Yi K2 Yi^T.

    Both routes use one layout: the rows of Y cut into m2-wide pieces are
    the rows of every Yi, so multiplying them by K2 gives
    [Y1 K2 | ... | Yn K2], whose product with Y^T is the sum.  An exact
    sample with a Matrix K2 gives the exact sum over Python ints: with
    Y = NY/dy and K2 = NK/dk as integer arrays over one denominator each,
    scatter_k2_stack of NY and NK as stacks of one is returned over
    dy^2 * dk.  Otherwise it is one GEMM pair over the float
    concatenation, symmetrized.  Raises ValueError unless K2 is m2 x m2.
    """
    m1, m2, n = sample.m1, sample.m2, sample.n
    if np.shape(k2) != (m2, m2):
        raise ValueError(f"K2 must be {m2} x {m2}, got shape {np.shape(k2)}")
    if sample.is_exact and isinstance(k2, Matrix):
        y = sample.y
        (s,) = scatter_k2_stack(y.num[None], k2.num[None])
        return Matrix.from_ints(s, y.den * y.den * k2.den)
    y = sample.to_float().y
    out = (y.reshape(m1 * n, m2) @ _as_array(k2)).reshape(m1, n * m2) @ y.T
    return (out + out.T) / 2


def scatter_k2_stack(y, k):
    """sum_i Y_i K Y_i^T per member of a (b, m1, n*m2) stack y and a
    (b, m2, m2) stack k, object arrays of Python ints: scatter_k2's layout
    with one more axis."""
    count, rows, cols = y.shape
    m2 = k.shape[-1]
    yk = (y.reshape(count, rows * cols // m2, m2) @ k).reshape(count, rows, cols)
    return yk @ y.transpose(0, 2, 1)


def scatter_k1(sample, k1):
    """The m2 x m2 matrix sum_i Yi^T K1 Yi, symmetrized (same layout as scatter_k2)."""
    m1, m2, n = sample.m1, sample.m2, sample.n
    y = sample.to_float().y
    out = y.reshape(m1 * n, m2).T @ (_as_array(k1) @ y).reshape(m1 * n, m2)
    return (out + out.T) / 2


def kron_loglik(sample, k1, k2):
    """Kronecker-model log-likelihood.

    n*m2*logdet(K1) + n*m1*logdet(K2) - tr(sum_i K1 Yi K2 Yi^T).
    """
    k1 = _as_array(k1)
    k2 = _as_array(k2)
    if k1.shape != (sample.m1, sample.m1) or k2.shape != (sample.m2, sample.m2):
        raise ValueError("K1/K2 dimension mismatch")
    trace_term = float(np.trace(k1 @ scatter_k2(sample, k2)))
    return (
        sample.n * sample.m2 * logdet_pd(k1)
        + sample.n * sample.m1 * logdet_pd(k2)
        - trace_term
    )


def sample_matrix_normal(m1, m2, n, seed):
    """Draw n iid m1 x m2 matrices of standard normals as one SampleSet.

    Deterministic in the seed: the blocks are drawn one after another, each
    in row order, with no dense factor, so memory is O(m1*n*m2).  A caller
    that wants the blocks A Zi B applies A and B to them itself.
    """
    if n < 1:
        raise ValueError("need at least one data matrix")
    z = np.random.default_rng(seed).standard_normal((n, m1, m2))
    return SampleSet(z.transpose(1, 0, 2).reshape(m1, n * m2), m2)


def format_sample_set(sample):
    """Serialize: header "m1 m2 n", then the concatenation [Y1|...|Yn]."""
    return f"{sample.m1} {sample.m2} {sample.n}\n" + format_matrix(sample.y)


def parse_sample_set(text, exact=False):
    lines = iter(text.splitlines())
    header = next(lines, None)
    if header is None:
        raise ValueError("truncated sample: empty file")
    m1, m2, n = read_ints(header.split(), 3, "sample header is not three integers 'm1 m2 n'")
    y = parse_matrix(lines, exact=exact)
    if y.shape != (m1, n * m2):
        raise ValueError("concatenated data has wrong shape")
    if any(line.strip() for line in lines):
        raise ValueError("data after the declared rows")
    return SampleSet(y, m2)
