"""Matrix helpers that only the tests use: Kronecker products, stacking,
column and diagonal constructors, the trace, and exact copies of float samples.

The Matrix helpers work entry by entry over ``Matrix.data``,
independently of the integer rows that the exact kernels use.
"""

import numpy as np

from kronmle.linalg import Matrix
from kronmle.model import SampleSet


def kron(a, b):
    """Kronecker product; block (i, j) of the result is a[i, j] * b.

    Exact for Matrix input, numpy's kron otherwise.
    """
    if isinstance(a, Matrix):
        return Matrix([[x * y for x in ra for y in rb] for ra in a.data for rb in b.data])
    return np.kron(a, b)


def vstack(a, b):
    """The rows of a, then the rows of b."""
    if a.cols != b.cols:
        raise ValueError("column count mismatch")
    return Matrix(a.data + b.data)


def column(entries):
    """The column vector of the entries."""
    return Matrix([[x] for x in entries])


def diagonal(entries):
    """The square matrix with the entries on its diagonal."""
    n = len(entries)
    return Matrix([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


def trace(a):
    """Sum of the diagonal entries of a square Matrix."""
    if a.rows != a.cols:
        raise ValueError("square matrix required")
    return sum(a.data[i][i] for i in range(a.rows))


def exact_copy(sample):
    """The float sample over Q: Matrix reads each binary64 entry exactly."""
    return SampleSet(Matrix(sample.y.tolist()), sample.m2)
