"""Maximum likelihood estimation under Kronecker-structured covariance.

Numeric side: the closed-form k = 1 MLE and the flip-flop block-coordinate
ascent.  Exact side: the determinant reduction identity and the count of
likelihood-equation solutions (ML degree / ML multiplicity) by resultants
modulo primes.
The layers themselves live in the submodules.
"""

from .canonical import DegenerateData, canonicalize, det_reduction_check
from .mldegree import PrimesExhausted, ml_degree, ml_multiplicity_prop43
from .model import SampleSet
from .solvers import MLENotExists, exact_mle_k1, flipflop, mle

__all__ = [
    "DegenerateData",
    "MLENotExists",
    "PrimesExhausted",
    "SampleSet",
    "canonicalize",
    "det_reduction_check",
    "exact_mle_k1",
    "flipflop",
    "ml_degree",
    "ml_multiplicity_prop43",
    "mle",
]
