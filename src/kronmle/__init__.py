"""Maximum likelihood estimation under Kronecker-structured covariance.

Numeric side: the closed-form k = 1 MLE and the flip-flop block-coordinate
ascent.  Exact side: the determinant reduction identity and Groebner-basis
counting of likelihood-equation solutions (ML degree / ML multiplicity).
The layers themselves live in the submodules.
"""

from .canonical import DegenerateData, canonicalize, det_reduction_check
from .groebner import PairBudgetExceeded
from .mldegree import PrimesExhausted, ml_degree, ml_multiplicity_prop43
from .model import SampleSet
from .solvers import MLENotExists, exact_mle_k1, flipflop, mle

__all__ = [
    "DegenerateData",
    "MLENotExists",
    "PairBudgetExceeded",
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
