"""MLE engines: the closed-form rational solution for k = 1 and flip-flop.

Both return the concentration factors (K1, K2) with K2 normalized to
det(K2) = 1 and K1 carrying the scale, which resolves the (c, 1/c) gauge
freedom of the Kronecker factorization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .canonical import DegenerateData, canonicalize
from .linalg import Matrix, NotPD, cholesky, format_matrix
from .model import kron_loglik, profile_k1, scatter_k1, scatter_k2, thresholds


class WrongRegime(Exception):
    """An engine was invoked outside its applicable (m1, m2, n) regime."""


class MLENotExists(Exception):
    """The Kronecker MLE does not exist for this sample."""


@dataclass(frozen=True)
class KroneckerEstimate:
    k1: np.ndarray  # m1 x m1, PD
    k2: np.ndarray  # m2 x m2, PD, det-normalized to 1
    loglik: float
    method: str  # "exact" | "flipflop"
    iterations: int
    converged: bool
    # Exact-mode extras: the unnormalized rational pair and det(K2_exact).
    k1_exact: Matrix | None = None
    k2_exact: Matrix | None = None
    det_k2_exact: object = None
    loglik_history: tuple = field(default_factory=tuple)


def normalize_det1(k2, k1=None):
    """Rescale so det(K2) = 1, with K1 absorbing the inverse scale."""
    k2 = np.asarray(k2, dtype=float)
    d = np.linalg.det(k2)
    if d <= 0:
        raise NotPD("K2 must have positive determinant")
    c = d ** (1.0 / k2.shape[0])
    if k1 is None:
        return k2 / c
    return k2 / c, np.asarray(k1, dtype=float) * c


def exact_mle_k1(sample):
    """Closed-form Kronecker MLE in the k = 1 regime (n*m2 = m1 + 1).

    Recipe: split Y = [Y_* | y], form v = (Y_*^-1 y, -1), cut v into n
    blocks v_i of length m2, and set K2 = sum_i v_i v_i^T; K1 is the
    profile maximizer at K2.  Exists iff n >= m2 and K2 is PD; over
    rational data the unnormalized pair is exactly rational.
    """
    if sample.k != 1:
        raise WrongRegime(f"exact engine needs k = 1, got k = {sample.k}")
    if sample.n < sample.m2:
        raise MLENotExists(f"n = {sample.n} < m2 = {sample.m2}")
    cf = canonicalize(sample)  # raises DegenerateData when Y_* is singular

    if sample.is_exact:
        k2_exact = cf.Dab[0][0]
        if not k2_exact.is_positive_definite():
            raise MLENotExists("sum_i v_i v_i^T is not positive definite")
        scatter = Matrix.zeros(sample.m1, sample.m1)
        for y in sample.data:
            scatter = scatter + y @ k2_exact @ y.transpose()
        k1_exact = scatter.scale(Fraction(1, sample.n * sample.m2)).inverse()
        det_k2 = k2_exact.det()
        k2f, k1f = normalize_det1(k2_exact.to_numpy(), k1_exact.to_numpy())
        ll = kron_loglik(sample.to_float(), k1f, k2f)
        return KroneckerEstimate(
            k1=k1f,
            k2=k2f,
            loglik=ll,
            method="exact",
            iterations=0,
            converged=True,
            k1_exact=k1_exact,
            k2_exact=k2_exact,
            det_k2_exact=det_k2,
        )

    k2_raw = cf.Dab[0][0]
    try:
        cholesky(k2_raw)
    except NotPD:
        raise MLENotExists("sum_i v_i v_i^T is not positive definite") from None
    k1_raw = profile_k1(sample, k2_raw)
    k2f, k1f = normalize_det1(k2_raw, k1_raw)
    ll = kron_loglik(sample, k1f, k2f)
    return KroneckerEstimate(
        k1=k1f, k2=k2f, loglik=ll, method="exact", iterations=0, converged=True
    )


def flipflop(sample, init_k2=None, tol=1e-10, max_iter=10000, callback=None):
    """Block-coordinate ascent alternating the two profile maximizers.

    Each sweep applies K1 <- (sum_i Yi K2 Yi^T / (n*m2))^-1 and then
    K2 <- (sum_i Yi^T K1 Yi / (n*m1))^-1, renormalizes K2 to det 1, and
    records the log-likelihood.  Stops when the max-abs change of the
    normalized K2 drops below tol.  Non-convergence within max_iter is a
    reported outcome (converged=False), not an error.
    """
    sample = sample.to_float()
    if sample.n * sample.m2 < sample.m1 or sample.n * sample.m1 < sample.m2:
        raise WrongRegime("flip-flop needs n*m2 >= m1 and n*m1 >= m2")
    if init_k2 is None:
        init_k2 = np.eye(sample.m2)
    init_k2 = init_k2.to_numpy() if isinstance(init_k2, Matrix) else np.asarray(init_k2, dtype=float)
    cholesky(init_k2)  # init must be PD
    k2 = normalize_det1(init_k2)
    k1 = None
    history = []
    converged = False
    sweeps = 0
    for sweep in range(1, max_iter + 1):
        try:
            k1 = np.linalg.inv(scatter_k2(sample, k2) / (sample.n * sample.m2))
            k2_new = np.linalg.inv(scatter_k1(sample, k1) / (sample.n * sample.m1))
        except np.linalg.LinAlgError:
            # With K1, K2 PD only linearly dependent data rows or columns do this.
            raise DegenerateData("singular scatter matrix") from None
        k2_new, k1 = normalize_det1(k2_new, k1)
        delta = float(np.abs(k2_new - k2).max())
        k2 = k2_new
        history.append(kron_loglik(sample, k1, k2))
        sweeps = sweep
        if callback is not None:
            callback(sweep, k1, k2)
        if delta < tol:
            converged = True
            break
    return KroneckerEstimate(
        k1=k1,
        k2=k2,
        loglik=history[-1],
        method="flipflop",
        iterations=sweeps,
        converged=converged,
        loglik_history=tuple(history),
    )


def mle(sample, tol=1e-10, max_iter=10000):
    """Front end: closed form when k = 1, flip-flop with identity init otherwise."""
    if sample.k == 1:
        return exact_mle_k1(sample)
    if sample.n < thresholds(sample.m1, sample.m2).lower:
        raise MLENotExists(f"n = {sample.n} is below max(m1/m2, m2/m1)")
    return flipflop(sample, tol=tol, max_iter=max_iter)


def format_estimate(est, m1, m2):
    """Serialize: header "m1 m2 method iterations converged loglik", then K1, K2."""
    head = f"{m1} {m2} {est.method} {est.iterations} {int(est.converged)} {est.loglik!r}\n"
    return head + format_matrix(est.k1) + format_matrix(est.k2)
