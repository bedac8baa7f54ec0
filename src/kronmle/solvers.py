"""MLE engines: the exact closed form for k = 1, flip-flop, and the castle front end.

Both return the concentration factors (K1, K2) with K2 normalized to
det(K2) = 1 and K1 carrying the scale, which resolves the (c, 1/c) gauge
freedom of the Kronecker factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .canonical import DegenerateData, castle, descent
from .linalg import (
    Matrix,
    NotPD,
    SingularMatrix,
    cholesky,
    format_matrix,
    logdet_pd,
    solve_stack,
)
from .model import SampleSet, kron_loglik, scatter_k1


class MLENotExists(Exception):
    """The Kronecker MLE does not exist for this sample."""


@dataclass(frozen=True)
class KroneckerEstimate:
    k1: np.ndarray  # m1 x m1, PD
    k2: np.ndarray  # m2 x m2, PD, det-normalized to 1
    loglik: float
    method: str  # "exact" (rational data) | "flipflop" | "chain"
    iterations: int  # flip-flop sweeps, the duals' down a castling descent included
    # Exact-mode extras: the unnormalized rational pair.
    k1_exact: Matrix | None = None
    k2_exact: Matrix | None = None
    loglik_history: tuple = field(default_factory=tuple)
    # Affine-invariant residual of (k1, k2) and why the iteration stopped:
    # "converged", "stalled" or "max_iter" (see flipflop).
    residual: float = 0.0
    stop_reason: str = "converged"
    # Where the run started: "identity", "closed form" (exact k = 1), or the
    # castling descent of mle, e.g. "castle (2,5,3) > castle^T (1,2,3)".
    start: str = "identity"

    @property
    def converged(self):
        return self.stop_reason == "converged"


def normalize_det1(k2, k1=None):
    """Rescale so det(K2) = 1, with K1 absorbing the inverse scale exp(logdet(K2)/m),
    a Cholesky log-determinant that no scale of K2 overflows; NotPD unless K2 is PD."""
    k2 = np.asarray(k2, dtype=float)
    c = np.exp(logdet_pd(k2) / k2.shape[0])
    if k1 is None:
        return k2 / c
    return k2 / c, np.asarray(k1, dtype=float) * c


def exact_mle_k1(sample):
    """Closed-form Kronecker MLE of rational data at k = 1 (n*m2 = m1 + 1).

    Recipe: split Y = [Y_* | y], form v = (Y_*^-1 y, -1), cut v into n
    blocks v_i of length m2, and set K2 = sum_i v_i v_i^T; K1 is the
    profile maximizer at K2.  Exists iff n >= m2 and K2 is PD.  Float data
    (mle castles them) and k != 1 raise ValueError.  The pair is exact, over
    Python ints on object arrays, and K1 comes without the m1 x m1 scatter:
    with A = I_n kron K2, W = [Y_*^-1; 0] and v^T A^-1 v = tr(K2^-1 K2) = m2,
    the inverse of the scatter Y A Y^T is W^T (A^-1 - A^-1 v v^T A^-1 / m2) W,
    so K1 = n*m2 * W^T [I_n kron K2^-1 - u u^T / m2] W with u = A^-1 v.
    Integer form, on the integer array N = delta*Y of the data: one
    solve_stack pass over [N_* | I | N_y] gives d = det N_*, G = d*N_*^-1 and
    w = d*v (v does not change when Y is scaled), so d^2 K2 = sum_b w_b w_b^T
    over the blocks w_b of w; a second pass gives e = det(d^2 K2) and
    H = e*(d^2 K2)^-1.  With G padded by a zero row and U = (I_n kron H) w,
    K1 = n * delta^2 * (e*m2 * G^T (I_n kron H) G - (G^T U)(G^T U)^T) / e^2,
    the delta^2 because W = delta * [N_*^-1; 0].
    """
    if not sample.is_exact:
        raise ValueError("exact_mle_k1 works over Q: exact data only")
    if sample.k != 1:
        raise ValueError(f"exact engine needs k = 1, got k = {sample.k}")
    if sample.n < sample.m2:
        raise MLENotExists(f"n = {sample.n} < m2 = {sample.m2}")
    m1, m2, n = sample.m1, sample.m2, sample.n
    rows = sample.y.num  # N = [N_* | N_y]
    try:
        (d,), (dx,) = solve_stack(
            rows[None, :, :m1], np.hstack([np.identity(m1, dtype=object), rows[:, m1:]])
        )
    except SingularMatrix:
        raise DegenerateData("left m1 x m1 block is singular") from None
    g = np.vstack([dx[:, :m1], np.zeros((1, m1), dtype=object)])  # d * N_*^-1, padded
    w = np.append(dx[:, m1], -d).reshape(n, m2)  # d * v, one block w_b per row
    k2_int = w.T @ w
    k2 = Matrix.from_ints(k2_int, d * d)
    try:  # a Gram matrix w^T w is PD exactly when it is nonsingular
        (e,), (h,) = solve_stack(k2_int[None], np.identity(m2, dtype=object))
    except SingularMatrix:
        raise MLENotExists("sum_i v_i v_i^T is not positive definite") from None
    # (I_n kron H) applied to w and, block by block, to the columns of G.
    gu = g.T @ (w @ h.T).reshape(-1)
    hg = (h @ g.reshape(n, m2, m1)).reshape(n * m2, m1)
    # K1 is symmetric: only its upper triangle is computed, entry (i, j) from
    # columns i of G and j of HG, all the dot products in one batched matmul.
    i, j = np.triu_indices(m1)
    dots = (g.T[i, None, :] @ hg.T[j, :, None]).reshape(-1)
    k1 = np.empty((m1, m1), dtype=object)
    k1[i, j] = k1[j, i] = n * sample.y.den**2 * (e * m2 * dots - gu[i] * gu[j])
    k1 = Matrix.from_ints(k1, e * e)
    k2f, k1f = normalize_det1(k2.to_numpy(), k1.to_numpy())
    return KroneckerEstimate(
        k1=k1f,
        k2=k2f,
        loglik=kron_loglik(sample.to_float(), k1f, k2f),
        method="exact",
        iterations=0,
        start="closed form",
        k1_exact=k1,
        k2_exact=k2,
    )


def _inverse_factor(lapack, s):
    """(L^-1, log det s) for s = L L^T by LAPACK potrf and trtri.

    A scatter that is not PD means linearly dependent data rows or columns.
    """
    l, info = lapack.dpotrf(s, lower=1, clean=1)
    if info == 0:
        l_inv, info = lapack.dtrtri(l, lower=1)
    if info != 0:
        raise DegenerateData("singular scatter matrix")
    return l_inv, 2.0 * float(np.log(l.diagonal()).sum())


def _check_stop_rule(tol, max_iter):
    """ValueError unless max_iter >= 1 and 0 <= tol < inf: flip-flop's stop rule."""
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}")


# Checks in a row without a new minimum residual after which a run counts
# as stalled at its roundoff floor.
_STALL_SWEEPS = 8
# Over-relaxation (see flipflop): the first sweep whose residual may start
# it, and the monitor's checks without a new minimum that end it.
_RELAX_FROM = 6
_MONITOR_SWEEPS = 3


def _over_relaxation(r):
    """min(2/(2 - rho), 1.9) when the three ratios of the four residuals r
    agree within 3% at a rate rho in (0.3, 0.98), else 0 (see flipflop)."""
    if 0 in r[:-1]:
        return 0.0
    rates = [b / a for a, b in zip(r, r[1:])]
    rho = rates[-1]
    if max(rates) <= 1.03 * min(rates) and 0.3 < rho < 0.98:
        return min(2 / (2 - rho), 1.9)
    return 0.0


def flipflop(sample, init_k2=None, tol=1e-10, max_iter=10000):
    """Block-coordinate ascent alternating the two profile maximizers.

    The run keeps each factor as a whitener, K2 = F2 F2^T and K1 = F1 F1^T,
    and whitens the data before each product.  Sweep t multiplies the
    (m1*n) x m2 rows of all the Yi (Y = [Y1|...|Yn] cut m2 wide) by F2 into
    V = [Y1 F2|...|Yn F2], takes the SYRK s2 = V V^T / (n*m2) = S(K2), exactly
    symmetric, factors s2 = L2 L2^T and sets F1 = L2^-T.  Its K2 half cuts
    Z = L2^-1 Y the same way, takes s1 = Z^T Z / (n*m1) = L1 L1^T over those
    rows and sets F2 = L1^-T.
    The Cholesky factors and their inverses come from LAPACK potrf and
    trtri (scipy, imported by the first call, so importing kronmle does
    not load it).  F2 starts as the Cholesky factor of init_k2.  The pair
    is rescaled to det(K2) = 1; K1 and K2 themselves are formed only for
    the returned estimate.  The sweep's log-likelihood is
    -n*m2*logdet(s2) - n*m1*logdet(s1) - n*m1*m2, read off the two
    factors, because tr(K1 sum_i Yi K2 Yi^T) = n*m1*m2 after the K2 update.

    Stop rule and tol: write K1 = M^-T M^-1 for the pair of sweep t.  The
    s2 of sweep t+1 gives its residual ||M^-1 s2 M^-T - I||_F, which bounds
    the K1 half of the affine-invariant residual
    max(||K1^1/2 S(K2) K1^1/2 - I||, ||K2^1/2 S(K1) K2^1/2 - I||)
    (spectral norms, S the averaged scatters); the K2 half is zero by
    construction.  The residual does not change under Yi -> A Yi B^T, so
    one tol serves every scaling of the data.  The run returns the pair of
    sweep t, stop_reason "converged", as soon as that residual is below tol.
    It returns it unconverged when the residual has set no new minimum for
    8 checks in a row ("stalled": its roundoff floor lies above tol) or
    when t = max_iter ("max_iter").  stop_reason says which, and residual
    is the returned pair's.  Raises ValueError outside n*m2 >= m1,
    n*m1 >= m2, and unless 0 <= tol < inf and max_iter >= 1.

    Over-relaxation, in two phases.  Sweeps run plain until, from sweep 6
    on, three successive ratios of the residual agree within 3% at a rate
    rho in (0.3, 0.98).  From then on each sweep steps the upper-triangular
    F2 past its plain image F2+ = L1^-T/sqrt(c), F2 <- F2+ + (w-1)(F2+ - F2)
    with w = min(2/(2 - rho), 1.9): the optimal extrapolation of a linear
    iteration whose spectrum is real in [0, rho], as two-block coordinate
    ascent's is near its fixed point, which turns the rate rho into
    rho/(2 - rho).  The step is rescaled to det 1, as F2+ is: no pair
    depends on the scale of F2, so a sweep maps that direction to 0, and a
    stepped scale would decay only as (w - 1)^t.  The residual read off
    the next s2 is only a monitor, since s2 comes from the stepped F2.
    When the monitor falls below tol, sets no new minimum in 3 checks, or
    t = max_iter (or a step has a diagonal entry that is not positive),
    the run takes back F2+, recomputes that sweep's s2 (not a sweep of its
    own), never relaxes again, and lets the stop rule above decide on that
    pair.  So every sweep still records a plain pair, K1 the profile of the
    K2 it used and K2 = F2+ F2+^T, whose log-likelihood is the history
    entry, and every stop, a run cut at t included, is decided on a
    certified residual.  One running minimum serves both phases and
    restarts at each change of phase (relaxing starts, the take-back, a
    refused step): the 3 checks count monitor readings, the 8 plain pairs.
    """
    sample = sample.to_float()
    n, m1, m2 = sample.n, sample.m1, sample.m2
    if n * m2 < m1 or n * m1 < m2:
        raise ValueError("flip-flop needs n*m2 >= m1 and n*m1 >= m2")
    _check_stop_rule(tol, max_iter)
    if init_k2 is None:
        init_k2 = np.eye(m2)
    f2 = cholesky(init_k2)  # init must be PD
    from scipy.linalg import lapack

    y = sample.y
    rows = y.reshape(m1 * n, m2)
    eye = np.eye(m1)
    history, residuals = [], []
    best, best_at = np.inf, 0
    omega = 0.0  # > 0 while relaxing, < 0 once relaxing is over for good
    while True:
        v = (rows @ f2).reshape(m1, n * m2)
        s2 = v @ v.T
        s2 /= n * m2
        sweeps = len(history)
        if sweeps:
            d = (root @ s2 @ root.T - eye).ravel()
            residual = math.sqrt(d.dot(d))  # the Frobenius norm
            if residual < best:
                best, best_at = residual, sweeps
            if omega > 0:  # s2 is of the stepped F2, so residual only monitors
                if residual < tol or sweeps - best_at >= _MONITOR_SWEEPS or sweeps == max_iter:
                    f2, omega, best = f2_plus, -1.0, np.inf  # this sweep's plain pair, no more steps
                    continue
            else:
                stop = (
                    "converged" if residual < tol
                    else "stalled" if sweeps - best_at >= _STALL_SWEEPS
                    else "max_iter" if sweeps == max_iter
                    else None
                )
                if stop:
                    break
                residuals.append(residual)
                if omega == 0 and sweeps >= _RELAX_FROM:
                    omega = _over_relaxation(residuals[-4:])
                    best = np.inf if omega else best
        l2_inv, logdet_s2 = _inverse_factor(lapack, s2)
        z = (l2_inv @ y).reshape(m1 * n, m2)
        s1 = z.T @ z
        s1 /= n * m1
        l1_inv, logdet_s1 = _inverse_factor(lapack, s1)
        # K1 scales by c = det(s1^-1)^(1/m2) and K2 by 1/c, their factors by sqrt(c).
        sqrt_c = np.exp(-logdet_s1 / (2 * m2))
        root = l2_inv * sqrt_c  # M^-1 = F1^T
        f2_plus = l1_inv.T / sqrt_c
        if omega > 0:  # step past F2+ from the F2 this sweep used
            f2 = f2_plus + (omega - 1) * (f2_plus - f2)
            if (f2.diagonal() > 0).all():  # rescaled to det 1, as F2+ is
                f2 *= np.exp(-np.log(f2.diagonal()).sum() / m2)
            else:
                f2, omega, best = f2_plus, -1.0, np.inf
        else:
            f2 = f2_plus
        history.append(-n * m2 * logdet_s2 - n * m1 * logdet_s1 - n * m1 * m2)
    return KroneckerEstimate(
        k1=root.T @ root,
        k2=f2 @ f2.T,
        loglik=history[-1],
        method="flipflop",
        iterations=len(history),
        loglik_history=tuple(history),
        residual=residual,
        stop_reason=stop,
    )


def mle(sample, tol=1e-10, max_iter=10000):
    """Front end: flip-flop, climbing back up canonical.descent of the shape.

    A tol or max_iter that flipflop refuses raises ValueError first.  An
    "unbounded" descent raises MLENotExists before any castle or sweep.
    Else the first max_iter - 1 steps are castled once, each level kept as
    (kind, top, dual), top transposed at "castle^T".  Flip-flop solves the
    last dual from the identity, then each level up from sum_i Z_i^T K1 Z_i
    of its dual, swapping K1 and K2 back at "castle^T", with max_iter less
    its depth and the sweeps so far; iterations sums them all, tagged
    "chain" after a step.  DegenerateData passes on from the top level and
    raises MLENotExists from below; so does a start that is not PD.  In
    exact arithmetic that start is singular only when the dual blocks share
    a kernel vector, which the level below tested with potrf in every
    sweep, so NotPD comes only from rounding at that boundary.
    """
    _check_stop_rule(tol, max_iter)
    path, end = descent(sample.m1, sample.m2, sample.n)
    steps = ["{} ({},{},{})".format(kind, *shape) for kind, shape in path]
    if end == "unbounded":
        names = " > ".join([f"({sample.m1},{sample.m2},{sample.n})"] + steps)
        raise MLENotExists(f"the descent {names} ends where n*m2 < m1 or n*m1 < m2")
    levels, top = [], sample  # len(levels) is the depth at work, 0 the sample's own
    try:
        for kind, _ in path[: max_iter - 1]:
            if kind == "castle^T":  # the sample of the blocks Y_i^T
                top = SampleSet(np.hstack([y.T for y in top.to_float().blocks]), top.m1)
            levels.append((kind, top, castle(top)))  # DegenerateData when Y is rank-deficient
            top = levels[-1][2]
        taken = steps[: len(levels)]
        est = flipflop(top, tol=tol, max_iter=max_iter - len(levels))
        used = est.iterations
        while levels:
            kind, top, dual = levels.pop()
            k2 = scatter_k1(dual, est.k1)
            est = flipflop(top, init_k2=k2, tol=tol, max_iter=max_iter - len(levels) - used)
            used += est.iterations
            if kind == "castle^T":
                k2, k1 = normalize_det1(est.k1, est.k2)
                est = replace(est, k1=k1, k2=k2)
    except (DegenerateData, NotPD) as exc:
        if levels or isinstance(exc, NotPD):
            raise MLENotExists("the dual blocks share a kernel vector") from None
        raise
    return replace(est, method="chain", iterations=used, start=" > ".join(taken)) if taken else est


def format_estimate(est):
    """Serialize: header "m1 m2 method iterations converged loglik", then K1, K2."""
    head = f"{len(est.k1)} {len(est.k2)} {est.method} {est.iterations} {int(est.converged)} {est.loglik!r}\n"
    return head + format_matrix(est.k1) + format_matrix(est.k2)
