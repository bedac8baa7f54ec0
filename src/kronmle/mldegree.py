"""ML-degree and ML-multiplicity computations for the m2 = 2 model.

The likelihood equations are built on the chart K = [[1, k12], [k12, k22]]
from g1 = det(sum_i Yi K Yi^T) and g2 = det(K): the score numerators are
m2*g2*d(g1)/de - m1*g1*d(g2)/de for e in {k22, k12}.  Their solutions off
the locus g1*g2*k22 = 0 are counted with multiplicity, modulo primes below
2**31 by the sheared resultant (_count_by_trials).  ml_degree decides the
shapes whose count is 0 before any data are drawn, and builds no polynomial
over Q: sum_i Yi K Yi^T is A0 + k12*A1 + k22*A2 for three integer
scatters, linalg.det_stack mod p gives g1 on the (m1+1)^2 integer grid,
and the score pair follows mod p.  No count goes back to Q: a pair whose
resultant vanishes shares a factor, and raises PrimesExhausted.
The Prop. 4.3 pairs are built as integer images mod p too, and counted the
same way off their denominators: no count runs Poly arithmetic.  Every
image builder gives its polynomials in their own variables; only the count
applies the shear, while it evaluates them (_rows_at)."""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from functools import cache, reduce
from itertools import accumulate
from math import prod

import numpy as np

from .linalg import Matrix, det_stack
from .model import SampleSet, scatter_k2


def _lazy_submodule(name):
    """kronmle.<name>, entered in sys.modules and bound on the package but
    executed on its first attribute access (importlib.util.LazyLoader).  Only
    the oracles below use poly and groebner, so no command runs their code;
    the benchmark's tracer finds them in sys.modules all the same."""
    spec = importlib.util.find_spec(f"{__package__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


poly, groebner = _lazy_submodule("poly"), _lazy_submodule("groebner")

SCORE_VARS = ("k12", "k22")


def _integer_data(m1, n, seed):
    """The m1 x (2n) concatenation of n integer m1 x 2 blocks, entries on {0,...,16}."""
    rng = np.random.default_rng(seed)
    return np.hstack([rng.integers(0, 17, (m1, 2)) for _ in range(n)])


def random_integer_sample(m1, n, seed):
    """n exact integer m1 x 2 data matrices with entries uniform on {0,...,16}."""
    return SampleSet(Matrix.from_ints(_integer_data(m1, n, seed)), 2)


def score_polynomials(sample):
    """(g1, g2, score equations) on the k11 = 1 chart for an exact m2=2 sample.

    K = E11 + k12*(E12 + E21) + k22*E22, so the grid sum_i Yi K Yi^T is
    A0 + k12*A1 + k22*A2 for the exact scatters at those three matrices.
    """
    if sample.m2 != 2 or not sample.is_exact:
        raise ValueError("exact sample with m2 = 2 required")
    a0, a1, a2 = (scatter_k2(sample, Matrix(e)) for e in ([[1, 0], [0, 0]], [[0, 1], [1, 0]], [[0, 0], [0, 1]]))
    k12, k22 = (poly.Poly.variable(SCORE_VARS, v) for v in SCORE_VARS)
    m1 = sample.m1
    g1 = poly.poly_det([[a0[i, j] + a1[i, j] * k12 + a2[i, j] * k22 for j in range(m1)] for i in range(m1)])
    g2 = k22 - k12 * k12
    gens = tuple(2 * g2 * g1.diff(e) - m1 * g1 * g2.diff(e) for e in SCORE_VARS[::-1])
    return g1, g2, gens


def likelihood_equations_m2_2(m1, n, seed):
    """Saturated likelihood-equation ideal for random integer data."""
    g1, g2, gens = score_polynomials(random_integer_sample(m1, n, seed))
    k22 = poly.Poly.variable(SCORE_VARS, "k22")
    return groebner.saturate_rabinowitsch(groebner.PolyIdeal(generators=gens), g1 * g2 * k22)


def ml_degree(m1, n, seed):
    """Solution count (with multiplicity) of the saturated likelihood equations.

    g2 = det K, a locus factor, is divided out of both score polynomials as
    often as it divides them (on every cell tried, their only common factor).
    The count is 0 when the saturated system is positive-dimensional or
    empty, and these shapes are 0 for every sample, so no data are drawn:
    - n*m2 < m1: sum_i Yi K Yi^T = Y (I_n kron K) Y^T has rank at most n*m2,
      so g1 = 0 identically.
    - n*m2 = m1: Y is square and g1 = det(Y)^2 * g2^n, so both score
      numerators are det(Y)^2 * g2^n * d(g2)/de * (m2*n - m1) = 0.
    - m1 = m2 = n = 2: the sample A Yi B^T has the critical points
      B^-T K2 B^-1 of the sample Yi, and for generic data A = P^-1 Y1^-1,
      B^T = P, with P diagonalizing Y1^-1 Y2, make it (I, D), D diagonal.
      The torus T = {(diag(t)^-1, diag(t))} fixes (I, D), so the profile
      likelihoods of K2 and of diag(t) K2 diag(t) differ by a constant,
      and T carries critical points to critical points and the locus to
      itself.  On the chart, T moves every K2 off the locus along the
      curve (k12, k22) -> (s*k12, s^2*k22), so the critical points
      form curves, or there are none.
    """
    if 2 * n <= m1 or m1 == n == 2:
        return 0
    y = _integer_data(m1, n, seed)
    first, second = y[:, 0::2], y[:, 1::2]
    scatters = (first @ first.T, first @ second.T + second @ first.T, second @ second.T)
    return _count_by_trials(lambda prime: _chart_images(scatters, prime))


def count_solutions_off_locus(gens, factors):
    """Solutions of a pair of bivariate Polys off the zeros of the factors,
    counted with multiplicity by _count_by_trials; 0 when a Poly is zero."""
    p, q = gens
    locus = prod(factors, start=poly.Poly.constant(p.vars, 1))
    if p.is_zero() or q.is_zero() or locus.is_zero():
        return 0
    return _count_by_trials(lambda prime: _poly_images((p, q, locus), prime))


# Primes just below 2**31: two residues multiply within an int64.
PRIMES = (2**31 - 1, 2**31 - 19, 2**31 - 61, 2**31 - 69, 2**31 - 85, 2**31 - 99)


class PrimesExhausted(ArithmeticError):
    """No two primes of PRIMES agreed on the largest count, or the
    resultant vanished on two of them."""


def _shear(prime):
    """The shear of the trial at prime: a large residue mod prime."""
    return pow(3, 40, prime)


def _count_by_trials(images):
    """Count of solutions off a locus, by the sheared resultant mod primes.

    images(prime) gives the images mod prime of the pair p, q and of the
    product F of the locus factors, as square arrays in (x, y) whose size
    exceeds their total degree, or None when prime divides a denominator.
    A trial shears them, y -> y + c*x with c = _shear(prime), and needs
    each leading coefficient in x, the top homogeneous part at (1, c), to
    be a nonzero constant.  Then R(y) = Res_x(p, q), the image of the
    resultant over Q, has a root at the y of each solution, of its
    multiplicity, so deg R counts the solutions.  A solution on the locus
    is a zero of p + c*q and F, so R is divided by its gcd with
    L = Res_x(p + c*q, F) until that gcd is constant; the count is what is
    left of deg R.  Bezout's bound deg p*deg q fixes the cost of a trial.

    A failed trial can only undercount.  A bad shear can give a solution off
    the locus the same y as a zero of p + c*q and F, which is then divided
    out too; a bad prime can lower deg R or make the gcds larger.  So the
    largest count is returned once two trials agree on it.  R != 0 mod prime
    proves p, q coprime over Q; R = 0 on two trials means they share a
    factor, and raises PrimesExhausted.
    """
    best, agreeing, vanished = -1, 0, 0
    for prime in PRIMES:
        image = images(prime)
        count = None if image is None else _sheared_count(*image, prime, _shear(prime))
        if count is None:
            continue
        if count < 0:
            vanished += 1
            if vanished == 2:
                raise PrimesExhausted("the resultant vanished on two primes: the pair shares a factor")
        elif count > best:
            best, agreeing = count, 1
        elif count == best:
            agreeing += 1
        if agreeing == 2:
            return best
    raise PrimesExhausted(f"no two of {len(PRIMES)} primes agreed on a count")


def _sheared_count(p, q, f, prime, shear):
    """One trial: the count, -1 when R vanishes, or None when it proves nothing."""
    if not p.any() or not q.any():
        return -1
    degrees = dp, dq, df = [int(np.add(*np.nonzero(a)).max(initial=-1)) for a in (p, q, f)]  # -1 for a zero array
    dm = max(dp, dq)
    points = max(dp * dq, dm * df) + 1
    if df < 0 or points > prime:
        return None  # a zero locus, or too few interpolation nodes
    p_rows, q_rows, f_rows = rows = [_rows_at(a, d, points, prime, shear) for a, d in zip((p, q, f), degrees)]
    if not all(r[0, -1] for r in rows):
        return None  # a leading coefficient in x vanishes
    mix = np.zeros((points, dm + 1), dtype=np.int64)
    mix[:, : dp + 1] = p_rows
    mix[:, : dq + 1] = (mix[:, : dq + 1] + shear * q_rows) % prime
    if not mix[0, dm]:
        return None
    r, locus = _interpolate(np.array([_resultants(p_rows, q_rows, prime), _resultants(mix, f_rows, prime)]), prime)
    if not r:
        return -1
    while len(g := _gcd_mod(r, locus, prime)) > 1:
        r = _divmod_mod(r, g, prime)[0]
    return len(r) - 1


def _rows_at(a, d, points, prime, shear):
    """Coefficients in x, lowest first, of a(x, t + c*x) at t = 0, ...,
    points-1: one row per point, for a dense array of total degree d, by
    Horner's rule in y.  Row d in x is the top homogeneous part of a at
    (1, c), the same for every t."""
    t = np.arange(points, dtype=np.int64)
    out = np.repeat(a[: d + 1, d : d + 1], points, axis=1)
    for j in range(d - 1, -1, -1):
        cx_out = shear * out[:-1]
        out *= t
        out[1:] += cx_out  # out*t and c*out are each below prime**2 < 2**62
        out += a[: d + 1, j : j + 1]
        out %= prime
    return out.T


def _resultants(a, b, prime):
    """Res(a[k], b[k]) mod prime for each row k of two coefficient arrays,
    lowest first, with nonzero last columns, by Euclid's algorithm on all
    rows at once: Res(a, b) = (-1)^(deg a*deg b) * lc(b)^(deg a - deg r) *
    Res(b, r) for r = a mod b.  The pseudo-remainder lc(b)^s * r, with
    s = deg a - deg b + 1, scales Res(b, r) by lc(b)^(s*deg b), which is
    divided out at the end.  A row whose remainder vanishes has Res = 0;
    rows whose remainder drops more than one degree go on in groups."""
    res, den = np.ones((2, a.shape[0]), dtype=np.int64)
    while b.shape[1] > 1:
        da, db = a.shape[1] - 1, b.shape[1] - 1
        if da * db % 2:
            res = -res % prime
        if da < db:
            a, b = b, a
            continue
        lc, s = b[:, -1:], da - db + 1
        r = a.copy()
        for k in range(da - db, -1, -1):
            lead = r[:, k + db : k + db + 1].copy()
            r[:, : k + db] *= lc
            r[:, k : k + db] -= lead * b[:, :db]
            r[:, : k + db] %= prime
        r = r[:, :db]
        if not r[:, -1].all():
            nonzero = r != 0
            deg = np.where(nonzero.any(axis=1), db - 1 - np.argmax(nonzero[:, ::-1], axis=1), -1)
            out = np.zeros_like(res)
            for d in set(deg.tolist()) - {-1}:
                g = deg == d
                out[g] = res[g] * _power(lc[g, 0], da - d, prime) % prime * _resultants(b[g], r[g, : d + 1], prime)
            res, den = out % prime, den * _power(lc[:, 0], s * db, prime) % prime
            break
        den = den * _power(lc[:, 0], s * (db - 1), prime) % prime  # deg r = deg b - 1
        a, b = b, r
    else:
        res = res * _power(b[:, 0], a.shape[1] - 1, prime) % prime
    return res * np.array([pow(d, -1, prime) for d in den.tolist()], dtype=np.int64) % prime


def _power(x, e, prime):
    """x**e mod prime, elementwise, by squaring."""
    out = np.ones_like(x)
    for bit in bin(e)[:1:-1]:
        out = out * x % prime if bit == "1" else out
        x = x * x % prime
    return out


def _divmod_mod(a, b, prime):
    """Quotient and remainder mod prime of coefficient lists, lowest first."""
    r, db = list(a), len(b) - 1
    inv = pow(b[-1], -1, prime)
    quot = [0] * max(len(a) - db, 0)
    for k in range(len(a) - 1 - db, -1, -1):
        c = quot[k] = r[k + db] * inv % prime
        r[k : k + db] = [(x - c * y) % prime for x, y in zip(r[k : k + db], b)]
    del r[db:]
    while r and not r[-1]:
        r.pop()
    return quot, r


def _gcd_mod(a, b, prime):
    while b:
        a, b = b, _divmod_mod(a, b, prime)[1]
    return a


def _interpolate(values, prime):
    """Trimmed coefficient lists mod prime, lowest first, of the polynomials
    of degree < n taking the values in each row at x = 0, ..., n-1."""
    out = _matmul_mod(values, _interpolation_matrix(values.shape[1], prime).T, prime).tolist()
    for row in out:
        while row and not row[-1]:
            row.pop()
    return out


@cache
def _interpolation_matrix(n, prime):
    """W mod prime with W @ [f(0), ..., f(n-1)] = the coefficients of f for
    deg f < n: column k is the Lagrange polynomial M(x) / (x - k) /
    ((-1)^(n-1-k) * k! * (n-1-k)!) for M(x) = x(x-1)...(x-n+1)."""
    m = np.zeros(n + 1, dtype=np.int64)
    m[0] = 1
    for j in range(n):  # m <- m * (x - j)
        m[1:] = (m[:-1] - j * m[1:]) % prime
        m[0] = -j * m[0] % prime
    nodes = np.arange(n, dtype=np.int64)
    out = np.ones((n, n), dtype=np.int64)
    for i in range(n - 1, 0, -1):  # synthetic division of M by x - k, for every k
        out[i - 1] = (m[i] + nodes * out[i]) % prime
    fact = list(accumulate(range(1, n), lambda f, j: f * j % prime, initial=1))
    scale = [(-1) ** (n - 1 - k) * pow(fact[k] * fact[n - 1 - k], -1, prime) % prime for k in range(n)]
    return out * np.array(scale, dtype=np.int64) % prime


def _matmul_mod(a, b, prime):
    """a @ b mod prime for int64 residues below 2**31: b is split into
    16-bit halves, so that no sum of products leaves int64."""
    return ((a @ (b >> 16)) % prime * 65536 + a @ (b & 65535)) % prime


def _chart_images(scatters, prime):
    """Images mod prime of the score pair with g2 divided out and of the
    locus g1*g2*k22, in (k12, k22): g1 = det(A0 + k12*A1 + k22*A2) on the
    integer grid, interpolated."""
    m1 = scatters[0].shape[0]
    if m1 >= prime:
        return None  # too few interpolation nodes
    a0, a1, a2 = (s % prime for s in scatters)
    t = np.arange(m1 + 1, dtype=np.int64)[:, None, None, None]
    grid = (a0 + t * a1 + t.transpose(1, 0, 2, 3) * a2) % prime
    values = det_stack(grid.reshape(-1, m1, m1), prime).reshape(m1 + 1, m1 + 1)
    w = _interpolation_matrix(m1 + 1, prime)
    g1 = np.zeros((m1 + 4, m1 + 4), dtype=np.int64)
    g1[: m1 + 1, : m1 + 1] = _matmul_mod(w, _matmul_mod(w, values, prime).T, prime).T
    g2, k22 = np.zeros_like(g1), np.zeros_like(g1)
    g2[0, 1] = k22[0, 1] = 1
    g2[2, 0] = prime - 1
    # With g1 = g2^e * h, the score pair is g2^e times this pair.  g2 does not
    # divide h, so it divides neither unless 2e = m1; then h is a constant
    # (deg g1 <= m1) and both are zero.
    h, e = _divide_g2(g1, prime)
    k = np.arange(1, m1 + 4, dtype=np.int64)
    hx, hy = np.zeros_like(h), np.zeros_like(h)
    hx[:-1] = h[1:] * k[:, None] % prime
    hy[:, :-1] = h[:, 1:] * k % prime
    p = (2 * _times(g2, hy, prime) + (2 * e - m1) * h) % prime
    q = (2 * _times(g2, hx, prime) + 2 * (m1 - 2 * e) * np.roll(h, 1, axis=0)) % prime
    return p, q, _times(k22, _times(g2, g1, prime), prime)


def _times(small, a, prime):
    """small * a mod prime for dense arrays of residues in [0, prime), so
    that no product leaves int64, when the product fits in a's shape."""
    out, (rows, cols) = np.zeros_like(a), a.shape
    for i, j in zip(*np.nonzero(small)):
        out[i:, j:] = (out[i:, j:] + small[i, j] * a[: rows - i, : cols - j]) % prime
    return out


def _divide_g2(a, prime):
    """(a / g2^e, e) mod prime for the largest e, with g2 = y - x^2, by
    synthetic division in y: the quotient's coefficient of y^(j-1) is
    a_j + x^2 times that of y^j, and at j = 0 the remainder."""
    rows, e = a.shape[0], 0
    while a[:, 1:].any():
        top = int(np.nonzero(a.any(axis=0))[0][-1])
        work = np.zeros((rows + 2 * top, top + 1), dtype=np.int64)
        work[:rows] = a[:, : top + 1]
        for j in range(top - 1, -1, -1):
            work[2:, j] = (work[2:, j] + work[:-2, j + 1]) % prime
        if work[:, 0].any():
            break
        a = np.zeros_like(a)
        a[:, :top] = work[:rows, 1:]
        e += 1
    return a, e


def _poly_images(polys, prime):
    """Images mod prime of bivariate Polys as dense arrays, as
    _count_by_trials takes them; None when prime divides a denominator."""
    images = []
    for f in polys:
        if any(c.denominator % prime == 0 for c in f.terms.values()):
            return None
        size = max(f.total_degree(), 0) + 1
        a = np.zeros((size, size), dtype=np.int64)
        for (i, j), c in f.terms.items():
            a[i, j] = c.numerator * pow(c.denominator, -1, prime) % prime
        images.append(a)
    return images


@dataclass(frozen=True)
class QuadraticBranch:
    """The b = 0 branch of the score system: a quadratic and its roots."""

    coefficients: tuple  # (c2, c1, c0), integers
    discriminant: int

    def roots(self):
        """The real roots, smaller first: s/c2 and c0/s for s = -(c1 + sign(c1)*sqrt(disc))/2,
        which nothing cancels in, as Decimals 30 digits longer than any c (|root| <= 1 + max |c|)."""
        if self.discriminant < 0:
            return ()
        c2, c1, c0 = map(Decimal, self.coefficients)
        with localcontext(Context(prec=30 + max(len(str(c)) for c in self.coefficients))):
            s = -(c1 + Decimal(self.discriminant).sqrt().copy_sign(c1)) / 2
            return tuple(sorted((s / c2, c0 / s)))

    def __str__(self):
        c2, c1, c0 = self.coefficients
        return f"{c2}*x^2 + {c1}*x + {c0}"


def b_zero_quadratic(m2, k, case_id):
    """Quadratic satisfied by the trace variable on the b = 0 branch."""
    if case_id == "one":
        c2, c1, c0 = 2 * k, 2 * k - m2 - 2 * k * m2, 2 * m2 - 2 * k * m2
    elif case_id == "two":
        c2, c1, c0 = 2 * k * m2 - 2 * k, 3 * k * m2 - m2 - 5 * k, -3 * k
    else:
        raise ValueError("case_id must be 'one' or 'two'")
    return QuadraticBranch(coefficients=(c2, c1, c0), discriminant=c1 * c1 - 4 * c2 * c0)


def _prop43_terms(m2, k, case_id):
    """The score equations of the constructed multiplicity > 1 data sets:
    lists of terms (n, d) for n / d, each {(i, j): a} for sum a * x^i * b^j,
    x the trace t in case one (m2 > 2) and the free diagonal entry c in case
    two (m2 = 2).  Zero numerators are dropped, as a CAS reduces them."""
    if case_id not in ("one", "two"):
        raise ValueError("case_id must be 'one' or 'two'")
    if k < 2 or (m2 <= 2 if case_id == "one" else m2 != 2):
        raise ValueError(f"case {case_id} requires m2 {'> 2' if case_id == 'one' else '= 2'} and k >= 2")
    if case_id == "one":
        q, d = {(2, 0): 4, (1, 0): 4, (0, 2): -1}, {(0, 0): 1, (0, 2): -1}  # 4t(t+1) - b^2, 1 - b^2
        e2 = [({(1, 0): 8 * m2, (0, 0): 4 * m2}, q), ({(0, 0): m2 * (k - 2)}, {(1, 0): 1}),
              ({(0, 0): -k * (m2 - 2)}, {(1, 0): 1, (0, 0): -2})]
    else:
        q, d = {(2, 0): 4, (1, 0): 10, (0, 0): 6, (0, 2): -1}, {(1, 0): 1, (0, 2): -1}  # 2(c+1)(2c+3)-b^2, c-b^2
        e2 = [({(1, 0): 8 * m2, (0, 0): 10 * m2}, q), ({(0, 0): m2 * (k - 2)}, {(1, 0): 1, (0, 0): 1}),
              ({(0, 0): -k}, d)]
    e1 = [({(0, 1): -2 * m2}, q), ({(0, 1): 2 * k}, d)]
    return [[(n, d) for n, d in eq if any(n.values())] for eq in (e1, e2)]


def _prop43_images(m2, k, case_id, prime):
    """Images mod prime in (x, b) for _count_by_trials of the Prop. 4.3
    pair, each numerator sum_i n_i * prod_{j != i} d_j over its equation's
    terms, and of the product of the distinct d_j.  Coefficients are
    reduced first, so m2 and k may be any size, each polynomial product one
    _times on residues.  None when a numerator vanishes: p divides its content."""
    equations = _prop43_terms(m2, k, case_id)

    def product(polys):
        images = np.zeros((len(polys), 7, 7), dtype=np.int64)  # every product has degree <= 6
        for image, p in zip(images, polys):
            for (i, j), a in p.items():
                image[i, j] = a % prime
        return reduce(lambda f, g: _times(g, f, prime), images)

    pair = [sum(product([n] + [d for _, d in eq[:i] + eq[i + 1 :]]) for i, (n, _) in enumerate(eq)) % prime
            for eq in equations]
    dens = [d for eq in equations for _, d in eq]
    locus = product([d for i, d in enumerate(dens) if d not in dens[:i]])
    return (*pair, locus) if all(p.any() for p in pair) else None


def prop43_system(m2, k, case_id):
    """The Prop. 4.3 system with the Rabinowitsch generator for its
    denominators adjoined, an oracle for ml_multiplicity_prop43 whose degree is
    the count: the images of _prop43_images read in (-p/2, p/2), every
    coefficient below (sum |n| + 1) * prod |d| over all terms, in 1-norms."""
    norms = [[sum(map(abs, p.values())) for p in term] for eq in _prop43_terms(m2, k, case_id) for term in eq]
    bound, prime = (sum(a for a, _ in norms) + 1) * prod(c for _, c in norms), PRIMES[0]
    if 2 * bound >= prime:
        raise ValueError(f"coefficients up to {bound} do not lift from one prime")
    vars = ("t" if case_id == "one" else "c", "b")
    p, q, locus = (poly.Poly(vars, {ij: int(v) - prime if 2 * v > prime else int(v) for ij, v in np.ndenumerate(a)})
                   for a in _prop43_images(m2, k, case_id, prime))
    return groebner.saturate_rabinowitsch(groebner.PolyIdeal(generators=(p, q)), locus)


# The largest solution count Prop. 4.3 allows for each constructed case;
# the smallest is 2.
PROP43_UPPER = {"one": 5, "two": 4}


def ml_multiplicity_prop43(m2, k, case_id):
    """Solution count off the denominators' locus, in [2, PROP43_UPPER[case_id]]."""
    count = _count_by_trials(lambda prime: _prop43_images(m2, k, case_id, prime))
    if not 2 <= count <= PROP43_UPPER[case_id]:
        raise ValueError(f"solution count {count} outside expected [2, {PROP43_UPPER[case_id]}]")
    return count
