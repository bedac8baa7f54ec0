"""ML-degree and ML-multiplicity computations for the m2 = 2 model.

The likelihood equations are built on the chart K = [[1, k12], [k12, k22]]
from g1 = det(sum_i Yi K Yi^T) and g2 = det(K): the score numerators are
m2*g2*d(g1)/de - m1*g1*d(g2)/de for e in {k22, k12}.  Saturating by
g1*g2*k22 removes the degenerate loci before counting solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .groebner import (
    DEFAULT_PAIR_BUDGET,
    PairBudgetExceeded,
    PolyIdeal,
    buchberger,
    dim_and_degree,
    normal_form,
    saturate_rabinowitsch,
    standard_monomials,
)
from .linalg import Matrix
from .model import SampleSet
from .poly import Poly, exact_divide, poly_gcd


class Timeout:
    """Sentinel outcome for a computation that exhausted its pair budget."""

    def __repr__(self):
        return "Timeout"

    def __eq__(self, other):
        return isinstance(other, Timeout)

    def __hash__(self):
        return hash(Timeout)


TIMEOUT = Timeout()

SCORE_VARS = ("k12", "k22")


def random_integer_sample(m1, n, seed, m2=2, entry_bound=17):
    """n exact integer data matrices with entries uniform on {0,...,16}."""
    rng = np.random.default_rng(seed)
    data = tuple(
        Matrix([[int(x) for x in row] for row in rng.integers(0, entry_bound, (m1, m2))])
        for _ in range(n)
    )
    return SampleSet(m1=m1, m2=m2, n=n, data=data)


def _chart_matrix():
    k12 = Poly.variable(SCORE_VARS, "k12")
    k22 = Poly.variable(SCORE_VARS, "k22")
    one = Poly.constant(SCORE_VARS, 1)
    return [[one, k12], [k12, k22]]


def score_polynomials(sample):
    """(g1, g2, score equations) on the k11 = 1 chart for an exact m2=2 sample."""
    if sample.m2 != 2 or not sample.is_exact:
        raise ValueError("exact sample with m2 = 2 required")
    from .poly import poly_det

    k_chart = _chart_matrix()
    acc = None
    for y in sample.data:
        # y K y^T as an m1 x m1 grid of polynomials
        rows = []
        for i in range(sample.m1):
            row = []
            for j in range(sample.m1):
                entry = Poly.constant(SCORE_VARS, 0)
                for a in range(2):
                    for b in range(2):
                        coeff = y[i, a] * y[j, b]
                        if coeff != 0:
                            entry = entry + coeff * k_chart[a][b]
                row.append(entry)
            rows.append(row)
        if acc is None:
            acc = rows
        else:
            acc = [
                [acc[i][j] + rows[i][j] for j in range(sample.m1)]
                for i in range(sample.m1)
            ]
    g1 = poly_det(acc)
    g2 = poly_det(k_chart)
    m1, m2 = sample.m1, sample.m2
    gens = tuple(
        m2 * g2 * g1.diff(e) - m1 * g1 * g2.diff(e) for e in ("k22", "k12")
    )
    return g1, g2, gens


def likelihood_equations_m2_2(m1, n, seed):
    """Saturated likelihood-equation ideal for random integer data."""
    sample = random_integer_sample(m1, n, seed)
    g1, g2, gens = score_polynomials(sample)
    k22 = Poly.variable(SCORE_VARS, "k22")
    ideal = PolyIdeal(generators=gens)
    return saturate_rabinowitsch(ideal, g1 * g2 * k22)


def ml_degree(m1, n, seed, pair_budget=DEFAULT_PAIR_BUDGET):
    """Solution count (with multiplicity) of the saturated likelihood equations.

    Returns 0 when the saturated system is positive-dimensional or empty
    (degenerate regime) and TIMEOUT when the pair budget runs out.
    """
    sample = random_integer_sample(m1, n, seed)
    g1, g2, gens = score_polynomials(sample)
    k22 = Poly.variable(SCORE_VARS, "k22")
    return count_solutions_off_locus(gens, g1 * g2 * k22, pair_budget)


def count_solutions_off_locus(gens, f, pair_budget=DEFAULT_PAIR_BUDGET):
    """Solutions of a bivariate system with f != 0, counted with multiplicity.

    Any common factor of the two score polynomials is split off first: if
    some factor does not divide f, a whole curve of solutions survives and
    the count is reported as 0 (the positive-dimensional convention).
    Otherwise the count is the localized quotient dimension, obtained as
    the stable rank of the multiplication-by-f operator on the residue
    ring of the cofactor system.
    """
    p, q = gens
    if p.is_zero() or q.is_zero() or f.is_zero():
        return 0
    h = poly_gcd(p, q)
    if h.total_degree() > 0:
        residual = h
        while residual.total_degree() > 0:
            shared = poly_gcd(residual, f)
            if shared.total_degree() == 0:
                return 0
            residual = exact_divide(residual, shared)
        p = exact_divide(p, h)
        q = exact_divide(q, h)
    ideal = PolyIdeal(generators=(p.primitive(), q.primitive()))
    try:
        gb = buchberger(ideal, order="grevlex", pair_budget=pair_budget)
    except PairBudgetExceeded:
        return TIMEOUT
    monos = standard_monomials(gb)
    if not monos:
        return 0
    return _stable_rank(_multiplication_matrix(f, gb, monos))


def _multiplication_matrix(f, gb, monos):
    """Matrix of multiplication by f on the residue ring, in the given basis."""
    index = {m: i for i, m in enumerate(monos)}
    d = len(monos)
    mat = [[0] * d for _ in range(d)]
    for j, mono in enumerate(monos):
        shifted = Poly(
            f.vars,
            {tuple(a + b for a, b in zip(e, mono)): c for e, c in f.terms.items()},
        )
        nf = normal_form(shifted, list(gb.basis), gb.order)
        for e, c in nf.terms.items():
            mat[index[e]][j] = c
    return Matrix(mat)


def _rank(mat):
    """Exact rank by Gaussian elimination over the rationals.

    Kept on Fraction rather than the Bareiss kernel of linalg: these
    matrices are dense with mixed denominators of thousands of bits, and
    the fraction-free route was measured 1.5-4x slower on them.
    """
    a = [list(row) for row in mat.data]
    nrows = len(a)
    ncols = len(a[0])
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        pv = a[row][col]
        a[row] = [x / pv for x in a[row]]
        for r in range(nrows):
            if r != row and a[r][col] != 0:
                fac = a[r][col]
                a[r] = [x - fac * y for x, y in zip(a[r], a[row])]
        row += 1
        if row == nrows:
            break
    return row


def _stable_rank(mat):
    """Rank of high powers of mat; counts components where f is invertible."""
    r_prev = _rank(mat)
    if r_prev in (0, mat.rows):
        return r_prev
    power = mat
    while True:
        power = power @ mat
        r = _rank(power)
        if r == r_prev:
            return r
        r_prev = r


@dataclass(frozen=True)
class QuadraticBranch:
    """The b = 0 branch of the score system: a quadratic and its roots."""

    coefficients: tuple  # (c2, c1, c0)
    discriminant: Fraction

    def roots(self):
        c2, c1, c0 = (float(c) for c in self.coefficients)
        disc = float(self.discriminant)
        if disc < 0:
            return ()
        r = disc**0.5
        return ((-c1 - r) / (2 * c2), (-c1 + r) / (2 * c2))

    def __str__(self):
        c2, c1, c0 = self.coefficients
        return f"{c2}*x^2 + {c1}*x + {c0}"


def b_zero_quadratic(m2, k, case_id):
    """Quadratic satisfied by the trace variable on the b = 0 branch."""
    if case_id == "one":
        coeffs = (2 * k, 2 * k - m2 - 2 * k * m2, 2 * m2 - 2 * k * m2)
    elif case_id == "two":
        coeffs = (2 * k * m2 - 2 * k, 3 * k * m2 - m2 - 5 * k, -3 * k)
    else:
        raise ValueError("case_id must be 'one' or 'two'")
    coeffs = tuple(Fraction(c) for c in coeffs)
    c2, c1, c0 = coeffs
    return QuadraticBranch(coefficients=coeffs, discriminant=c1 * c1 - 4 * c2 * c0)


def _fraction_sum(terms, vars):
    """Combine (numerator, denominator) pairs over the common denominator."""
    num = Poly.constant(vars, 0)
    den = Poly.constant(vars, 1)
    for n_i, d_i in terms:
        num = num * d_i + n_i * den
        den = den * d_i
    return num, den


def prop43_system(m2, k, case_id):
    """Score system for the constructed multiplicity > 1 data sets.

    Case one (m2 > 2, k >= 2) works in the trace variable t, case two
    (m2 = 2, k >= 2) in the free diagonal entry c; both include the
    Rabinowitsch generator for the nonvanishing denominators.  Rational
    terms with a zero numerator are dropped before combining, matching
    how a CAS reduces the fraction.
    """
    if k < 2:
        raise ValueError("cases require k >= 2")
    if case_id == "one":
        if m2 <= 2:
            raise ValueError("case one requires m2 > 2")
        vars = ("t", "b")
        t = Poly.variable(vars, "t")
        b = Poly.variable(vars, "b")
        q = 4 * t * (t + 1) - b * b  # det-like denominator
        e1_terms = [(-2 * m2 * b, q), (2 * k * b, 1 - b * b)]
        e2_terms = [(m2 * (8 * t + 4), q)]
        if k != 2:
            e2_terms.append((m2 * (k - 2) * Poly.constant(vars, 1), t))
        e2_terms.append((-k * (m2 - 2) * Poly.constant(vars, 1), t - 2))
    elif case_id == "two":
        if m2 != 2:
            raise ValueError("case two requires m2 = 2")
        vars = ("c", "b")
        c = Poly.variable(vars, "c")
        b = Poly.variable(vars, "b")
        q = 2 * (c + 1) * (2 * c + 3) - b * b
        e1_terms = [(-2 * m2 * b, q), (2 * k * b, c - b * b)]
        e2_terms = [(m2 * (8 * c + 10), q)]
        if k != 2:
            e2_terms.append((m2 * (k - 2) * Poly.constant(vars, 1), c + 1))
        e2_terms.append((-k * Poly.constant(vars, 1), c - b * b))
    else:
        raise ValueError("case_id must be 'one' or 'two'")

    def as_poly(x):
        return x if isinstance(x, Poly) else Poly.constant(vars, x)

    e1_terms = [(as_poly(n), as_poly(d)) for n, d in e1_terms]
    e2_terms = [(as_poly(n), as_poly(d)) for n, d in e2_terms]
    num1, den1 = _fraction_sum(e1_terms, vars)
    num2, den2 = _fraction_sum(e2_terms, vars)
    ideal = PolyIdeal(generators=(num1.primitive(), num2.primitive()))
    return saturate_rabinowitsch(ideal, den1 * den2)


def ml_multiplicity_prop43(m2, k, case_id, pair_budget=DEFAULT_PAIR_BUDGET):
    """Solution count of the constructed system; in [2, 5] (case one) or [2, 4]."""
    ideal = prop43_system(m2, k, case_id)
    gb = buchberger(ideal, order="grevlex", pair_budget=pair_budget)
    zero_dim, degree = dim_and_degree(gb)
    if not zero_dim:
        raise ValueError("constructed system should be zero-dimensional")
    upper = 5 if case_id == "one" else 4
    if not 2 <= degree <= upper:
        raise ValueError(f"solution count {degree} outside expected [2, {upper}]")
    return degree
