"""ML-degree and ML-multiplicity computations for the m2 = 2 model.

The likelihood equations are built on the chart K = [[1, k12], [k12, k22]]
from g1 = det(sum_i Yi K Yi^T) and g2 = det(K): the score numerators are
m2*g2*d(g1)/de - m1*g1*d(g2)/de for e in {k22, k12}.  Saturating by
g1*g2*k22 removes the degenerate loci before counting solutions.

ml_degree divides g2 out of the score polynomials, a certificate mod a
word-size prime proves the pair coprime (the PRS gcd over Q runs only when
it cannot), and the count runs Buchberger over Q and everything after it
modulo word-size primes: the multiplication-by-f matrix on the residue ring
and the stable rank of its powers are taken mod each prime of PRIMES, and
two primes must agree before a count is returned.  Per prime, f is reduced
only once; the other columns of the matrix come from the multiplication
matrices of the variables, as in FGLM (Faugere, Gianni, Lazard & Mora 1993).
The Prop. 4.3 multiplicities use the same count, localized at their
denominators.  A spent pair budget raises PairBudgetExceeded on both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .groebner import (
    DEFAULT_PAIR_BUDGET,
    PolyIdeal,
    buchberger,
    saturate_rabinowitsch,
    standard_monomials,
)
from .linalg import Matrix
from .model import SampleSet, scatter_k2
from .poly import ORDER_KEYS, Poly, certify_coprime, exact_divide, poly_gcd


SCORE_VARS = ("k12", "k22")


def random_integer_sample(m1, n, seed, m2=2, entry_bound=17):
    """n exact integer data matrices with entries uniform on {0,...,16}."""
    rng = np.random.default_rng(seed)
    blocks = [rng.integers(0, entry_bound, (m1, m2)) for _ in range(n)]
    return SampleSet(Matrix(np.hstack(blocks).tolist()), m2)


# K = [[1, k12], [k12, k22]] is E11 + k12*(E12 + E21) + k22*E22: each
# coefficient matrix, paired with its monomial's exponent in SCORE_VARS.
_CHART_TERMS = (
    ((0, 0), Matrix([[1, 0], [0, 0]])),
    ((1, 0), Matrix([[0, 1], [1, 0]])),
    ((0, 1), Matrix([[0, 0], [0, 1]])),
)


def _poly_grid(terms):
    """The grid of Polys sum x^exp * M over the (exp, square Matrix M) terms."""
    size = terms[0][1].rows
    return [
        [Poly(SCORE_VARS, {exp: m[i, j] for exp, m in terms}) for j in range(size)]
        for i in range(size)
    ]


def score_polynomials(sample):
    """(g1, g2, score equations) on the k11 = 1 chart for an exact m2=2 sample.

    The grid sum_i Yi K Yi^T is linear in K, so its entries are read off
    the three exact scatters at the coefficient matrices of 1, k12 and k22.
    """
    if sample.m2 != 2 or not sample.is_exact:
        raise ValueError("exact sample with m2 = 2 required")
    from .poly import poly_det

    g1 = poly_det(_poly_grid([(exp, scatter_k2(sample, e)) for exp, e in _CHART_TERMS]))
    g2 = poly_det(_poly_grid(_CHART_TERMS))
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

    g2 = det K is divided out of both score polynomials as often as it
    divides them.  It divides f = g1*g2*k22, so it is a unit off the locus,
    and the solutions there and their multiplicities do not change.  (On
    every cell tried, a power of g2 was the only common factor of the two.)

    Returns 0 when the saturated system is positive-dimensional or empty
    (degenerate regime); raises PairBudgetExceeded when the pair budget
    runs out.
    """
    sample = random_integer_sample(m1, n, seed)
    g1, g2, gens = score_polynomials(sample)
    k22 = Poly.variable(SCORE_VARS, "k22")
    gens = tuple(_divide_out(g, g2) for g in gens)
    return count_solutions_off_locus(gens, g1 * g2 * k22, pair_budget)


def _divide_out(p, d):
    """p divided by d for as long as d divides it exactly."""
    while not p.is_zero():
        try:
            p = exact_divide(p, d)
        except ValueError:
            break
    return p


def count_solutions_off_locus(gens, f, pair_budget=DEFAULT_PAIR_BUDGET):
    """Solutions of a bivariate system with f != 0, counted with multiplicity.

    A common factor of the two polynomials must be split off first.
    poly.certify_coprime proves most pairs coprime mod a word-size prime at
    little cost; only when it cannot does the primitive PRS (poly_gcd) run.
    If some factor of the gcd does not divide f, a whole curve of solutions
    survives and the count is reported as 0 (the positive-dimensional
    convention).  Otherwise the count is the localized quotient dimension:
    the stable rank of the multiplication-by-f operator on the residue ring
    of the cofactor system, whose Groebner basis is computed over Q.  The
    operator and its rank are then taken modulo the word-size primes of
    PRIMES (see _modular_stable_rank).  A spent pair_budget raises
    PairBudgetExceeded.
    """
    p, q = gens
    if p.is_zero() or q.is_zero() or f.is_zero():
        return 0
    h = Poly.constant(p.vars, 1) if certify_coprime(p, q) else poly_gcd(p, q)
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
    gb = buchberger(ideal, order="grevlex", pair_budget=pair_budget)
    monos = standard_monomials(gb)
    if not monos:
        return 0
    return _modular_stable_rank(f, gb, monos)


# Primes just below 2**61: a residue fits a machine word and a product of
# two fits two; 2**61 - 1 is a Mersenne prime.
PRIMES = (2**61 - 1, 2**61 - 31, 2**61 - 45, 2**61 - 229, 2**61 - 259, 2**61 - 283)


class PrimesExhausted(ArithmeticError):
    """No two primes of PRIMES agreed on the largest stable rank."""


def _modular_stable_rank(f, gb, monos):
    """Stable rank of multiplication by f on Q[x]/<gb>, counted mod primes.

    The basis is monic, so where p divides no denominator of the basis or
    of f, its image mod p is still a Groebner basis with the same standard
    monomials, and the operator mod p is the image of the one over Q.  A
    rank mod p never exceeds the rank over Q, so each good prime gives a
    lower bound; the count is returned once two primes agree on the
    largest bound seen.
    """
    key = ORDER_KEYS[gb.order]
    best, agreeing = -1, 0
    for prime in PRIMES:
        basis = [_terms_mod(g, prime) for g in gb.basis]
        f_mod = _terms_mod(f, prime)
        if f_mod is None or None in basis:
            continue  # prime divides a denominator
        mat = _multiplication_matrix_mod(f_mod, basis, monos, key, prime)
        r = _stable_rank_mod(mat, prime)
        if r > best:
            best, agreeing = r, 1
        elif r == best:
            agreeing += 1
        if agreeing == 2:
            return best
    raise PrimesExhausted(f"no two of {len(PRIMES)} primes agreed on a stable rank")


def _terms_mod(poly, prime):
    """Exponent -> coefficient mod prime, or None if prime divides a denominator."""
    out = {}
    for e, c in poly.terms.items():
        if c.denominator % prime == 0:
            return None
        r = c.numerator * pow(c.denominator, -1, prime) % prime
        if r:
            out[e] = r
    return out


def _multiplication_matrix_mod(f, basis, monos, key, prime):
    """Matrix mod prime of multiplication by f on the standard monomials.

    Column j is the normal form of f times the j-th standard monomial; f
    and the monic basis are exponent -> int maps mod prime.  Only the
    column of the monomial 1, NF(f), runs the division loop on f.  Every
    other column m is M_v times the column of m / x_v, for the first
    variable v of m, where column s of M_v is NF(x_v * s): a unit vector
    when x_v * s is standard, else one short division of that border
    monomial, built when first needed.  This is sound because the standard
    monomials are closed under division (m / x_v is standard, and visiting
    by total degree builds its column first) and multiplication commutes:
    [f x_v m'] = M_v [f m'].
    """
    leads = [(max(g, key=key), g) for g in basis]

    @cache
    def tail(exp):
        # Non-leading terms of the first basis element whose leading
        # monomial divides exp, shifted by the quotient; None if exp is a
        # standard monomial.
        for lexp, g in leads:
            if all(x <= y for x, y in zip(lexp, exp)):
                shift = tuple(a - b for a, b in zip(exp, lexp))
                return [
                    (tuple(a + b for a, b in zip(gexp, shift)), gc)
                    for gexp, gc in g.items()
                    if gexp != lexp
                ]
        return None

    order_key = cache(key)
    index = {m: i for i, m in enumerate(monos)}

    def normal_form(work):
        # (row, coefficient) pairs of the normal form of the exponent ->
        # coefficient map work, by a loop that cancels the leading term.
        out = []
        while work:
            exp = max(work, key=order_key)
            coeff = work.pop(exp)
            terms = tail(exp)
            if terms is None:
                out.append((index[exp], coeff))
                continue
            for tgt, gc in terms:
                s = (work.get(tgt, 0) - coeff * gc) % prime
                if s:
                    work[tgt] = s
                else:
                    work.pop(tgt, None)
        return out

    @cache
    def var_column(v, s):
        # Column s of M_v: the normal form of x_v times the monomial s.
        exp = monos[s][:v] + (monos[s][v] + 1,) + monos[s][v + 1:]
        return [(index[exp], 1)] if exp in index else normal_form({exp: 1})

    d = len(monos)
    cols = {}
    for mono in sorted(monos, key=sum):
        col = [0] * d
        v = next((i for i, e in enumerate(mono) if e), None)
        if v is None:
            for i, c in normal_form(dict(f)):
                col[i] = c
        else:
            prev = cols[mono[:v] + (mono[v] - 1,) + mono[v + 1:]]
            for s, c in enumerate(prev):
                if c:
                    for i, a in var_column(v, s):
                        col[i] += a * c
            col = [x % prime for x in col]
        cols[mono] = col
    return [list(row) for row in zip(*(cols[m] for m in monos))]


def _rank_mod(rows, prime):
    """Rank over the integers mod prime, by Gaussian elimination."""
    a = [list(row) for row in rows]
    rank = 0
    for col in range(len(a[0])):
        pivot = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][col], -1, prime)
        prow = [x * inv % prime for x in a[rank]]
        for i in range(rank + 1, len(a)):
            fac = a[i][col]
            if fac:
                a[i] = [(x - fac * y) % prime for x, y in zip(a[i], prow)]
        rank += 1
        if rank == len(a):
            break
    return rank


def _stable_rank_mod(mat, prime):
    """Rank mod prime of high powers of mat: stop when a power keeps the rank."""
    r_prev = _rank_mod(mat, prime)
    if r_prev in (0, len(mat)):
        return r_prev
    cols = list(zip(*mat))
    power = mat
    while True:
        power = [[sum(x * y for x, y in zip(row, col)) % prime for col in cols] for row in power]
        r = _rank_mod(power, prime)
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


def _prop43_pair(m2, k, case_id):
    """Score numerators of the constructed multiplicity > 1 data sets.

    Case one (m2 > 2, k >= 2) works in the trace variable t, case two
    (m2 = 2, k >= 2) in the free diagonal entry c.  Returns the two
    primitive numerators and the product of their denominators, which must
    not vanish at a solution.  Rational terms with a zero numerator are
    dropped before combining, matching how a CAS reduces the fraction.
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
    return (num1.primitive(), num2.primitive()), den1 * den2


def prop43_system(m2, k, case_id):
    """The constructed score system with the Rabinowitsch generator for its
    nonvanishing denominators adjoined: a three-variable ideal whose degree
    is the solution count, kept as an oracle for ml_multiplicity_prop43."""
    gens, f = _prop43_pair(m2, k, case_id)
    return saturate_rabinowitsch(PolyIdeal(generators=gens), f)


# The largest solution count Prop. 4.3 allows for each constructed case;
# the smallest is 2.
PROP43_UPPER = {"one": 5, "two": 4}


def ml_multiplicity_prop43(m2, k, case_id, pair_budget=DEFAULT_PAIR_BUDGET):
    """Solution count off the denominators' locus, in [2, PROP43_UPPER[case_id]]."""
    gens, f = _prop43_pair(m2, k, case_id)
    count = count_solutions_off_locus(gens, f, pair_budget)
    upper = PROP43_UPPER[case_id]
    if not 2 <= count <= upper:
        raise ValueError(f"solution count {count} outside expected [2, {upper}]")
    return count
