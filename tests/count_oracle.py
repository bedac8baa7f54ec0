"""The Groebner-basis count of likelihood-equation solutions, kept as the
tests' oracle for the sheared resultant of kronmle.mldegree.

The route: split off the PRS gcd of the pair over Q, run Buchberger over Q
on the cofactors, and take the stable rank of multiplication by f on the
residue ring.  The multiplication matrix and its rank are taken modulo
word-size primes: where a prime divides no denominator of the monic basis
or of f, the basis mod p is still a Groebner basis with the same standard
monomials, and a rank mod p never exceeds the rank over Q, so the count is
returned once two primes agree on the largest rank seen.  Per prime, f is
reduced only once; the other columns come from the multiplication matrices
of the variables, as in FGLM (Faugere, Gianni, Lazard & Mora 1993).
"""

from functools import cache

from kronmle.groebner import PolyIdeal, buchberger, standard_monomials
from kronmle.mldegree import SCORE_VARS, PrimesExhausted, random_integer_sample, score_polynomials
from kronmle.poly import ORDER_KEYS, Poly, exact_divide, poly_gcd

# Primes just below 2**61: a residue fits a machine word and a product of
# two fits two; 2**61 - 1 is a Mersenne prime.
PRIMES = (2**61 - 1, 2**61 - 31, 2**61 - 45, 2**61 - 229, 2**61 - 259, 2**61 - 283)


def score_system(m1, n, seed):
    """The undivided score pair of random integer data and f = g1*g2*k22."""
    g1, g2, gens = score_polynomials(random_integer_sample(m1, n, seed))
    return gens, g1 * g2 * Poly.variable(SCORE_VARS, "k22")


def divide_out(p, d):
    """p divided by d for as long as d divides it exactly."""
    while not p.is_zero():
        try:
            p = exact_divide(p, d)
        except ValueError:
            break
    return p


def residue_ring(gens, f):
    """(f, grevlex basis, standard monomials) of the cofactor pair, or None
    when the count is 0: a factor of the gcd that divides no power of f
    leaves a curve of solutions, or the residue ring is zero."""
    p, q = gens
    if p.is_zero() or q.is_zero() or f.is_zero():
        return None
    h = poly_gcd(p, q)
    residual = h
    while residual.total_degree() > 0:
        shared = poly_gcd(residual, f)
        if shared.total_degree() == 0:
            return None
        residual = exact_divide(residual, shared)
    ideal = PolyIdeal(generators=(exact_divide(p, h).primitive(), exact_divide(q, h).primitive()))
    gb = buchberger(ideal, order="grevlex")
    monos = standard_monomials(gb)
    return (f, gb, monos) if monos else None


def count_by_buchberger(gens, f):
    """Solutions of the pair with f != 0, counted with multiplicity."""
    ring = residue_ring(gens, f)
    return 0 if ring is None else modular_stable_rank(*ring)


def ml_degree_by_buchberger(m1, n, seed):
    return count_by_buchberger(*score_system(m1, n, seed))


def modular_stable_rank(f, gb, monos, primes=PRIMES):
    """Stable rank of multiplication by f on Q[x]/<gb>, counted mod primes."""
    key = ORDER_KEYS[gb.order]
    best, agreeing = -1, 0
    for prime in primes:
        basis = [terms_mod(g, prime) for g in gb.basis]
        f_mod = terms_mod(f, prime)
        if f_mod is None or None in basis:
            continue  # prime divides a denominator
        r = stable_rank_mod(multiplication_matrix_mod(f_mod, basis, monos, key, prime), prime)
        if r > best:
            best, agreeing = r, 1
        elif r == best:
            agreeing += 1
        if agreeing == 2:
            return best
    raise PrimesExhausted(f"no two of {len(primes)} primes agreed on a stable rank")


def terms_mod(poly, prime):
    """Exponent -> coefficient mod prime, or None if prime divides a denominator."""
    out = {}
    for e, c in poly.terms.items():
        if c.denominator % prime == 0:
            return None
        r = c.numerator * pow(c.denominator, -1, prime) % prime
        if r:
            out[e] = r
    return out


def multiplication_matrix_mod(f, basis, monos, key, prime):
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


def rank_mod(rows, prime):
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


def stable_rank_mod(mat, prime):
    """Rank mod prime of high powers of mat: stop when a power keeps the rank."""
    r_prev = rank_mod(mat, prime)
    if r_prev in (0, len(mat)):
        return r_prev
    cols = list(zip(*mat))
    power = mat
    while True:
        power = [[sum(x * y for x, y in zip(row, col)) % prime for col in cols] for row in power]
        r = rank_mod(power, prime)
        if r == r_prev:
            return r
        r_prev = r


# The Prop. 4.3 pair built with Poly arithmetic over Q, as the count built it
# before it moved to integer images mod p: an independent reference for
# kronmle.mldegree._prop43_images.


def _numerator(terms):
    """Primitive numerator of sum n_i / d_i over the product of the d_i."""
    num, den = 0, 1
    for n_i, d_i in terms:
        num, den = num * d_i + n_i * den, den * d_i
    return num.primitive()


def prop43_pair(m2, k, case_id):
    """Score numerators of the constructed multiplicity > 1 data sets.

    Case one (m2 > 2, k >= 2) works in the trace variable t, case two
    (m2 = 2, k >= 2) in the free diagonal entry c.  Returns the two
    primitive numerators and their distinct denominators.  Rational terms
    with a zero numerator are dropped before combining.
    """
    if case_id == "one":
        vars = ("t", "b")
        t, b = (Poly.variable(vars, v) for v in vars)
        q = 4 * t * (t + 1) - b * b
        e1_terms = [(-2 * m2 * b, q), (2 * k * b, 1 - b * b)]
        e2_terms = [(m2 * (8 * t + 4), q)]
        if k != 2:
            e2_terms.append((Poly.constant(vars, m2 * (k - 2)), t))
        e2_terms.append((Poly.constant(vars, -k * (m2 - 2)), t - 2))
    else:
        vars = ("c", "b")
        c, b = (Poly.variable(vars, v) for v in vars)
        q = 2 * (c + 1) * (2 * c + 3) - b * b
        e1_terms = [(-2 * m2 * b, q), (2 * k * b, c - b * b)]
        e2_terms = [(m2 * (8 * c + 10), q)]
        if k != 2:
            e2_terms.append((Poly.constant(vars, m2 * (k - 2)), c + 1))
        e2_terms.append((Poly.constant(vars, -k), c - b * b))
    factors = list(dict.fromkeys(d for _, d in e1_terms + e2_terms))
    return (_numerator(e1_terms), _numerator(e2_terms)), factors
