"""Buchberger Groebner bases, Rabinowitsch saturation, and degree counting.

All arithmetic is exact over Q.  A pair budget bounds the number of
S-pairs examined; exhausting it raises PairBudgetExceeded rather than
returning a possibly wrong basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd

from .poly import ORDER_KEYS, Poly

DEFAULT_PAIR_BUDGET = 200_000


class PairBudgetExceeded(Exception):
    """The S-pair budget was exhausted before the basis stabilized."""


@dataclass(frozen=True)
class PolyIdeal:
    generators: tuple

    def __post_init__(self):
        vars = self.generators[0].vars
        if any(g.vars != vars for g in self.generators):
            raise ValueError("generators must share a ring")

    @property
    def vars(self):
        return self.generators[0].vars


@dataclass(frozen=True)
class GroebnerBasis:
    basis: tuple
    order: str

    @property
    def vars(self):
        return self.basis[0].vars


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _sub_exp(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def normal_form(p, basis, order="grevlex"):
    """Remainder of p under multivariate division by `basis`."""
    key = ORDER_KEYS[order]
    leads = [(g.leading(order), g) for g in basis if not g.is_zero()]
    remainder = {}
    work = dict(p.terms)
    while work:
        exp = max(work, key=key)
        coeff = work.pop(exp)
        for (lexp, lcoeff), g in leads:
            if _divides(lexp, exp):
                shift = _sub_exp(exp, lexp)
                factor = coeff / lcoeff
                for gexp, gcoeff in g.terms.items():
                    if gexp == lexp:
                        continue
                    tgt = tuple(a + b for a, b in zip(gexp, shift))
                    s = work.get(tgt, 0) - factor * gcoeff
                    if s == 0:
                        work.pop(tgt, None)
                    else:
                        work[tgt] = s
                break
        else:
            remainder[exp] = coeff
    return Poly(p.vars, remainder)


def _int_terms(p):
    """Exponent -> int coefficient map of the primitive part of p."""
    prim = p.primitive()
    return {e: c.numerator for e, c in prim.terms.items()}


def _strip_content(*dicts):
    g = 0
    for d in dicts:
        for v in d.values():
            g = gcd(g, v)
    if g > 1:
        for d in dicts:
            for e in d:
                d[e] //= g


def _nf_int(p, basis, leads, key):
    """Pseudo-remainder of p modulo basis, all over integers.

    Eliminating a term against a divisor with leading coefficient lc may
    scale the whole intermediate result by |lc|/gcd, so the output is a
    positive scalar multiple of the true normal form.  Content is stripped
    periodically to keep coefficients small.
    """
    work = dict(p)
    rem = {}
    steps = 0
    while work:
        exp = max(work, key=key)
        coeff = work.pop(exp)
        for lexp, g in zip(leads, basis):
            if _divides(lexp, exp):
                lc = g[lexp]
                d = gcd(abs(coeff), abs(lc))
                mult = abs(lc) // d
                fac = (coeff // d) if lc > 0 else -(coeff // d)
                if mult != 1:
                    for k2 in work:
                        work[k2] *= mult
                    for k2 in rem:
                        rem[k2] *= mult
                shift = _sub_exp(exp, lexp)
                for gexp, gc in g.items():
                    if gexp == lexp:
                        continue
                    tgt = tuple(a + b for a, b in zip(gexp, shift))
                    s = work.get(tgt, 0) - fac * gc
                    if s == 0:
                        work.pop(tgt, None)
                    else:
                        work[tgt] = s
                break
        else:
            rem[exp] = coeff
        steps += 1
        if steps % 64 == 0:
            _strip_content(work, rem)
    _strip_content(rem)
    return rem


def _spoly_int(f, g, lf, lg):
    """Integer S-polynomial of two integer-coefficient polynomials."""
    l = _lcm(lf, lg)
    cf, cg = f[lf], g[lg]
    d = gcd(abs(cf), abs(cg))
    mf, mg = cg // d, cf // d
    sf, sg = _sub_exp(l, lf), _sub_exp(l, lg)
    out = {}
    for e, c in f.items():
        out[tuple(a + b for a, b in zip(e, sf))] = mf * c
    for e, c in g.items():
        tgt = tuple(a + b for a, b in zip(e, sg))
        s = out.get(tgt, 0) - mg * c
        if s == 0:
            out.pop(tgt, None)
        else:
            out[tgt] = s
    return out


def buchberger(ideal, order="grevlex", pair_budget=DEFAULT_PAIR_BUDGET):
    """Reduced Groebner basis via Buchberger's algorithm.

    Uses normal-strategy pair selection (smallest lcm in the term order)
    with the product criterion and the chain criterion.  Internally the
    basis is kept with primitive integer coefficients and S-polynomials
    are pseudo-reduced, which avoids rational coefficient blowup.
    """
    key = ORDER_KEYS[order]
    vars = ideal.vars
    basis = [_int_terms(g) for g in ideal.generators if not g.is_zero()]
    if not basis:
        raise ValueError("nonzero generators required")
    leads = [max(d, key=key) for d in basis]

    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    examined = 0
    done = set()
    while pairs:
        pair = min(pairs, key=lambda ij: key(_lcm(leads[ij[0]], leads[ij[1]])))
        pairs.discard(pair)
        examined += 1
        if examined > pair_budget:
            raise PairBudgetExceeded(f"budget of {pair_budget} S-pairs exhausted")
        i, j = pair
        li, lj = leads[i], leads[j]
        done.add(pair)
        if _coprime(li, lj):
            continue
        l = _lcm(li, lj)
        if any(
            t != i
            and t != j
            and _divides(leads[t], l)
            and (min(i, t), max(i, t)) in done
            and (min(j, t), max(j, t)) in done
            for t in range(len(basis))
        ):
            continue
        rem = _nf_int(_spoly_int(basis[i], basis[j], li, lj), basis, leads, key)
        if not rem:
            continue
        basis.append(rem)
        leads.append(max(rem, key=key))
        t = len(basis) - 1
        pairs.update((s, t) for s in range(t))

    reduced = _interreduce_int(basis, key)
    polys = [
        Poly(vars, {e: Fraction(c) for e, c in d.items()}).monic(order)
        for d in reduced
    ]
    polys.sort(key=lambda g: key(g.leading(order)[0]))
    return GroebnerBasis(basis=tuple(polys), order=order)


def _interreduce_int(basis, key):
    """Minimalize and tail-reduce integer polynomials to the reduced GB shape."""
    minimal = []
    for d in sorted(basis, key=lambda d: key(max(d, key=key))):
        lead = max(d, key=key)
        if not any(_divides(max(h, key=key), lead) for h in minimal):
            minimal.append(d)
    reduced = []
    for i, d in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        leads = [max(h, key=key) for h in others]
        r = _nf_int(d, others, leads, key)
        if r:
            reduced.append(r)
    return reduced


def saturate_rabinowitsch(ideal, f, var="y_sat"):
    """Adjoin a fresh variable v and the generator v*f - 1.

    Solutions of the extended ideal project bijectively onto solutions of
    the original ideal with f != 0, so downstream degree counts agree.
    """
    if f.is_zero():
        raise ValueError("cannot saturate by zero")
    if var in ideal.vars:
        raise ValueError(f"variable {var} already in ring")
    new_vars = ideal.vars + (var,)
    gens = [g.lift(new_vars) for g in ideal.generators]
    y = Poly.variable(new_vars, var)
    gens.append(y * f.lift(new_vars) - 1)
    return PolyIdeal(generators=tuple(gens))


def standard_monomials(gb):
    """Monomials outside the leading-term ideal, or None if infinitely many.

    Their count is the ideal degree: the complex solution count with
    multiplicity.  The unit ideal yields an empty list.
    """
    nvars = len(gb.vars)
    leads = [g.leading(gb.order)[0] for g in gb.basis]
    if any(sum(l) == 0 for l in leads):
        return []  # unit ideal, empty variety
    bounds = [None] * nvars
    for l in leads:
        support = [i for i, e in enumerate(l) if e > 0]
        if len(support) == 1:
            i = support[0]
            if bounds[i] is None or l[i] < bounds[i]:
                bounds[i] = l[i]
    if any(b is None for b in bounds):
        return None
    return [
        mono
        for mono in product(*(range(b) for b in bounds))
        if not any(_divides(l, mono) for l in leads)
    ]


def dim_and_degree(gb):
    """Zero-dimensionality test and ideal degree.

    The ideal is zero-dimensional iff every variable has some pure-power
    leading term; the degree is then the number of standard monomials.
    """
    monos = standard_monomials(gb)
    if monos is None:
        return False, None
    return True, len(monos)

