"""Sparse multivariate polynomials over exact rationals.

A polynomial is a map from exponent tuples to nonzero Fraction
coefficients, tagged with an ordered tuple of variable names.  Arithmetic
is exact; zero coefficients are never stored.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod

import numpy as np

from .linalg import det_stack


def lex_key(exp):
    return exp


def grevlex_key(exp):
    return (sum(exp), tuple(-e for e in reversed(exp)))


ORDER_KEYS = {"lex": lex_key, "grevlex": grevlex_key}


class Poly:
    """Sparse polynomial over Q in the variables `vars` (an ordered tuple)."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        clean = {}
        for exp, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff != 0:
                if len(exp) != len(self.vars):
                    raise ValueError("exponent length != variable count")
                clean[tuple(exp)] = coeff
        self.terms = clean

    @classmethod
    def constant(cls, vars, c):
        return cls(vars, {(0,) * len(vars): Fraction(c)})

    @classmethod
    def variable(cls, vars, name):
        i = tuple(vars).index(name)
        exp = [0] * len(vars)
        exp[i] = 1
        return cls(vars, {tuple(exp): Fraction(1)})

    def is_zero(self):
        return not self.terms

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.vars != self.vars:
                raise ValueError("polynomials from different rings")
            return other
        return Poly.constant(self.vars, other)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.vars, other)
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp, Fraction(0)) + c
            if s == 0:
                out.pop(exp, None)
            else:
                out[exp] = s
        return Poly(self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(exp, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(exp, None)
                else:
                    out[exp] = s
        return Poly(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = Poly.constant(self.vars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def diff(self, name):
        """Partial derivative with respect to the named variable."""
        i = self.vars.index(name)
        out = {}
        for exp, c in self.terms.items():
            if exp[i] > 0:
                new = list(exp)
                new[i] -= 1
                out[tuple(new)] = c * exp[i]
        return Poly(self.vars, out)

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading(self, order="grevlex"):
        """(exponent, coefficient) of the leading term in the given order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        key = ORDER_KEYS[order]
        exp = max(self.terms, key=key)
        return exp, self.terms[exp]

    def monic(self, order="grevlex"):
        _, c = self.leading(order)
        return Poly(self.vars, {e: v / c for e, v in self.terms.items()})

    def primitive(self):
        """Clear denominators and divide out integer content; sign-normalized."""
        if not self.terms:
            return self
        denom = 1
        for c in self.terms.values():
            denom = denom * c.denominator // gcd(denom, c.denominator)
        ints = {e: c.numerator * (denom // c.denominator) for e, c in self.terms.items()}
        g = 0
        for v in ints.values():
            g = gcd(g, v)
        lead = max(ints)
        if ints[lead] < 0:
            g = -g
        return Poly(self.vars, {e: Fraction(v, g) for e, v in ints.items()})

    def lift(self, new_vars):
        """Re-embed into a ring whose variables are a superset of this ring's."""
        new_vars = tuple(new_vars)
        pos = [new_vars.index(v) for v in self.vars]
        out = {}
        for exp, c in self.terms.items():
            new = [0] * len(new_vars)
            for p, e in zip(pos, exp):
                new[p] = e
            out[tuple(new)] = c
        return Poly(new_vars, out)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, key=grevlex_key, reverse=True):
            c = self.terms[exp]
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.vars, exp)
                if e > 0
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    __repr__ = __str__


def exact_divide(p, d):
    """Quotient p / d when d divides p exactly; raises ValueError otherwise."""
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    vars = p.vars
    quotient = {}
    rem = dict(p.terms)
    dlead, dcoeff = d.leading("lex")
    while rem:
        exp = max(rem, key=lex_key)
        coeff = rem[exp]
        shift = tuple(a - b for a, b in zip(exp, dlead))
        if any(s < 0 for s in shift):
            raise ValueError("not exactly divisible")
        factor = coeff / dcoeff
        quotient[shift] = factor
        for dexp, dc in d.terms.items():
            tgt = tuple(a + b for a, b in zip(dexp, shift))
            s = rem.get(tgt, Fraction(0)) - factor * dc
            if s == 0:
                rem.pop(tgt, None)
            else:
                rem[tgt] = s
    return Poly(vars, quotient)


def _degree_in(p, i):
    return max((e[i] for e in p.terms), default=-1)


def _univariate_coeffs(p, i):
    """Map degree-in-variable-i -> Poly coefficient (with variable i removed)."""
    out = {}
    for exp, c in p.terms.items():
        d = exp[i]
        rest = exp[:i] + (0,) + exp[i + 1 :]
        coeff = out.setdefault(d, {})
        coeff[rest] = coeff.get(rest, Fraction(0)) + c
    return {d: Poly(p.vars, terms) for d, terms in out.items()}


def _shift_in(p, i, k):
    """Multiply by variable i to the power k."""
    return Poly(
        p.vars,
        {e[:i] + (e[i] + k,) + e[i + 1 :]: c for e, c in p.terms.items()},
    )


def _content_in(p, i):
    """GCD of the coefficients of p viewed as univariate in variable i."""
    coeffs = list(_univariate_coeffs(p, i).values())
    g = coeffs[0]
    for c in coeffs[1:]:
        g = poly_gcd(g, c)
        if g.total_degree() == 0:
            break
    return g


def poly_gcd(p, q):
    """Multivariate GCD over Q by the primitive pseudo-remainder sequence.

    The result is primitive with integer coefficients and positive leading
    coefficient; the GCD of two nonzero constants is 1.
    """
    if p.is_zero():
        return q.primitive()
    if q.is_zero():
        return p.primitive()
    if p.vars != q.vars:
        raise ValueError("polynomials from different rings")
    used = [
        i
        for i in range(len(p.vars))
        if _degree_in(p, i) > 0 or _degree_in(q, i) > 0
    ]
    if not used:
        return Poly.constant(p.vars, 1)
    x = used[-1]
    if _degree_in(p, x) == 0 or _degree_in(q, x) == 0:
        # One argument is free of the main variable: gcd divides its content.
        free = p if _degree_in(p, x) == 0 else q
        other = q if free is p else p
        return poly_gcd(free, _content_in(other, x))

    cont_p = _content_in(p, x)
    cont_q = _content_in(q, x)
    a = exact_divide(p, cont_p)
    b = exact_divide(q, cont_q)
    if _degree_in(a, x) < _degree_in(b, x):
        a, b = b, a
    while not b.is_zero() and _degree_in(b, x) > 0:
        r = _pseudo_rem(a, b, x)
        if r.is_zero():
            a, b = b, r
            break
        # The integer content must go too, or it grows exponentially along
        # the sequence (Brown-Traub 1971); _content_in is 1 in one variable.
        a, b = b, exact_divide(r, _content_in(r, x)).primitive()
    if not b.is_zero():
        # Nonzero remainder of degree 0 in x: primitive parts are coprime.
        pp_gcd = Poly.constant(p.vars, 1)
    else:
        pp_gcd = a
    return (poly_gcd(cont_p, cont_q) * pp_gcd).primitive()


def _pseudo_rem(a, b, x):
    """Pseudo-remainder of a by b with respect to variable x."""
    db = _degree_in(b, x)
    lb = _univariate_coeffs(b, x)[db]
    r = a
    while not r.is_zero():
        dr = _degree_in(r, x)
        if dr < db:
            break
        lr = _univariate_coeffs(r, x)[dr]
        r = lb * r - _shift_in(lr * b, x, dr - db)
    return r


def poly_det(grid):
    """Determinant of a square grid of Poly, by evaluation and interpolation.

    In each variable the determinant has degree at most D, the sum over the
    rows of the largest degree of that variable in the row.  Its values on
    the integer box [0, D_1] x ... x [0, D_k] therefore fix it: the grid is
    evaluated at every point as an integer matrix, with every row scaled to
    integer coefficients first, so the scaled determinant has integer
    coefficients; one det_stack call gives all the values, and Newton
    interpolation over ints (see _interpolate_at_naturals) recovers them
    one variable at a time.
    """
    n = len(grid)
    if any(len(row) != n for row in grid):
        raise ValueError("square grid required")
    vars = grid[0][0].vars
    if any(p.vars != vars for row in grid for p in row):
        raise ValueError("polynomials from different rings")
    bounds = tuple(
        sum(max((e[i] for p in row for e in p.terms), default=0) for row in grid)
        for i in range(len(vars))
    )
    scales = [lcm(*(c.denominator for p in row for c in p.terms.values())) for row in grid]
    rows = [
        [[(e, c.numerator * (s // c.denominator)) for e, c in p.terms.items()] for p in row]
        for row, s in zip(grid, scales)
    ]
    exps = {e for row in rows for entry in row for e, _ in entry}
    points = list(product(*(range(b + 1) for b in bounds)))
    values = []
    for point in points:
        monos = {e: prod(x**k for x, k in zip(point, e)) for e in exps}
        values.append([[sum(c * monos[e] for e, c in entry) for entry in row] for row in rows])
    table = dict(zip(points, det_stack(np.array(values, dtype=object)).tolist()))
    for i, b in enumerate(bounds):
        if b == 0:
            continue
        coeffs = {}
        for key in table:
            if key[i] == 0:
                line = [table[key[:i] + (x,) + key[i + 1 :]] for x in range(b + 1)]
                for k, c in enumerate(_interpolate_at_naturals(line)):
                    coeffs[key[:i] + (k,) + key[i + 1 :]] = c
        table = coeffs
    scale = prod(scales)
    return Poly(vars, {e: Fraction(c, scale) for e, c in table.items()})


def _interpolate_at_naturals(values):
    """Integer coefficients, lowest degree first, of the polynomial of degree
    < len(values) that takes the int values[x] at x = 0, 1, ..., when it has
    integer coefficients.

    The Newton form is sum_j (Delta^j values[0] / j!) * x(x-1)...(x-j+1).
    Its forward differences are ints, and times (n-1)! every Newton
    coefficient is one as well, so Horner's rule runs over ints and each
    coefficient is divided by (n-1)! exactly once, at the end.
    """
    c = list(values)
    n = len(c)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            c[i] -= c[i - 1]
    # Scale the j-th difference by (n-1)!/j!; f ends as (n-1)!.
    f = 1
    for j in range(n - 1, 0, -1):
        c[j] *= f
        f *= j
    c[0] *= f
    out = [c[-1]]
    for k in range(n - 2, -1, -1):
        # out <- out * (x - k) + c[k]
        out = [c[k] - k * out[0]] + [a - k * b for a, b in zip(out, out[1:] + [0])]
    return [a // f for a in out]
