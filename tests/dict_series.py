"""Reference series arithmetic on {exponent: FieldElement} dicts.

This is the sparse coefficient-dict implementation that ramify.series and
tower._solve_unit used before the packed kernel: schoolbook products,
the term-recursion inverse, square-and-multiply powers, Horner composition,
and the fixed-point unit iteration at one exponent modulus.  Tests compare
the packed code against it term for term and precision for precision.
"""

from __future__ import annotations

from ramify.errors import DomainError, PrecisionError


class DictSeries:
    """f + O(T^prec) with the terms kept in a dict."""

    def __init__(self, field, terms, prec):
        self.field = field
        self.prec = int(prec)
        self.terms = {int(e): c for e, c in dict(terms).items()
                      if e < self.prec and c}

    @classmethod
    def monomial(cls, field, exp, prec, coeff=None):
        return cls(field, {exp: field.one() if coeff is None else coeff}, prec)

    @classmethod
    def constant(cls, field, value, prec):
        return cls(field, {0: value}, prec)

    def valuation(self):
        return min(self.terms) if self.terms else None

    def val_floor(self):
        return min(self.terms) if self.terms else self.prec

    def __add__(self, other):
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e)
            s = c if s is None else s + c
            if s:
                t[e] = s
            else:
                t.pop(e, None)
        return DictSeries(self.field, t, min(self.prec, other.prec))

    def __neg__(self):
        return DictSeries(self.field, {e: -c for e, c in self.terms.items()},
                          self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        prec = min(self.prec + other.val_floor(), other.prec + self.val_floor())
        return DictSeries(self.field, _dmul(self.terms, other.terms, prec), prec)

    def scale(self, c):
        return DictSeries(self.field, {e: co * c for e, co in self.terms.items()},
                          self.prec)

    def inverse(self):
        v = self.valuation()
        if v is None:
            raise PrecisionError("cannot invert an (apparent) zero series")
        rel = self.prec - v
        lead_inv = self.terms[v].inverse()
        u = {e - v: c * lead_inv for e, c in self.terms.items()}
        inv = _unit_inverse(self.field, u, rel)
        out = {e - v: c * lead_inv for e, c in inv.items()}
        return DictSeries(self.field, out, self.prec - 2 * v)

    def __pow__(self, n):
        """Square-and-multiply from the first factor, so that for n >= 1 the
        result keeps the relative precision prec - val of self; self^0 is
        1 + O(T^prec)."""
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return DictSeries.monomial(self.field, 0, self.prec)
        result, base = None, self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base


def compose(f, tau):
    """f(tau) by Horner, recomputing tau ** gap at every step."""
    vt = tau.valuation()
    if vt is None or vt < 1:
        raise DomainError("composition needs a substitution of valuation >= 1")
    cap = vt * f.prec
    field = f.field
    if not f.terms:
        return DictSeries(field, {}, cap)
    exps = sorted(f.terms, reverse=True)
    acc = DictSeries.constant(field, f.terms[exps[0]], tau.prec)
    for e_prev, e in zip(exps, exps[1:]):
        acc = acc * tau ** (e_prev - e)
        acc = acc + DictSeries.constant(field, f.terms[e], acc.prec)
    acc = acc * tau ** exps[-1]
    return DictSeries(field, acc.terms, min(acc.prec, cap))


# ---------------------------------------------------------------------------
# Coefficient dicts at a fixed exponent modulus.

def _dmul(a, b, cap):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            if e >= cap:
                continue
            s = out.get(e)
            c = c1 * c2
            s = c if s is None else s + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _unit_inverse(field, u, rel):
    """Term recursion: u has u[0] = 1; the inverse on [0, rel)."""
    inv = {0: field.one()}
    for n in range(1, rel):
        acc = field.zero()
        for k, ck in u.items():
            if 0 < k <= n and (n - k) in inv:
                acc = acc + ck * inv[n - k]
        if acc:
            inv[n] = -acc
    return inv


def _dinv(field, a, cap):
    v = min(a)
    lead_inv = a[v].inverse()
    u = {e - v: c * lead_inv for e, c in a.items()}
    inv = _unit_inverse(field, u, max(cap + v, 1))
    return {e - v: c * lead_inv for e, c in inv.items() if e - v < cap}


def _dpow(field, a, n, cap):
    if n < 0:
        return _dpow(field, _dinv(field, a, cap + 1), -n, cap)
    result = {0: field.one()}
    base = dict(a)
    while n:
        if n & 1:
            result = _dmul(result, base, cap)
        base = _dmul(base, base, cap)
        n >>= 1
    return result


def _dtail_at(field, tail, tau, cap):
    exps = sorted(tail, reverse=True)
    acc = {0: tail[exps[0]]}
    for e_prev, e in zip(exps, exps[1:]):
        acc = _dmul(acc, _dpow(field, tau, e_prev - e, cap), cap)
        c = tail[e]
        s = acc.get(0)
        s = c if s is None else s + c
        if s:
            acc[0] = s
        else:
            acc.pop(0, None)
    return _dmul(acc, _dpow(field, tau, exps[-1], cap), cap)


def _subtract_shifted(bracket, terms, shift, cap):
    for e, co in terms.items():
        e2 = e + shift
        if e2 >= cap:
            continue
        cur = bracket.get(e2)
        cur = -co if cur is None else cur - co
        if cur:
            bracket[e2] = cur
        else:
            bracket.pop(e2, None)


def solve_unit(f_terms, f_prec, field, j, alpha, beta, prec):
    """(terms, prec) of the unit s, by plain iteration at modulus cap."""
    p = field.p
    cinv = f_terms[-j].inverse()
    cap = min(prec, p * f_prec + j * p)
    if cap < 1:
        raise PrecisionError("no usable precision left for the step solve")
    tail = {e: co for e, co in f_terms.items() if e != -j}
    s = {0: cinv}
    for _ in range(cap + 8):
        tau = {e + p: co for e, co in _dpow(field, s, beta, cap).items()
               if e + p < cap}
        bracket = {0: field.one()}
        _subtract_shifted(bracket, _dpow(field, s, alpha * (p - 1), cap),
                          j * (p - 1), cap)
        if tail:
            top = _dmul(_dpow(field, s, alpha * p, cap),
                        _dtail_at(field, tail, tau, cap), cap)
            _subtract_shifted(bracket, top, j * p, cap)
        s_new = {e: co * cinv for e, co in bracket.items()}
        if s_new == s:
            return s, cap
        s = s_new
    raise PrecisionError("unit iteration failed to converge")
