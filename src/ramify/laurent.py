"""Exact Laurent polynomials over a finite field.

A LaurentPoly is a finite sum of terms c * x^e with e in Z and c a nonzero
field element; poles at the germ's center are written as negative exponents.
Finite support stands in for the Laurent series of the underlying theory:
every computation here touches finitely many terms, and the nonnegative tail
is annihilated by standard-form reduction anyway.

The two operations beyond ring arithmetic are the p-power decomposition
r = sum_t (r_t)^(p^t) with p-free exponents in each r_t, and the prime-to-p
degree (the largest pole order among the r_t), which equals the conductor of
the associated degree-q cover once the equation is in standard form.

SparsePoly holds the ring operations of every dict polynomial in the
library; a subclass names its monomials.  LaurentPoly's are int exponents,
and tower's multivariate VarPoly, a sibling, keys them by sorted (variable,
exponent) pairs.
"""

from __future__ import annotations

import operator

from .errors import DomainError, json_int
from .gf import Field, FieldElement, json_element, p_adic, power


def accumulate(out: dict, items) -> dict:
    """Add each (key, coefficient) of items into the sparse map out, dropping
    every key whose coefficient sums to zero; returns out."""
    for k, c in items:
        s = out.get(k)
        s = c if s is None else s + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


class SparsePoly:
    """Finite formal sum of c * m over monomial keys m, every c a nonzero
    element of field; immutable.

    A subclass names its monomials: ONE is the key of 1, _mono_mul(k1, k2)
    the key of a product and _mono_pow(k, n) the key of the n-th power, and
    _key(k) normalizes a key handed to the public constructor."""

    __slots__ = ("field", "terms", "_hash")

    def __init__(self, field: Field, terms=None):
        self.field = field
        items = terms.items() if isinstance(terms, dict) else terms or ()
        self.terms = accumulate({}, ((self._key(k), field.element(c))
                                     for k, c in items))
        self._hash = None

    @classmethod
    def _make(cls, field: Field, terms: dict):
        """Trusted constructor: terms is a fresh {key: nonzero element of
        field} map that the result takes over."""
        obj = cls.__new__(cls)
        obj.field = field
        obj.terms = terms
        obj._hash = None
        return obj

    @classmethod
    def zero(cls, field: Field):
        return cls._make(field, {})

    # -- ring operations -------------------------------------------------------

    def _same_ring(self, other) -> bool:
        """Whether other is of this class; another field is refused."""
        if type(other) is not type(self):
            return False
        if other.field is not self.field and other.field != self.field:
            raise DomainError("polynomials over different fields")
        return True

    def __add__(self, other):
        if not self._same_ring(other):
            return NotImplemented
        return self._make(self.field,
                          accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._make(self.field, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if not self._same_ring(other):
            return NotImplemented
        mono_mul = self._mono_mul
        return self._make(self.field, accumulate({}, (
            (mono_mul(k1, k2), c1 * c2) for k1, c1 in self.terms.items()
            for k2, c2 in other.terms.items())))

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative power of a polynomial")
        if n == 0:
            return self._make(self.field, {self.ONE: self.field.one()})
        return power(self, n, operator.mul)

    def scale(self, c: FieldElement):
        if not c:
            return self.zero(self.field)
        return self._make(self.field,
                          {k: co * c for k, co in self.terms.items()})

    def frobenius_power(self, t: int):
        """self^(p^t), computed termwise (exact in characteristic p)."""
        pt = self.field.p ** t
        mono_pow = self._mono_pow
        return self._make(self.field, {mono_pow(k, pt): c ** pt
                                       for k, c in self.terms.items()})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (type(other) is type(self) and self.field == other.field
                and self.terms == other.terms)

    def __hash__(self):
        """Computed once: a polynomial never changes."""
        if self._hash is None:
            self._hash = hash((self.field, tuple(sorted(
                (k, c.coeffs) for k, c in self.terms.items()))))
        return self._hash


class LaurentPoly(SparsePoly):
    """Finite formal sum of c * x^e, exponents in Z; immutable."""

    __slots__ = ()
    ONE = 0
    _key = int
    _mono_mul = staticmethod(operator.add)
    _mono_pow = staticmethod(operator.mul)

    @classmethod
    def monomial(cls, field: Field, exp: int, coeff=1) -> "LaurentPoly":
        return cls(field, {exp: field.element(coeff)})

    # -- access ----------------------------------------------------------------

    def coeff(self, e: int) -> FieldElement:
        return self.terms.get(e, self.field.zero())

    def min_exponent(self) -> int:
        if not self.terms:
            raise DomainError("zero Laurent polynomial has no exponents")
        return min(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = [f"({c!r})x^{e}" for e, c in sorted(self.terms.items())]
        return " + ".join(bits)

    def to_json(self):
        return {"terms": [[e, list(self.terms[e].coeffs)]
                          for e in sorted(self.terms)]}

    @classmethod
    def from_json(cls, field: Field, obj) -> "LaurentPoly":
        return cls(field, [(json_int(e), json_element(field, c))
                           for e, c in obj["terms"]])


# ---------------------------------------------------------------------------

def p_power_decompose(r: LaurentPoly) -> list[tuple[int, LaurentPoly]]:
    """Write r = sum_t (r_t)^(p^t) with every exponent of r_t prime to p.

    Canonical monomial-wise split: c x^e with e = p^t * e0 (p not dividing e0)
    contributes the p^t-th root of c times x^e0 to r_t; exponent-0 terms go to
    the t = 0 slot.  Returned ascending in t, empty slots omitted.
    """
    if not r:
        raise DomainError("cannot decompose the zero polynomial")
    p = r.field.p
    slots: dict[int, dict[int, FieldElement]] = {}
    for e, c in r.terms.items():
        t, e0 = p_adic(e, p) if e else (0, 0)
        slots.setdefault(t, {})[e0] = c.frobenius(-t)
    return [(t, LaurentPoly._make(r.field, slots[t])) for t in sorted(slots)]


def prime_to_p_degree(r: LaurentPoly) -> int:
    """Largest pole order among the p-free pieces r_t of r: the largest -e0
    over the exponents e = p^t e0 of r, p not dividing e0 (e0 = 0 at e = 0).

    Positive for pole-type r, zero for constants, negative when every piece
    is supported in positive exponents.
    """
    if not r:
        raise DomainError("cannot decompose the zero polynomial")
    return max(-p_adic(e, r.field.p)[1] if e else 0 for e in r.terms)
