"""Finite-precision Laurent series with exact precision bookkeeping.

A TruncatedSeries represents f + O(T^prec): its terms have exponents strictly
below `prec`, and anything at or above `prec` is unknown.  Every operation
computes the precision of its result from the valuations of its inputs
(sum: min(p1, p2); product: min(p1 + v2, p2 + v1); inverse of valuation v:
p - 2v; powers by square-and-multiply from T^0 at the base's precision), so
results never claim more accuracy than the inputs support.  Coefficients are
exact finite-field elements; there is no rounding anywhere, only honest
truncation.

Storage is dense: a valuation `val` and a list `coeffs` of ints, coeffs[i]
being the index (see Field.from_index, sum c_k p^k over the coefficient
vector) of the coefficient of T^(val + i).  `terms` is a read-only
{exponent: FieldElement} view, built on first use.

All coefficient arithmetic runs through one kernel, _Ring, which multiplies
by Kronecker substitution: an element of F_{p^a} is spread over 2a - 1 slots,
one per power of z in the product of two such elements; the slots of a whole
coefficient list are packed into one Python int; the ints are multiplied by
CPython's big-integer product; and each slot of the result is reduced mod p
and each block of 2a - 1 slots mod the field's modulus.  Slots are wide
enough that no sum of slot products spills into its neighbour.  Sums are the
same packing added instead of multiplied; inverses come from Newton
iteration on the packed product, doubling the number of known coefficients
per step; and powers are square-and-multiply on it at the one length that
the precision rule gives.  Each ring memoizes, within a fixed size, how
elements spread into slots and how slot blocks fold back into elements.

Series never change once built, so each keeps its inverse and every power
asked of it: a power, or a composition with the same tau, is computed once
per series.
"""

from __future__ import annotations

import struct
from functools import cache, lru_cache, partial
from itertools import chain
from types import MappingProxyType

from .errors import DomainError, PrecisionError
from .gf import Field, FieldElement, _digits, power

# little-endian struct format of an unsigned slot of each width, in bytes
_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}
# entries kept by each of a ring's two element memos
_MEMO_SIZE = 1 << 12


def _slot_bytes(bound: int) -> int:
    """Bytes per slot to hold values up to bound: 1, 2, 4 or 8, so that slots
    are read and written as machine integers by struct.  A product's bound is
    min(n1, n2) a (p - 1)^2, which fields below ORDER_CAP keep under 2^64
    for any series shorter than 2^24 terms."""
    w = 1 << (((bound.bit_length() + 7) >> 3) - 1).bit_length()
    if w > 8:
        raise DomainError("series too long for the packed product")
    return w


def _spread(p: int, a: int, n: int) -> tuple:
    """The 2a - 1 slots of the element with index n: its digits, then zeros."""
    return _digits(n, p, a) + (0,) * (a - 1)


def _fold(field: Field, slots: tuple) -> int:
    """Index of sum slots[k] z^k reduced into the field."""
    return field.index_of(FieldElement(field, field.reduce(slots)))


class _Ring:
    """Arithmetic on lists of element indices of one field.

    A list x stands for sum x[i] T^i; entries past its end are zero.  Every
    method returns a list of exactly the length asked for.
    """

    __slots__ = ("field", "p", "a", "m", "spread", "fold")

    def __init__(self, field: Field):
        p, a = field.p, field.a
        self.field = field
        self.p, self.a, self.m = p, a, 2 * a - 1
        # both memos fill lazily and keep the most recently used entries:
        # small fields (F_16 has 16 and 2^7 keys) fit whole, large ones
        # (2^31 fold keys for F_2^16) reuse few and must not grow
        self.spread = lru_cache(_MEMO_SIZE)(partial(_spread, p, a))
        self.fold = lru_cache(_MEMO_SIZE)(partial(_fold, field))

    def pack(self, x, w: int) -> int:
        """x as one int, each element spread over m slots of w bytes."""
        if self.a > 1:
            x = list(chain.from_iterable(map(self.spread, x)))
        return int.from_bytes(struct.pack(f"<{len(x)}{_FORMATS[w]}", *x),
                              "little")

    def unpack(self, v: int, n: int, w: int) -> list:
        """The first n elements of a packed int, reduced into the field."""
        size = n * self.m * w
        raw = v.to_bytes(max(size, (v.bit_length() + 7) >> 3), "little")
        slots = struct.unpack_from(f"<{n * self.m}{_FORMATS[w]}", raw)
        p = self.p
        res = [s % p for s in slots]
        if self.a == 1:
            return res
        return list(map(self.fold, zip(*[iter(res)] * self.m)))

    def mul(self, x, y, n: int) -> list:
        """The first n coefficients of x * y."""
        if n <= 0:
            return []
        square = x is y
        x = x[:n]
        y = x if square else y[:n]
        if not x or not y:
            return [0] * n
        w = _slot_bytes(min(len(x), len(y)) * self.a * (self.p - 1) ** 2)
        px = self.pack(x, w)
        return self.unpack(px * (px if square else self.pack(y, w)), n, w)

    def add(self, x, sx: int, y, sy: int, n: int) -> list:
        """The first n coefficients of T^sx x + T^sy y (sx, sy >= 0)."""
        w = _slot_bytes(2 * (self.p - 1))
        step = 8 * w * self.m
        v = (self.pack(x[:max(n - sx, 0)], w) << step * sx) \
            + (self.pack(y[:max(n - sy, 0)], w) << step * sy)
        return self.unpack(v, n, w)

    def scale(self, x, c: int) -> list:
        """c * x for the element index c."""
        return self.mul(x, [c], len(x))

    def neg(self, x) -> list:
        return self.scale(x, self.p - 1)  # p - 1 is the index of -1

    def inverse(self, u, n: int) -> list:
        """The first n coefficients of 1/u, for u[0] != 0, by Newton.

        With g = 1/u mod T^k, -u g = -1 + T^k r, and g - T^k g r = 1/u mod
        T^2k; negating u once up front makes each step two products.
        """
        field = self.field
        g = [field.index_of(field.from_index(u[0]).inverse())]
        neg_u = self.neg(u[:n])
        k = 1
        while k < n:
            k2 = min(2 * k, n)
            g += self.mul(g, self.mul(neg_u, g, k2)[k:], k2 - k)
            k = k2
        return g

    def power(self, x, e: int, n: int) -> list:
        """The first n coefficients of x^e for x[0] != 0, by square-and-multiply
        at the fixed length n, started from the first factor (x^-e is
        (1/x)^e)."""
        if n <= 0:
            return []
        if e == 0:
            return [1] + [0] * (n - 1)
        if e < 0:
            x, e = self.inverse(x, n), -e
        result = power(x[:n], e, lambda u, v: self.mul(u, v, n))
        return result + [0] * (n - len(result))


@cache
def _ring(field: Field) -> _Ring:
    """The kernel of a field, built on first use and kept for the process,
    like the fields that gf.field_create caches."""
    return _Ring(field)


class TruncatedSeries:
    __slots__ = ("field", "val", "coeffs", "prec", "_ring", "_terms", "_pows",
                 "_inv")

    def __init__(self, field: Field, terms, prec: int):
        prec = int(prec)
        clean = {}
        if terms:
            for e, c in (terms.items() if isinstance(terms, dict) else terms):
                if e < prec and c:
                    clean[int(e)] = field.index_of(c)
        val = min(clean, default=prec)
        coeffs = [0] * (max(clean, default=val - 1) - val + 1)
        for e, c in clean.items():
            coeffs[e - val] = c
        self._set(_ring(field), val, coeffs, prec)

    def _set(self, ring: _Ring, val: int, coeffs: list, prec: int):
        """Store coeffs from T^val, dropping zeros at both ends and
        everything at or past prec."""
        hi = min(len(coeffs), prec - val)
        lo = 0
        while lo < hi and not coeffs[lo]:
            lo += 1
        while hi > lo and not coeffs[hi - 1]:
            hi -= 1
        self.field = ring.field
        self._ring = ring
        self.prec = prec
        if lo >= hi:
            self.val, self.coeffs = prec, []
        else:
            self.val = val + lo
            self.coeffs = coeffs[lo:hi] if lo or hi < len(coeffs) else coeffs
        self._terms = None
        self._pows = {}
        self._inv = None

    @classmethod
    def _make(cls, ring: _Ring, val: int, coeffs: list, prec: int):
        obj = cls.__new__(cls)
        obj._set(ring, val, coeffs, prec)
        return obj

    @classmethod
    def zero(cls, field: Field, prec: int):
        return cls._make(_ring(field), prec, [], prec)

    @classmethod
    def monomial(cls, field: Field, exp: int, prec: int, coeff=None):
        c = 1 if coeff is None else field.index_of(coeff)
        return cls._make(_ring(field), exp, [c], prec)

    @classmethod
    def constant(cls, field: Field, value: FieldElement, prec: int):
        return cls._make(_ring(field), 0, [field.index_of(value)], prec)

    # -- structure -------------------------------------------------------------

    @property
    def terms(self):
        """The nonzero terms as a read-only {exponent: FieldElement} map."""
        if self._terms is None:
            field, val = self.field, self.val
            self._terms = MappingProxyType(
                {val + i: field.from_index(c)
                 for i, c in enumerate(self.coeffs) if c})
        return self._terms

    def valuation(self) -> int | None:
        """Exact valuation, or None when the series is 0 + O(T^prec)."""
        return self.val if self.coeffs else None

    def is_zero_to_precision(self) -> bool:
        return not self.coeffs

    # -- arithmetic --------------------------------------------------------------

    def _check(self, other):
        if other._ring is not self._ring:
            raise DomainError("series over different fields")

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check(other)
        prec = min(self.prec, other.prec)
        val = min(self.val, other.val)
        coeffs = self._ring.add(self.coeffs, self.val - val,
                                other.coeffs, other.val - val, prec - val)
        return TruncatedSeries._make(self._ring, val, coeffs, prec)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TruncatedSeries._make(self._ring, self.val,
                                     self._ring.neg(self.coeffs), self.prec)

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check(other)
        prec = min(self.prec + other.val, other.prec + self.val)
        val = self.val + other.val
        coeffs = self._ring.mul(self.coeffs, other.coeffs, prec - val)
        return TruncatedSeries._make(self._ring, val, coeffs, prec)

    def __rmul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: FieldElement) -> "TruncatedSeries":
        if c.field != self.field:
            raise DomainError("elements of different fields")
        coeffs = self._ring.scale(self.coeffs, self.field.index_of(c))
        return TruncatedSeries._make(self._ring, self.val, coeffs, self.prec)

    def inverse(self) -> "TruncatedSeries":
        """Series inverse; needs a determined valuation.  Computed once per
        series and kept on it.

        A unit known to relative precision R keeps R correct coefficients in
        its inverse, so the absolute precision drops from p to p - 2v.
        """
        if self._inv is None:
            v = self.valuation()
            if v is None:
                raise PrecisionError("cannot invert an (apparent) zero series")
            coeffs = self._ring.inverse(self.coeffs, self.prec - v)
            self._inv = TruncatedSeries._make(self._ring, -v, coeffs,
                                              self.prec - 2 * v)
        return self._inv

    def __pow__(self, n: int) -> "TruncatedSeries":
        """self^n with the precision of square-and-multiply from T^0 at
        self.prec.  A product keeps the smaller relative precision (prec -
        val) of its factors, so for n >= 1 the result has valuation n v and
        relative precision self.prec - max(v, 0).  Each power is computed
        once per series and kept on it; self^-n is (1/self)^n."""
        out = self._pows.get(n)
        if out is not None:
            return out
        if n < 0:
            out = self.inverse() ** (-n)
        elif n == 0:
            out = TruncatedSeries._make(self._ring, 0, [1], self.prec)
        else:
            val = n * self.val
            rel = self.prec - max(self.val, 0)
            coeffs = self._ring.power(self.coeffs, n, rel)
            out = TruncatedSeries._make(self._ring, val, coeffs, val + rel)
        self._pows[n] = out
        return out

    def step_unit(self, alpha: int, beta: int, cap: int) -> "TruncatedSeries":
        """The unit s mod T^cap solving one tower step (see tower._solve_unit).

        self has valuation -j; u(t) = t^j self(t) is a polynomial with u(0) =
        c != 0.  With tau = T^p s^beta, s is the root of

            F(s)  = s u(tau) + T^(j(p-1)) s^(alpha(p-1)) - 1,
            F'(s) = h(tau) + alpha(p-1) T^(j(p-1)) s^(alpha(p-1)-1),

        where h(t) = u(t) + beta t u'(t), since d tau/ds = beta tau/s.  F'(s)
        is c plus terms of positive valuation, a unit, so a Newton step s -
        F(s)/F'(s) takes s from n known coefficients to 2n: it needs F(s) mod
        T^2n, whose first n coefficients are zero, and F'(s) mod T^n.  The
        root mod T^cap is unique.
        """
        ring, field = self._ring, self.field
        p, j = ring.p, -self.val
        # coeffs[i] is the coefficient of t^i in u; terms with p*i >= cap
        # cannot reach T^cap through tau.
        u = self.coeffs[:-(-cap // p)]
        h = [field.index_of(field.from_index(c) * field.element(1 + beta * i))
             for i, c in enumerate(u)]
        shift, e = j * (p - 1), alpha * (p - 1)
        k = e % p  # the integer factor of the middle term of F'

        def at_tau(poly, sigma, n):
            """poly(T^p sigma) mod T^n by Horner: the partial sum that tau^i
            multiplies is needed only mod T^(n - p*i)."""
            top = min(len(poly), -(-n // p)) - 1
            acc = [poly[top]]
            for i in range(top - 1, -1, -1):
                acc = [poly[i]] + [0] * (p - 1) + ring.mul(sigma, acc,
                                                           n - p * (i + 1))
            return acc

        s, n = ring.inverse(u, 1), 1
        while n < cap:
            n2 = min(2 * n, cap)
            m = n2 - n
            sigma = ring.power(s, beta, n2 - p)
            f_s = ring.mul(s, at_tau(u, sigma, n2), n2)
            if n2 > shift:
                f_s = ring.add(f_s, 0, ring.power(s, e, n2 - shift), shift, n2)
            d_s = at_tau(h, sigma, m)
            if k and m > shift:
                mid = ring.scale(ring.power(s, e - 1, m - shift), k)
                d_s = ring.add(d_s, 0, mid, shift, m)
            s += ring.mul(ring.neg(f_s[n:]), ring.inverse(d_s, m), m)
            n = n2
        return TruncatedSeries._make(ring, 0, s, cap)

    def __repr__(self):
        if not self.coeffs:
            return f"O(T^{self.prec})"
        bits = [f"({c!r})T^{e}" for e, c in sorted(self.terms.items())]
        return " + ".join(bits) + f" + O(T^{self.prec})"


def compose(f: TruncatedSeries, tau: TruncatedSeries) -> TruncatedSeries:
    """f(tau) for tau of positive valuation, by Horner over f's exponents.

    The tail of f beyond its precision contributes O(tau^f.prec), so the
    result is capped at val(tau) * f.prec.  The powers tau^gap are kept on
    tau, so every composition with the same tau shares them.
    """
    vt = tau.valuation()
    if vt is None or vt < 1:
        raise DomainError("composition needs a substitution of valuation >= 1")
    cap = vt * f.prec
    if not f.coeffs:
        return TruncatedSeries.zero(f.field, cap)
    ring = f._ring
    exps = [f.val + i for i, c in enumerate(f.coeffs) if c][::-1]
    acc = TruncatedSeries._make(ring, 0, [f.coeffs[exps[0] - f.val]], tau.prec)
    for e_prev, e in zip(exps, exps[1:]):
        acc = acc * tau ** (e_prev - e)
        acc = acc + TruncatedSeries._make(ring, 0, [f.coeffs[e - f.val]],
                                          acc.prec)
    acc = acc * tau ** exps[-1]
    return TruncatedSeries._make(acc._ring, acc.val, acc.coeffs,
                                 min(acc.prec, cap))
