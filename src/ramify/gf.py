"""Exact arithmetic in small finite fields F_q with q = p^a.

A field is F_p[z]/(f) for a deterministic monic irreducible modulus f of
degree a: candidates are ordered by the integer index sum(c_i * p^i) of their
non-leading coefficient vector (c_0, ..., c_{a-1}) and the first irreducible
one wins, so every run of every build picks the same modulus.  Elements are
coefficient tuples in the power basis of z.

Field orders are capped at 2^20 (desk scale; everything in this library needs
q <= 16), and so is every prime: prime_factors, the one trial division,
refuses a prime factor above 2^20 instead of searching for it.  p_adic(n, p)
is the one p-adic split n = p^k u, p not dividing u.  Multiplication,
inversion and powering go through discrete-log tables for orders up to 2^12
and fall back to polynomial arithmetic above that.  p-th roots are Frobenius
inverses, x^(1/p) = x^(p^(a-1)), so no polynomial is ever factored.

Elements are immutable, so each field builds its zero and one once and
`zero()` and `one()` hand out those two objects.  Addition in characteristic
2 is one xor over the coefficients.
"""

from __future__ import annotations

from operator import xor

from .errors import DomainError, json_int

ORDER_CAP = 1 << 20
_TABLE_CAP = 1 << 12


def p_adic(n: int, p: int) -> tuple[int, int]:
    """(k, u) with n = p^k * u and p not dividing u, for n != 0 and p >= 2."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k, n


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending; DomainError, and no search,
    for a prime factor above ORDER_CAP."""
    out = []
    f = 2
    while f * f <= n and f <= ORDER_CAP:
        if n % f == 0:
            out.append(f)
            n = p_adic(n, f)[1]
        # 2, 3, then 6k - 1 and 6k + 1: every prime, a third of the integers
        f += 1 if f == 2 else 4 if f % 6 == 1 else 2
    if n > ORDER_CAP:
        raise DomainError(f"{n} has a prime factor past the limit 2^20")
    if n > 1:
        out.append(n)
    return out


def p_power_exponent(q: int, p: int) -> int:
    """The exponent b with q = p^b, or raise DomainError."""
    if q >= 1:
        b, u = p_adic(q, p)
        if u == 1 and b:
            return b
    raise DomainError(f"{q} is not a positive power of {p}")


# ---------------------------------------------------------------------------
# Polynomials over F_p as coefficient tuples (ascending degree, trimmed).

def _ptrim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _pmod(a, mod, p):
    # mod is monic
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    return _ptrim(a[:dm])


def _is_irreducible(poly, p):
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(poly) - 1
    # deg >= 1: the one caller passes monic candidates of degree a >= 1
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for idx in range(p ** d):
            cand = _digits(idx, p, d) + (1,)
            if not _pmod(poly, cand, p):
                return False
    return True


def _digits(n, p, width):
    out = []
    for _ in range(width):
        out.append(n % p)
        n //= p
    return tuple(out)


def _smallest_irreducible(p, a):
    # a monic irreducible of every degree exists over F_p; an exhausted
    # search would raise StopIteration
    cands = (_digits(idx, p, a) + (1,) for idx in range(p ** a))
    return next(c for c in cands if _is_irreducible(c, p))


def check_tame(m: int, p: int) -> None:
    """DomainError unless the tame degree m is positive and prime to p."""
    if m < 1 or m % p == 0:
        raise DomainError(f"tame degree {m} must be positive and prime to {p}")


def check_field(a: Field, b: Field) -> None:
    """DomainError unless the fields a and b of two operands are equal."""
    if a != b:
        raise DomainError(f"different fields: {a!r} and {b!r}")


def power(x, n: int, mul):
    """x^n for n >= 1 by square-and-multiply under the product mul, started
    from the first factor (so no identity is needed); callers handle n < 1."""
    result = None
    while True:
        if n & 1:
            result = x if result is None else mul(result, x)
        n >>= 1
        if not n:
            return result
        x = mul(x, x)


# ---------------------------------------------------------------------------

class Field:
    """The finite field F_{p^a} with its canonical modulus."""

    __slots__ = ("p", "a", "modulus", "_redux", "_exp", "_log", "_gen",
                 "_zero", "_one")

    def __init__(self, p: int, a: int):
        if isinstance(p, int) and p > ORDER_CAP:
            raise DomainError(f"characteristic {p} is past the limit 2^20")
        if not isinstance(p, int) or prime_factors(p) != [p]:
            raise DomainError(f"characteristic {p} is not prime")
        if not isinstance(a, int) or a < 1:
            raise DomainError(f"extension degree {a} must be >= 1")
        # p^21 > ORDER_CAP, so a > 21 is refused without computing p^a
        if p ** min(a, 21) > ORDER_CAP:
            raise DomainError(f"field order {p}^{a} exceeds the cap {ORDER_CAP}")
        self.p = p
        self.a = a
        self.modulus = _smallest_irreducible(p, a)
        # reduction table for z^k, k = a .. 2a-2
        redux = []
        cur = _pmod((0,) * a + (1,), self.modulus, p) if a > 1 else ()
        for _ in range(a - 1):
            redux.append(cur + (0,) * (a - len(cur)))
            cur = _pmod(tuple([0] + list(cur)), self.modulus, p)
        self._redux = redux
        self._zero = FieldElement(self, (0,) * a)
        self._one = FieldElement(self, (1,) + (0,) * (a - 1))
        self._exp = None
        self._log = None
        self._gen = None
        if self.q <= _TABLE_CAP:
            self._build_tables()

    @property
    def q(self) -> int:
        return self.p ** self.a

    # -- element construction ------------------------------------------------

    def element(self, coeffs) -> "FieldElement":
        """Element from an int (prime-field shorthand), a coefficient list or
        an element of this field: the one door into a polynomial or series."""
        if isinstance(coeffs, FieldElement):
            if coeffs.field is not self:
                check_field(self, coeffs.field)
            return coeffs
        if isinstance(coeffs, int):
            c = [0] * self.a
            c[0] = coeffs % self.p
            return FieldElement(self, tuple(c))
        c = list(coeffs)
        if len(c) > self.a:
            raise DomainError(f"coefficient vector longer than degree {self.a}")
        c = [int(x) % self.p for x in c] + [0] * (self.a - len(c))
        return FieldElement(self, tuple(c))

    def zero(self) -> "FieldElement":
        return self._zero

    def one(self) -> "FieldElement":
        return self._one

    def from_index(self, n: int) -> "FieldElement":
        return FieldElement(self, _digits(n, self.p, self.a))

    def elements(self):
        """All q elements in index order."""
        for n in range(self.q):
            yield self.from_index(n)

    # -- core arithmetic on coefficient tuples --------------------------------

    def _mul_coeffs(self, ca, cb):
        out = [0] * (2 * self.a - 1)
        for i, ai in enumerate(ca):
            if ai:
                for j, bj in enumerate(cb):
                    out[i + j] += ai * bj
        return self.reduce(out)

    def reduce(self, slots) -> tuple:
        """Coefficient tuple of sum slots[k] z^k (k < 2a - 1, integer slots)
        reduced mod the modulus and mod p."""
        a = self.a
        res = list(slots[:a])
        for s, row in zip(slots[a:], self._redux):
            if s:
                for j in range(a):
                    res[j] += s * row[j]
        return tuple(x % self.p for x in res)

    def _build_tables(self):
        g = self._find_generator()
        exp = []
        cur = self.one().coeffs
        for _ in range(self.q - 1):
            exp.append(cur)
            cur = self._mul_coeffs(cur, g)
        self._exp = exp
        self._log = {c: i for i, c in enumerate(exp)}
        self._gen = g

    def _find_generator(self):
        """Coefficient tuple of the smallest multiplicative generator."""
        n = self.q - 1
        rads = prime_factors(n)
        # F_q^* is cyclic; an exhausted search would raise StopIteration
        cands = (_digits(idx, self.p, self.a) for idx in range(1, self.q))
        return next(c for c in cands if all(
            self._pow_coeffs(c, n // r) != self.one().coeffs for r in rads))

    def _pow_coeffs(self, c, k):
        if k == 0:
            return self.one().coeffs
        return power(c, k, self._mul_coeffs)

    def multiplicative_generator(self) -> "FieldElement":
        if self._gen is None:
            self._gen = self._find_generator()
        return FieldElement(self, self._gen)

    def __eq__(self, other):
        if other is self:
            return True
        return (isinstance(other, Field) and self.p == other.p
                and self.a == other.a and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.a, self.modulus))

    def __repr__(self):
        return f"F_{self.q}"


class FieldElement:
    """An element of a Field, immutable."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def _check(self, other):
        if not isinstance(other, FieldElement):
            return None
        if other.field is not self.field:
            check_field(self.field, other.field)
        return other

    def __add__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        F = self.field
        p = F.p
        if p == 2:
            return FieldElement(F, tuple(map(xor, self.coeffs, o.coeffs)))
        return FieldElement(F, tuple(
            [(x + y) % p for x, y in zip(self.coeffs, o.coeffs)]))

    def __sub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return self + -o

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple((-x) % p for x in self.coeffs))

    def __mul__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        F = self.field
        if F._log is not None:
            if not self or not o:
                return F.zero()
            i = F._log[self.coeffs] + F._log[o.coeffs]
            return FieldElement(F, F._exp[i % (F.q - 1)])
        return FieldElement(F, F._mul_coeffs(self.coeffs, o.coeffs))

    def __truediv__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, k: int):
        F = self.field
        if not self:
            if k < 0:
                raise DomainError("inverse of zero")
            return F.one() if k == 0 else F.zero()
        if F._log is not None:
            i = (F._log[self.coeffs] * k) % (F.q - 1)
            return FieldElement(F, F._exp[i])
        return FieldElement(F, F._pow_coeffs(self.coeffs, k % (F.q - 1)))

    def inverse(self) -> "FieldElement":
        """The -1st power: __pow__ is the one place that refuses zero."""
        return self ** -1

    def frobenius(self, k: int = 1) -> "FieldElement":
        """x^(p^k) for every integer k, by one power (Frobenius has order a)."""
        return self ** (self.field.p ** (k % self.field.a))

    def pth_root(self) -> "FieldElement":
        """Inverse Frobenius: exact since the field is perfect."""
        return self.frobenius(-1)

    def sqrt(self) -> "FieldElement":
        """Square root; unique in characteristic 2."""
        if self.field.p != 2:
            raise DomainError("sqrt is only provided in characteristic 2")
        return self.pth_root()

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, FieldElement) and self.coeffs == other.coeffs
                and (other.field is self.field or other.field == self.field))

    def __hash__(self):
        # equal elements have equal coefficients
        return hash(self.coeffs)

    def __repr__(self):
        if self.field.a == 1:
            return f"{self.coeffs[0]}"
        return f"{list(self.coeffs)}"

    def to_json(self):
        return {"p": self.field.p, "a": self.field.a, "coeffs": list(self.coeffs)}


# ---------------------------------------------------------------------------
# Module-level operations.

_FIELD_CACHE: dict[tuple[int, int], Field] = {}


def field_create(p: int, a: int) -> Field:
    """F_{p^a} with the canonical (smallest) irreducible modulus."""
    key = (p, a)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = Field(p, a)
    return _FIELD_CACHE[key]


def root_of_unity(field: Field, m: int) -> FieldElement:
    """An element of multiplicative order exactly m; deterministic.

    Returns g^((q-1)/m) for the smallest multiplicative generator g, so the
    m-th roots of unity chosen here form a compatible system.
    """
    if m < 1:
        raise DomainError("m must be positive")
    if (field.q - 1) % m != 0:
        raise DomainError(f"no primitive {m}-th root of unity in F_{field.q}")
    if m == 1:
        return field.one()
    return field.multiplicative_generator() ** ((field.q - 1) // m)


def degree_over_prime(x: FieldElement) -> int:
    """[F_p(x) : F_p], the smallest d >= 1 with x^(p^d) = x."""
    y = x.frobenius()
    d = 1
    while y != x:
        y = y.frobenius()
        d += 1
    return d


def json_element(field: Field, c) -> FieldElement:
    """Element from a JSON coefficient: an integer (prime-field shorthand) or
    a list of integers; SchemaError for anything else."""
    if isinstance(c, list):
        return field.element([json_int(x) for x in c])
    return field.element(json_int(c))
