"""Reference answers for the benchmark, computed without importing ramify.

Everything here is a second implementation written from the mathematics, so
a defect in the program's code path cannot also hide in its checker:

* small finite fields by schoolbook polynomial arithmetic (the program uses
  discrete-log tables);
* the Herbrand function as an explicit integral of |G_t| / |G_0|;
* n(q, m, s, sigma) as a closed form of arithmetic-progression counts (the
  program enumerates), with an enumeration kept only to test the closed form;
* the Riemann-Hurwitz genus from lower jumps with multiplicity.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor

# Non-leading coefficients (c_0, ..., c_{a-1}) of the canonical modulus of
# F_{p^a}: the first monic irreducible polynomial in index order
# sum(c_i * p^i), the convention the README fixes for element coordinates.
MODULI = {
    (2, 2): (1, 1),        # z^2 + z + 1
    (2, 3): (1, 1, 0),     # z^3 + z + 1
    (2, 4): (1, 1, 0, 0),  # z^4 + z + 1
    (3, 2): (1, 0),        # z^2 + 1
    (5, 2): (2, 0),        # z^2 + 2
}


class GF:
    """F_{p^a}; elements are coefficient tuples of length a."""

    def __init__(self, p: int, a: int):
        self.p, self.a, self.q = p, a, p ** a
        self.modulus = MODULI[(p, a)] if a > 1 else None

    def from_index(self, n: int) -> tuple:
        out = []
        for _ in range(self.a):
            out.append(n % self.p)
            n //= self.p
        return tuple(out)

    def index(self, x) -> int:
        n = 0
        for c in reversed(x):
            n = n * self.p + c
        return n

    def zero(self) -> tuple:
        return (0,) * self.a

    def one(self) -> tuple:
        return (1,) + (0,) * (self.a - 1)

    def add(self, x, y) -> tuple:
        return tuple((u + v) % self.p for u, v in zip(x, y))

    def sub(self, x, y) -> tuple:
        return tuple((u - v) % self.p for u, v in zip(x, y))

    def mul(self, x, y) -> tuple:
        p, a = self.p, self.a
        prod = [0] * (2 * a - 1)
        for i, u in enumerate(x):
            for j, v in enumerate(y):
                prod[i + j] += u * v
        # reduce with z^a = -(c_0 + c_1 z + ... + c_{a-1} z^{a-1})
        for k in range(2 * a - 2, a - 1, -1):
            c = prod[k] % p
            prod[k] = 0
            if c:
                for i, m in enumerate(self.modulus):
                    prod[k - a + i] -= c * m
        return tuple(c % p for c in prod[:a])

    def pow(self, x, n: int) -> tuple:
        result, base = self.one(), x
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def div(self, x, y) -> tuple:
        if not any(y):
            raise ZeroDivisionError("division by zero in F_q")
        return self.mul(x, self.pow(y, self.q - 2))


# ---------------------------------------------------------------------------
# Filtrations: breaks are (jump, order) with `order` = |G_t| on
# (previous jump, jump], as in the program's documents.

def herbrand_upper(total: int, lower_breaks) -> list:
    """Upper breaks phi(j) for lower breaks, phi(c) = int_0^c |G_t|/|G_0| dt."""
    out = []
    phi = Fraction(0)
    prev = Fraction(0)
    for j, order in lower_breaks:
        phi += (Fraction(j) - prev) * Fraction(order, total)
        prev = Fraction(j)
        out.append((phi, order))
    return out


def multiplicities(orders, p: int) -> list[int]:
    """log_p of each quotient |G_{j_k}| / |G_{j_{k+1}}|."""
    out = []
    for o, o_next in zip(orders, list(orders[1:]) + [1]):
        quot, mult = o // o_next, 0
        while quot > 1:
            quot //= p
            mult += 1
        out.append(mult)
    return out


def with_multiplicity(breaks, p: int) -> list:
    orders = [o for _, o in breaks]
    return [j for (j, _), k in zip(breaks, multiplicities(orders, p))
            for _ in range(k)]


def filtration_json(total: int, tame: int, numbering: str, breaks) -> dict:
    return {"total_order": total, "tame": tame, "numbering": numbering,
            "breaks": [[Fraction(j).numerator, Fraction(j).denominator, o]
                       for j, o in breaks]}


def genus_from_lower(p: int, lower_jumps) -> int:
    """Riemann-Hurwitz for a one-point totally wildly ramified p-group cover
    of a rational germ: 2g - 2 = -2|G| + sum_{i>=0} (|G_i| - 1)."""
    order = p ** len(lower_jumps)
    acc = order - 1
    for i in range(1, max(lower_jumps) + 1):
        acc += p ** sum(1 for j in lower_jumps if j >= i) - 1
    return (acc - 2 * order + 2) // 2


# ---------------------------------------------------------------------------
# n(q, m, s, sigma) = #{l >= 1 : q does not divide l, l/gcd(l, q) <= m sigma,
#                       l = s (mod m)}.

def _count_progression(n: int, r: int, m: int) -> int:
    """#{1 <= u <= n : u = r (mod m)}."""
    first = r % m or m
    return 0 if n < first else (n - first) // m + 1


def prime_of(q: int) -> int:
    return next(d for d in range(2, q + 1) if q % d == 0)


def n_count_closed(q: int, m: int, s: int, sigma) -> int:
    """Write l = p^k u with k < b (q = p^b) and p not dividing u; then
    l/gcd(l, q) = u, so n sums, over k < b, the u <= floor(m sigma) prime to
    p with u = s p^-k (mod m)."""
    p = prime_of(q)
    b, t = 0, q
    while t > 1:
        t //= p
        b += 1
    bound = floor(m * Fraction(sigma))
    total = 0
    for k in range(b):
        r = s * pow(p, -k, m) % m if m > 1 else 0
        r_over_p = r * pow(p, -1, m) % m if m > 1 else 0
        total += (_count_progression(bound, r, m)
                  - _count_progression(bound // p, r_over_p, m))
    return total


def n_count_enumerated(q: int, m: int, s: int, sigma) -> int:
    """The defining enumeration; only used to test n_count_closed."""
    p = prime_of(q)
    limit = m * Fraction(sigma)
    count = 0
    for ell in range(1, floor(Fraction(q, p) * limit) + 1):
        if ell % q and (ell - s) % m == 0:
            g = 1
            while ell % (g * p) == 0 and g * p <= q:
                g *= p
            if Fraction(ell, g) <= limit:
                count += 1
    return count


def p_free_part(n: int, p: int) -> int:
    while n % p == 0:
        n //= p
    return n
