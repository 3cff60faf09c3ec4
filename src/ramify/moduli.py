"""Dimension counts for equiramified deformation spaces.

The building block is the count

    n(q, m, s_iota, sigma) = #{ l >= 1 : q does not divide l,
                                l / gcd(l, q) <= m * sigma,
                                l = s_iota  (mod m) },

one factor per irreducible piece of the reduced filtration.  The deepest
piece gives the lower bound for the moduli dimension, the sum over pieces the
upper bound.  Every exact value dimension reports is that upper bound: for
products of irreducible pieces (reducible case), for abelian p-groups (class
field theory; one piece of order p per jump, the jump sum
sigma - floor(sigma/p)), and for ordinary data, where e/c must agree.
Conductors sigma are exact rationals throughout.  n_count enumerates: it
walks the one residue class l = s_iota (mod m) up to (q/p) m sigma, and with
sigma = num/den tests l den <= gcd(l, q) m num in integers.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .errors import DomainError
from .gf import check_tame, p_power_exponent, prime_factors
from .ramfilt import ReducedFiltration, check_s_iota, schmid_violations

# The most integers n_count walks for one piece, and dim_bounds for one
# document summed over its pieces: floor((q/p) m sigma) each (_walk_length),
# of which the walk visits the 1 in m of the residue class of s_iota, about
# 0.1 us each.  So m = 1 documents are the slowest: one at the limit answers
# within about a tenth of a second.
WALK_CAP = 500_000


class DimensionReport(namedtuple("DimensionReport", "n_list rule",
                                 defaults=(None,))):
    """The per-piece counts n_list (a tuple of ints) and the rule that makes
    the upper bound exact (a str, or None)."""

    __slots__ = ()

    @property
    def lower_bound(self) -> int:
        return self.n_list[-1]

    @property
    def upper_bound(self) -> int:
        return sum(self.n_list)

    @property
    def exact(self) -> int | None:
        return None if self.rule is None else self.upper_bound

    def to_json(self):
        return {"n": list(self.n_list), "lower": self.lower_bound,
                "upper": self.upper_bound, "exact": self.exact,
                "rule": self.rule}


def _walk_length(p: int, m: int, pieces) -> int:
    """floor((q/p) m sigma) summed over the pieces (q, sigma, s_iota), in
    integers: how far the walks of n_count go.  Refused past WALK_CAP."""
    length = sum(q * m * sigma.numerator // (p * sigma.denominator)
                 for q, sigma, _ in pieces)
    if length > WALK_CAP:
        raise DomainError(f"the counts would walk past {WALK_CAP} integers")
    return length


def n_count(q: int, m: int, s_iota: int, sigma, p: int | None = None) -> int:
    """Exact cardinality of the moduli coordinate set, by enumeration.

    The prime of q is factored out of p when given (dim_bounds passes its
    ReducedFiltration's), else out of q; a p that q is no power of is refused.
    Any qualifying l has gcd(l, q) <= q/p (since q does not divide l), so
    l <= (q/p) * m * sigma bounds the search, and the walk stops there; it
    steps by m from s_iota, the only residue class that can count, and
    makes the definition's two other tests on each l, the bound as
    l * den <= gcd(l, q) * m * num with sigma = num/den.  A walk whose bound
    passes WALK_CAP (counting every integer up to it, not only the class) is
    refused before it starts; dim_bounds refuses a document whose walks would
    pass it in all before any of them starts.
    """
    sigma = Fraction(sigma)
    primes = prime_factors(q if p is None else p)
    if len(primes) != 1:
        raise DomainError(f"{q if p is None else p} is not a prime power")
    p = primes[0]
    p_power_exponent(q, p)  # DomainError unless q = p^b, b >= 1
    check_tame(m, p)
    check_s_iota(s_iota, m)
    if sigma <= 0:
        raise DomainError("sigma must be positive")
    end = _walk_length(p, m, [(q, sigma, s_iota)])
    den, bound = sigma.denominator, m * sigma.numerator
    count = 0
    for ell in range(s_iota, end + 1, m):
        if ell % q and ell * den <= gcd(ell, q) * bound:
            count += 1
    return count


def dim_bounds(reduced: ReducedFiltration) -> DimensionReport:
    """Per-piece counts n_i, with bounds [n_r, sum n_i] for the dimension."""
    m = reduced.tame
    p = reduced.p
    _walk_length(p, m, reduced.pieces)  # refused past WALK_CAP in all
    ns = [n_count(q, m, si, sigma, p) for q, sigma, si in reduced.pieces]
    return DimensionReport(tuple(ns))


def dim_ordinary(p: int, e: int, m: int) -> int:
    """Exact dimension e/c in the ordinary case, c = ord of p mod m; c | e
    iff p^e = 1 mod m, tested first so that c is searched for among the
    divisors of e."""
    check_tame(m, p)
    if e < 1 or pow(p, e, m) != 1 % m:
        raise DomainError(f"inconsistent ordinary datum: the order of {p} "
                          f"mod {m} does not divide e = {e}")
    return e // next(c for c in range(1, e + 1)
                     if e % c == 0 and pow(p, c, m) == 1 % m)


def dimension(kind: str, reduced: ReducedFiltration | None,
              abelian: tuple[int, list[list[int]]] | None = None
              ) -> DimensionReport:
    """dim_bounds(reduced), with the upper bound exact under the rule the
    structure kind names: none for "general"; "reducible"; "abelian", whose
    abelian = (p, each cyclic factor's jumps) fixes the filtration, tame part
    1 and one piece (p, sigma, 1) per jump, which reduced must equal when
    given; "ordinary", where dim_ordinary must equal the upper bound."""
    if kind == "abelian":
        p, factors = abelian
        if prime_factors(p) != [p]:
            raise DomainError(f"abelian p = {p} is not prime")
        for jumps in factors:
            bad = schmid_violations(p, jumps)
            if bad:
                raise DomainError("; ".join(bad))
        pieces = tuple(sorted((p, Fraction(j), 1) for f in factors for j in f))
        if reduced is None:
            reduced = ReducedFiltration(1, pieces)
        elif (reduced.tame, reduced.pieces) != (1, pieces):
            raise DomainError(
                f"the pieces disagree with the abelian factors, which fix "
                f"tame part 1 and one piece (q = {p}, s_iota = 1) per jump")
    report = dim_bounds(reduced)
    if kind == "ordinary":
        p = reduced.p
        e = sum(p_power_exponent(q, p) for q, _, _ in reduced.pieces)
        if dim_ordinary(p, e, reduced.tame) != report.upper_bound:
            raise DomainError("ordinary formula disagrees with the piece sum; "
                              "the datum is not ordinary")
    return report if kind == "general" else DimensionReport(report.n_list, kind)
