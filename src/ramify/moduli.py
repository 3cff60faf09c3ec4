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
Conductors sigma are exact rationals throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd

from .errors import DomainError
from .gf import check_tame, p_power_exponent, prime_factors
from .ramfilt import ReducedFiltration, schmid_violations

# The most integers dim_bounds lets n_count walk for one document, summed over
# its pieces: floor((q/p) m sigma) each.  The walk costs 2-4 us per integer,
# so a document at the limit answers within about 2 s.
WALK_CAP = 500_000


@dataclass(frozen=True)
class DimensionReport:
    """The per-piece counts and the rule that makes the upper bound exact."""

    n_list: tuple[int, ...]
    rule: str | None = None

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


def n_count(q: int, m: int, s_iota: int, sigma, p: int | None = None) -> int:
    """Exact cardinality of the moduli coordinate set, by enumeration.

    The prime of q is factored out of p when given (dim_bounds passes its
    ReducedFiltration's), else out of q; a p that q is no power of is refused.
    Any qualifying l has gcd(l, q) <= q/p (since q does not divide l), so
    l <= (q/p) * m * sigma bounds the search, and the walk stops there;
    dim_bounds refuses a document whose walks would pass WALK_CAP integers
    in all before any of them starts.
    """
    sigma = Fraction(sigma)
    primes = prime_factors(q if p is None else p)
    if len(primes) != 1:
        raise DomainError(f"{q if p is None else p} is not a prime power")
    p = primes[0]
    p_power_exponent(q, p)  # DomainError unless q = p^b, b >= 1
    check_tame(m, p)
    if not 1 <= s_iota <= m:
        raise DomainError(f"s_iota = {s_iota} outside [1, {m}]")
    if sigma <= 0:
        raise DomainError("sigma must be positive")
    bound = floor(Fraction(q, p) * m * sigma)
    count = 0
    for ell in range(1, bound + 1):
        if ell % q == 0:
            continue
        if Fraction(ell, gcd(ell, q)) > m * sigma:
            continue
        if (ell - s_iota) % m != 0:
            continue
        count += 1
    return count


def dim_bounds(reduced: ReducedFiltration) -> DimensionReport:
    """Per-piece counts n_i, with bounds [n_r, sum n_i] for the dimension."""
    m = reduced.tame
    p = reduced.p
    if sum(floor(Fraction(q, p) * m * sigma)
           for q, sigma, _ in reduced.pieces) > WALK_CAP:
        raise DomainError(f"the counts would walk past {WALK_CAP} integers")
    ns = [n_count(q, m, si, sigma, p) for q, sigma, si in reduced.pieces]
    return DimensionReport(tuple(ns))


def dim_ordinary(p: int, e: int, m: int) -> int:
    """Exact dimension e/c in the ordinary case, c = ord of p mod m; c | e
    iff p^e = 1 mod m, tested first so that c is searched for among the
    divisors of e."""
    if m < 1:
        raise DomainError(f"tame degree {m} must be positive")
    if gcd(p, m) != 1:
        raise DomainError(f"{p} and {m} are not coprime")
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
