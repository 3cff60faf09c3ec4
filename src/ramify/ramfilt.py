"""Ramification filtrations as pure break data.

A filtration is encoded by its total order |I| = p^e * m, its tame part m,
and an ascending break list [(jump, order)], where `order` is the size of the
group at and below that jump: |I_t| = order_i for t in the half-open interval
(previous jump, this jump].  Below the first break (and at 0) the group is all
of I; above the last break it is trivial.  No abstract groups are stored --
every formula here consumes only jumps, orders and indices.

All jump arithmetic is exact rational (fractions.Fraction); jumps like 3/2
must round-trip exactly through the Herbrand transition functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod

from .errors import DomainError, json_frac, json_int, json_str, reading
from .gf import p_adic, prime_factors

LOWER = "lower"
UPPER = "upper"


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class RamFiltration:
    total_order: int
    tame: int
    numbering: str
    breaks: tuple[tuple[Fraction, int], ...]

    def __post_init__(self):
        if self.numbering not in (LOWER, UPPER):
            raise DomainError(f"numbering must be '{LOWER}' or '{UPPER}'")
        if self.total_order < 1 or self.tame < 1:
            raise DomainError("orders must be positive")
        brk = tuple((_as_fraction(j), int(o)) for j, o in self.breaks)
        object.__setattr__(self, "breaks", brk)
        prev = Fraction(0)
        prev_o = None
        for j, o in brk:
            if j <= prev:
                raise DomainError("jumps must be strictly ascending and positive")
            if o < 2:
                raise DomainError("break orders must be at least 2")
            if prev_o is not None and o >= prev_o:
                raise DomainError("break orders must strictly decrease")
            prev, prev_o = j, o

    @property
    def wild_order(self) -> int:
        if self.total_order % self.tame != 0:
            raise DomainError("tame part does not divide the total order")
        return self.total_order // self.tame

    @cached_property
    def wild_primes(self) -> tuple[int, ...]:
        """The distinct primes of the wild part, ascending: the one
        factorization of it, which residue_char and validate both read
        (DomainError for a prime past 2^20)."""
        return tuple(prime_factors(self.wild_order))

    def residue_char(self) -> int | None:
        """The prime p with wild part p^e, or None for a tame filtration."""
        w = self.wild_order
        if w == 1:
            return None
        primes = self.wild_primes
        if len(primes) != 1:
            raise DomainError(f"wild part {w} is not a prime power")
        return primes[0]

    def to_json(self):
        return {"total_order": self.total_order, "tame": self.tame,
                "numbering": self.numbering,
                "breaks": [[j.numerator, j.denominator, o]
                           for j, o in self.breaks]}

    @classmethod
    def from_json(cls, obj) -> "RamFiltration":
        with reading("malformed filtration document: "):
            breaks = tuple((json_frac((n, d)), json_int(o))
                           for n, d, o in obj["breaks"])
            fields = (json_int(obj["total_order"]), json_int(obj["tame"]),
                      json_str(obj["numbering"]), breaks)
        return cls(*fields)


@dataclass(frozen=True)
class ReducedFiltration:
    """Jump data refined so that every piece is an irreducible tame module.

    pieces: ascending list of (q_i, upper jump, s_iota_i) with q_i the order
    of the i-th irreducible piece.  The piece orders are factored once: the
    first by trial division, which finds the prime p, and every other by
    dividing out p.
    """

    tame: int
    pieces: tuple[tuple[int, Fraction, int], ...]

    def __post_init__(self):
        if self.tame < 1:
            raise DomainError("tame part must be positive")
        pieces = tuple((int(q), _as_fraction(s), int(si)) for q, s, si in self.pieces)
        object.__setattr__(self, "pieces", pieces)
        if not pieces:
            raise DomainError("a reduced filtration needs at least one piece")
        primes = prime_factors(pieces[0][0])
        one_prime = len(primes) == 1
        prev = None
        for q, sigma, si in pieces:
            if q < 2:
                raise DomainError("piece orders must be at least 2")
            if sigma <= 0:
                raise DomainError("jumps must be positive")
            if prev is not None and sigma < prev:
                raise DomainError("reduced jumps must ascend weakly")
            if not 1 <= si <= self.tame:
                raise DomainError("s_iota out of range [1, m]")
            one_prime = one_prime and p_adic(q, primes[0])[1] == 1
            prev = sigma
        if not one_prime:
            raise DomainError("piece orders must be powers of one prime")
        object.__setattr__(self, "p", primes[0])  # the prime of every q_i

    def to_json(self):
        return {"tame": self.tame,
                "pieces": [{"q": q, "sigma": [s.numerator, s.denominator],
                            "s_iota": si} for q, s, si in self.pieces]}

    @classmethod
    def from_json(cls, obj) -> "ReducedFiltration":
        with reading("malformed reduced filtration: "):
            pieces = []
            for pc in obj["pieces"]:
                pieces.append((json_int(pc["q"]), json_frac(pc["sigma"]),
                               json_int(pc["s_iota"])))
            tame = json_int(obj["tame"])
        return cls(tame, tuple(pieces))


# ---------------------------------------------------------------------------
# Herbrand transition functions.

def _corners(breaks, rate) -> tuple[tuple[Fraction, int], ...]:
    """The map t -> integral_0^t rate(o(u)) du at each break (jump, o), paired
    with o, where o(u) is the order of the break at or above u; one pass."""
    out, prev, acc = [], Fraction(0), Fraction(0)
    for j, o in breaks:
        acc += (j - prev) * rate(o)
        out.append((acc, o))
        prev = j
    return tuple(out)


def _at(breaks, rate, c: Fraction) -> Fraction:
    """The same map at one point c >= 0; the order is 1 past the last break."""
    prev, acc = Fraction(0), Fraction(0)
    for j, o in breaks:
        if c <= j:
            return acc + (c - prev) * rate(o)
        acc += (j - prev) * rate(o)
        prev = j
    return acc + (c - prev) * rate(1)


def herbrand_phi(filt: RamFiltration, c_tilde) -> Fraction:
    """phi(c) = integral_0^c dt / (I_0 : I_t); piecewise linear, exact."""
    if filt.numbering != LOWER:
        raise DomainError("herbrand_phi expects a lower-numbered filtration")
    c = _as_fraction(c_tilde)
    if c < 0:
        raise DomainError("negative argument to phi")
    n = filt.total_order
    return _at(filt.breaks, lambda o: Fraction(o, n), c)


def herbrand_psi(filt: RamFiltration, c) -> Fraction:
    """The inverse of phi: psi(c) = integral_0^c (I^0 : I^t) dt."""
    if filt.numbering != LOWER:
        raise DomainError("herbrand_psi expects a lower-numbered filtration")
    cc = _as_fraction(c)
    if cc < 0:
        raise DomainError("negative argument to psi")
    n = filt.total_order
    return _at(_corners(filt.breaks, lambda o: Fraction(o, n)),
               lambda o: Fraction(n, o), cc)


def lower_to_upper(filt: RamFiltration) -> RamFiltration:
    """Upper jumps sigma_i = phi(j_i) with the same order data."""
    if filt.numbering != LOWER:
        raise DomainError("filtration is not lower-numbered")
    n = filt.total_order
    return RamFiltration(n, filt.tame, UPPER,
                         _corners(filt.breaks, lambda o: Fraction(o, n)))


def upper_to_lower(filt: RamFiltration) -> RamFiltration:
    """Exact inverse of lower_to_upper: lower jumps j_i = psi(sigma_i)."""
    if filt.numbering != UPPER:
        raise DomainError("filtration is not upper-numbered")
    n = filt.total_order
    return RamFiltration(n, filt.tame, LOWER,
                         _corners(filt.breaks, lambda o: Fraction(n, o)))


def _quotient_exponents(filt: RamFiltration, p: int) -> list[int | None]:
    """Per break, the k with o = o_next * p^k (o_next = 1 past the last
    break), or None when o / o_next is no power of p.  The break orders
    strictly decrease, so every k found is at least 1."""
    orders = [o for _, o in filt.breaks] + [1]
    out = []
    for o, o_next in zip(orders, orders[1:]):
        k, u = p_adic(o // o_next, p)
        out.append(k if u == 1 and o % o_next == 0 else None)
    return out


def jumps_with_multiplicity(filt: RamFiltration) -> list[Fraction]:
    """Each jump repeated log_p of its quotient order, ascending; DomainError
    when the first break order is not the wild part (so the counts would not
    add up to its log_p) or a quotient is not a power of p."""
    p = filt.residue_char()
    if p is None:
        return []
    first = filt.breaks[0][1] if filt.breaks else 1
    if first != filt.wild_order:
        raise DomainError(f"first break order {first} != wild part "
                          f"{filt.wild_order}")
    out = []
    for (j, _), k in zip(filt.breaks, _quotient_exponents(filt, p)):
        if k is None:
            raise DomainError(f"quotient at jump {j} is not a power of {p}")
        out.extend([j] * k)
    return out


# ---------------------------------------------------------------------------
# Validation.

def schmid_violations(p: int, upper_jumps: list) -> list[str]:
    """The cyclic-cover constraint on consecutive upper jumps.

    Each consecutive pair must satisfy sigma' = p*sigma, or sigma' > p*sigma
    with p not dividing sigma'.  Jumps must be positive integers with the
    first one prime to p.
    """
    out = []
    js = [_as_fraction(j) for j in upper_jumps]
    for j in js:
        if j.denominator != 1 or j <= 0:
            out.append(f"upper jump {j} is not a positive integer")
    if any(j.denominator != 1 for j in js):
        return out
    ints = [int(j) for j in js]
    if ints and ints[0] % p == 0:
        out.append(f"first upper jump {ints[0]} is divisible by p")
    for a, b in zip(ints, ints[1:]):
        if b == p * a:
            continue
        if b > p * a and b % p != 0:
            continue
        out.append(f"consecutive upper jumps ({a}, {b}) violate the cyclic constraint")
    return out


def validate(filt: RamFiltration, abelian: bool = False,
             cyclic: bool = False) -> list[str]:
    """All detectable violations as strings; an empty list means valid."""
    if filt.total_order % filt.tame != 0:
        return [f"tame part {filt.tame} does not divide |I| = {filt.total_order}"]
    wild = filt.wild_order
    primes = filt.wild_primes  # DomainError for a prime past 2^20
    if len(primes) > 1:
        return [f"wild part {wild} is not a prime power"]
    if not filt.breaks:
        return [] if wild == 1 else ["wild part is nontrivial but there are no breaks"]
    if not primes:
        return ["breaks present but the wild part is trivial"]
    p, out = primes[0], []
    first_ok = filt.breaks[0][1] == wild
    if not first_ok:
        out.append(f"first break order {filt.breaks[0][1]} != wild part {wild} "
                   "(tame quotient |I_0|/|I_1| = m fails)")
    ks = _quotient_exponents(filt, p)
    for (j, _), k in zip(filt.breaks, ks):
        if k is None:
            out.append(f"quotient at jump {j} is not a positive power of {p}")
    if filt.numbering == LOWER:
        for j, _ in filt.breaks:
            if j.denominator != 1:
                out.append(f"lower jump {j} is not an integer")
            elif int(j) % p == 0:
                out.append(f"p | {j} for a lower jump")
    if abelian or cyclic:
        upper = filt if filt.numbering == UPPER else lower_to_upper(filt)
        for sigma, _ in upper.breaks:
            if sigma.denominator != 1:
                out.append(f"abelian filtration has non-integral upper jump {sigma}")
        # the cyclic checks need the jump counts, which a bad first order or
        # quotient (reported above) leaves undefined
        if cyclic and first_ok and None not in ks:
            if max(ks) > 1:
                out.append("cyclic filtration has a jump of multiplicity > 1")
            out.extend(schmid_violations(p, [s for s, _ in upper.breaks]))
    return out


# ---------------------------------------------------------------------------
# Reduction to irreducible pieces.

def reduce(filt: RamFiltration, piece_sizes: list[list[int]],
           s_iotas: list[int] | None = None) -> ReducedFiltration:
    """Refine each jump into caller-supplied irreducible piece orders.

    jumps_with_multiplicity checks the filtration first, so the quotients
    multiply to the wild part.  piece_sizes has one list per break; the orders
    in the i-th list must multiply to the quotient order at the i-th jump.
    The jump is emitted once per piece.  s_iotas (one per emitted piece, in
    order) defaults to all 1, which is only permitted for tame part m = 1.
    """
    if filt.numbering != UPPER:
        raise DomainError("reduce expects an upper-numbered filtration")
    if not jumps_with_multiplicity(filt):
        raise DomainError("nothing to reduce in a tame filtration")
    if len(piece_sizes) != len(filt.breaks):
        raise DomainError("need one piece list per break")
    orders = [o for _, o in filt.breaks] + [1]
    pieces = []
    for (sigma, o), o_next, sizes in zip(filt.breaks, orders[1:], piece_sizes):
        quot = o // o_next
        if prod(sizes) != quot or not sizes:
            raise DomainError(
                f"piece sizes {sizes} do not multiply to the quotient {quot} "
                f"at jump {sigma}")
        for q in sizes:
            pieces.append((q, sigma))
    if s_iotas is None:
        if filt.tame != 1:
            raise DomainError("s_iota values are required when m > 1")
        s_iotas = [1] * len(pieces)
    if len(s_iotas) != len(pieces):
        raise DomainError("need one s_iota per emitted piece")
    return ReducedFiltration(filt.tame,
                             tuple((q, sigma, si)
                                   for (q, sigma), si in zip(pieces, s_iotas)))


def last_piece_s_iota(filt: RamFiltration, last_piece_order: int) -> int:
    """s_iota of the deepest piece from the last lower jump: j_e / |P-bar| mod m.

    Only the last piece admits this shortcut; it requires |P|/q_r to divide
    the last lower jump.
    """
    if filt.numbering != LOWER:
        raise DomainError("expects a lower-numbered filtration")
    if not filt.breaks:
        raise DomainError("no wild breaks")
    j_e = filt.breaks[-1][0]
    if j_e.denominator != 1:
        raise DomainError("last lower jump is not an integer")
    pbar = filt.wild_order // last_piece_order
    val = Fraction(int(j_e), pbar)
    if val.denominator != 1:
        raise DomainError("last jump is not divisible by the quotient order")
    m = filt.tame
    return (int(val) - 1) % m + 1
