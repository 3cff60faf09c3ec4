"""Small helpers that only the tests use: the (Z/p)^2 tower shapes of the
benchmark's oracle-towers workload, the fields the tests build, the
generator z of a field, an element's index, elements read from their JSON
form, the units of a subfield, |I_t| of a filtration, the inverse of
laurent.p_power_decompose, the rescanning reduction that the closed-form
ascover.standard_form_poly replaced, the per-monomial substitution that
tower.VarPoly.subst replaced, and the per-break Herbrand, quotient, validation
and reduction code that ramfilt's one-pass walks replaced, the order of p
mod m by repeated multiplication, the multiplicative order of a field
element, and the sums of Witt vector addition by the ghost recursion."""

from __future__ import annotations

from fractions import Fraction

from ramify.errors import DomainError, json_int
from ramify.gf import (Field, FieldElement, field_create, json_element,
                       p_adic, p_power_exponent, power, prime_factors)
from ramify.laurent import LaurentPoly, accumulate
from ramify.ramfilt import (LOWER, UPPER, RamFiltration, ReducedFiltration,
                            schmid_violations)
from ramify.tower import VarPoly

# the (p, j1, j2) shapes of the benchmark's oracle-towers workload
EA2_SHAPES = [
    (2, 1, 3), (2, 3, 7), (2, 5, 9), (2, 7, 11),
    (3, 1, 2), (3, 2, 5), (3, 1, 7), (3, 4, 11), (3, 1, 10),
    (5, 2, 3), (5, 1, 6), (5, 3, 8), (5, 8, 9),
]

# every field the tests build, with and without discrete-log tables
TEST_FIELDS = [field_create(p, a) for p, a in [
    (2, 1), (2, 2), (2, 3), (2, 4), (2, 13), (2, 16), (3, 1), (3, 2), (3, 8),
    (5, 1), (5, 2), (5, 3), (5, 8), (7, 1), (7, 2), (251, 1), (257, 1),
    (65521, 1)]]


def gen(field: Field) -> FieldElement:
    """The class of z (a root of the modulus)."""
    c = [0] * field.a
    if field.a > 1:
        c[1] = 1
    return FieldElement(field, tuple(c))


def index_of(x: FieldElement) -> int:
    """The n with x.field.from_index(n) == x."""
    n = 0
    for c in reversed(x.coeffs):
        n = n * x.field.p + c
    return n


def element_from_json(obj) -> FieldElement:
    """The inverse of FieldElement.to_json."""
    field = field_create(json_int(obj["p"]), json_int(obj["a"]))
    return json_element(field, obj["coeffs"])


def subfield_units(field: Field, q_sub: int) -> list[FieldElement]:
    """The q_sub - 1 nonzero elements of the subfield F_{q_sub} of field."""
    b = p_power_exponent(q_sub, field.p)
    if field.a % b != 0:
        raise DomainError(f"F_{q_sub} is not a subfield of F_{field.q}")
    g = field.multiplicative_generator()
    stride = (field.q - 1) // (q_sub - 1)
    h = g ** stride
    out, cur = [], field.one()
    for _ in range(q_sub - 1):
        out.append(cur)
        cur = cur * h
    return out


def order_at(filt: RamFiltration, t) -> int:
    """|I_t| for t > 0 (|I_0| is the total order)."""
    t = Fraction(t)
    if t <= 0:
        return filt.total_order
    for j, o in filt.breaks:
        if t <= j:
            return o
    return 1


def recompose(parts: list[tuple[int, LaurentPoly]], field: Field) -> LaurentPoly:
    """Inverse of p_power_decompose: sum of (r_t)^(p^t)."""
    out = LaurentPoly.zero(field)
    for t, rt in parts:
        out = out + rt.frobenius_power(t)
    return out


def standard_form_by_rescan(r: LaurentPoly, q: int) -> LaurentPoly:
    """r modulo the image of d -> d^q - d: drop the exponents >= 0, then
    trade c*x^(-q*l) for c^(1/q)*x^(-l), rescanning every exponent after each
    trade, until no exponent is divisible by q."""
    F = r.field
    b = p_power_exponent(q, F.p)
    terms = {e: c for e, c in r.terms.items() if e < 0}
    while True:
        bad = [e for e in terms if e % q == 0]
        if not bad:
            break
        e = bad[0]
        accumulate(terms, [(e // q, terms.pop(e).frobenius(-b))])
    return LaurentPoly._make(F, terms)


def subst_per_monomial(field: Field, a: VarPoly, images: dict) -> VarPoly:
    """Substitute images for variables, one monomial at a time, recomputing
    every power; every variable of a needs an image, and a negative exponent
    only a variable that maps to itself."""
    out = VarPoly.zero(field)
    for k, c in a.terms.items():
        term = VarPoly.const(field, c)
        for var, e in k:
            img = images[var]
            if e < 0:
                if img != VarPoly.var(field, var):
                    raise DomainError(
                        f"cannot substitute into a negative power of {var}")
                term = term * VarPoly.var(field, var, e)
            else:
                term = term * img ** e
        out = out + term
    return out


# ---------------------------------------------------------------------------
# Ramification filtrations, one break at a time: phi is summed from 0 for
# every point, psi and lower_to_upper call phi once per break, and each
# caller walks the break quotients itself.

def ref_phi(filt: RamFiltration, c_tilde) -> Fraction:
    if filt.numbering != LOWER:
        raise DomainError("the filtration is numbered upper, not lower")
    c = Fraction(c_tilde)
    if c < 0:
        raise DomainError("negative argument to phi")
    total = Fraction(filt.total_order)
    acc = Fraction(0)
    prev = Fraction(0)
    for j, o in filt.breaks:
        if c <= j:
            return acc + (c - prev) * o / total
        acc += (j - prev) * o / total
        prev = j
    return acc + (c - prev) / total


def ref_psi(filt: RamFiltration, c) -> Fraction:
    if filt.numbering != LOWER:
        raise DomainError("the filtration is numbered upper, not lower")
    cc = Fraction(c)
    if cc < 0:
        raise DomainError("negative argument to psi")
    total = Fraction(filt.total_order)
    acc_sigma = Fraction(0)
    acc_j = Fraction(0)
    for j, o in filt.breaks:
        sigma = ref_phi(filt, j)
        if cc <= sigma:
            return acc_j + (cc - acc_sigma) * total / o
        acc_j, acc_sigma = j, sigma
    return acc_j + (cc - acc_sigma) * total


def ref_lower_to_upper(filt: RamFiltration) -> RamFiltration:
    if filt.numbering != LOWER:
        raise DomainError("the filtration is numbered upper, not lower")
    breaks = tuple((ref_phi(filt, j), o) for j, o in filt.breaks)
    return RamFiltration(filt.total_order, filt.tame, UPPER, breaks)


def ref_upper_to_lower(filt: RamFiltration) -> RamFiltration:
    if filt.numbering != UPPER:
        raise DomainError("the filtration is numbered lower, not upper")
    total = Fraction(filt.total_order)
    breaks = []
    prev_sigma = Fraction(0)
    prev_j = Fraction(0)
    for sigma, o in filt.breaks:
        j = prev_j + (sigma - prev_sigma) * total / o
        breaks.append((j, o))
        prev_sigma, prev_j = sigma, j
    return RamFiltration(filt.total_order, filt.tame, LOWER, tuple(breaks))


def ref_quotient_exponent(o: int, o_next: int, p: int) -> int | None:
    """k with o = o_next * p^k, or None when o / o_next is no power of p."""
    if o % o_next:
        return None
    k, u = p_adic(o // o_next, p)
    return k if u == 1 else None


def ref_jumps_with_multiplicity(filt: RamFiltration) -> list[Fraction]:
    p = filt.residue_char()
    if p is None:
        return []
    first = filt.breaks[0][1] if filt.breaks else 1
    if first != filt.wild_order:
        raise DomainError(f"first break order {first} != wild part "
                          f"{filt.wild_order}")
    out = []
    orders = [o for _, o in filt.breaks] + [1]
    for (j, o), o_next in zip(filt.breaks, orders[1:]):
        mult = ref_quotient_exponent(o, o_next, p)
        if mult is None:
            raise DomainError(f"quotient at jump {j} is not a power of {p}")
        out.extend([j] * mult)
    return out


def ref_validate(filt: RamFiltration, abelian: bool = False,
                 cyclic: bool = False) -> list[str]:
    out = []
    if filt.total_order % filt.tame != 0:
        return [f"tame part {filt.tame} does not divide |I| = {filt.total_order}"]
    wild = filt.total_order // filt.tame
    try:
        p = filt.residue_char()
    except DomainError as exc:
        return [str(exc)]
    if not filt.breaks:
        if wild != 1:
            out.append("wild part is nontrivial but there are no breaks")
        return out
    if p is None:
        out.append("breaks present but the wild part is trivial")
        return out
    if filt.breaks[0][1] != wild:
        out.append(f"first break order {filt.breaks[0][1]} != wild part {wild} "
                   "(tame quotient |I_0|/|I_1| = m fails)")
    orders = [o for _, o in filt.breaks] + [1]
    for (j, o), o_next in zip(filt.breaks, orders[1:]):
        if ref_quotient_exponent(o, o_next, p) is None:
            out.append(f"quotient at jump {j} is not a positive power of {p}")
    if filt.numbering == LOWER:
        for j, _ in filt.breaks:
            if j.denominator != 1:
                out.append(f"lower jump {j} is not an integer")
            elif int(j) % p == 0:
                out.append(f"p | {j} for a lower jump")
    if abelian or cyclic:
        upper = filt if filt.numbering == UPPER else None
        if upper is None:
            try:
                upper = ref_lower_to_upper(filt)
            except DomainError as exc:
                out.append(f"cannot convert to upper numbering: {exc}")
                return out
        for sigma, _ in upper.breaks:
            if sigma.denominator != 1:
                out.append(f"abelian filtration has non-integral upper jump {sigma}")
    if cyclic:
        try:
            if len(ref_jumps_with_multiplicity(filt)) != len(filt.breaks):
                out.append("cyclic filtration has a jump of multiplicity > 1")
            upper = filt if filt.numbering == UPPER else ref_lower_to_upper(filt)
            sigmas = [j for j, _ in upper.breaks]
            out.extend(schmid_violations(p, sigmas))
        except DomainError:
            pass  # first-order and quotient problems were reported above
    return out


def ref_reduce(filt: RamFiltration, piece_sizes: list[list[int]],
               s_iotas: list[int] | None = None) -> ReducedFiltration:
    if filt.numbering != UPPER:
        raise DomainError("the filtration is numbered lower, not upper")
    # refuses a bad wild part, first order or quotient before anything else
    if not ref_jumps_with_multiplicity(filt):
        raise DomainError("nothing to reduce in a tame filtration")
    if len(piece_sizes) != len(filt.breaks):
        raise DomainError("need one piece list per break")
    p = filt.residue_char()
    orders = [o for _, o in filt.breaks] + [1]
    pieces = []
    for (sigma, o), o_next, sizes in zip(filt.breaks, orders[1:], piece_sizes):
        quot = p ** ref_quotient_exponent(o, o_next, p)
        prod = 1
        for q in sizes:
            prod *= q
        if prod != quot or not sizes:
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


def multiplicative_order(p: int, m: int) -> int:
    """The order of p in (Z/m)^*, m >= 1 and prime to p, by repeated
    multiplication: [F_p(zeta_m) : F_p]."""
    c, val = 1, p % m
    while val != 1 % m:
        val = val * p % m
        c += 1
    return c


def element_order(x: FieldElement) -> int:
    """The multiplicative order of a nonzero x: from q - 1, each prime r
    divided out and multiplied back until x^n = 1."""
    if not x:
        raise DomainError("order of zero")
    n, one = x.field.q - 1, x.field.one()
    for r in prime_factors(n):
        n = p_adic(n, r)[1]  # then the least n r^i with x^(n r^i) = 1
        y = x ** n
        while y != one:
            y, n = y ** r, n * r
    return n


# ---------------------------------------------------------------------------
# Witt vectors: the sums of Witt vector addition, by the ghost recursion.
# A polynomial over Z is a {exponent tuple: int} map in a_0 .. a_(n-1),
# b_0 .. b_(n-1), in that order.

def _zmul(f: dict, g: dict) -> dict:
    out = {}
    for k1, c1 in f.items():
        for k2, c2 in g.items():
            k = tuple(x + y for x, y in zip(k1, k2))
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def witt_sums(p: int, n: int) -> list[dict]:
    """S_0 .. S_(n-1) with (a_0, ..) + (b_0, ..) = (S_0, S_1, ..) in the Witt
    vectors of length n over F_p, coefficients reduced mod p.  The ghost
    components w_k = sum_(j<=k) p^j x_j^(p^(k-j)) are additive (Serre, Local
    Fields, II 6), so over Z
        p^k S_k = sum_(j<=k) p^j (a_j^(p^(k-j)) + b_j^(p^(k-j)))
                  - sum_(j<k) p^j S_j^(p^(k-j)),
    and the division by p^k is exact."""
    def var(i):
        return {tuple(int(j == i) for j in range(2 * n)): 1}

    sums = []
    for k in range(n):
        acc = {}
        for j in range(k + 1):
            for x in (var(j), var(n + j)):
                accumulate(acc, ((m, p ** j * c) for m, c in
                                 power(x, p ** (k - j), _zmul).items()))
        for j, s in enumerate(sums):
            accumulate(acc, ((m, -p ** j * c) for m, c in
                             power(s, p ** (k - j), _zmul).items()))
        if any(c % p ** k for c in acc.values()):
            raise ArithmeticError(f"S_{k} is not integral")
        sums.append({m: c // p ** k for m, c in acc.items()})
    return [{m: c % p for m, c in s.items() if c % p} for s in sums]


def witt_eval(field: Field, s: dict, a: list, b: list) -> VarPoly:
    """The polynomial s of witt_sums at a_i = a[i] and b_i = b[i], VarPolys
    over field."""
    out = VarPoly.zero(field)
    for m, c in s.items():
        term = VarPoly.const(field, field.element(c))
        for x, e in zip(a + b, m):
            if e:
                term = term * x ** e
        out = out + term
    return out
