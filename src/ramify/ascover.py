"""Covers given by v^q - v = r(x) over the germ at x = 0.

The datum is the p-power degree q, a Laurent polynomial r over a coefficient
field containing F_q, the tame degree m of the base step (p not dividing m),
and for m > 1 the scalar z in F_q^* by which the order-m generator conjugates
the translation group.  Pole exponents are stored as negative powers of x;
accordingly the equivariance congruence and the conductor congruence are both
stated on pole orders (the exponent of x^(-1)).

Standard-form reduction absorbs the image of d -> d^q - d: nonnegative
exponents vanish into it, and a term c*x^(-q*l) is traded for its q-th root
at x^(-l).  Over a finite (hence perfect) coefficient field the q-th root is
already available, which is how the finite inseparable base changes of the
theory are modelled without ever enlarging the ring.  The trades compose in
closed form, c*x^e -> c^(q^-t) x^e0 for e = q^t e0 with q not dividing e0:
the q-th root is additive, so terms meeting at a q-divisible exponent have
the sum of their roots as the root of their sum, and one pass is exact.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import DomainError, json_int, reading
from .gf import (FieldElement, check_tame, degree_over_prime, field_create,
                 json_element, p_adic, p_power_exponent)
from .laurent import LaurentPoly, accumulate, prime_to_p_degree


class ASCover(namedtuple("ASCover", "q r m z", defaults=(1, None))):
    """v^q - v = r(x), with optional tame action scalar z (present iff m > 1):
    q an int, r a LaurentPoly, m an int and z a FieldElement or None."""

    __slots__ = ()

    def __new__(cls, q, r, m=1, z=None):
        F = r.field
        b = p_power_exponent(q, F.p)  # q a power of char(F)
        if F.a % b != 0:
            raise DomainError(f"F_{q} does not embed in the coefficient field F_{F.q}")
        check_tame(m, F.p)
        if m == 1:
            if z is not None:
                raise DomainError("z is only part of the datum when m > 1")
        else:
            if z is None:
                raise DomainError("m > 1 requires the action scalar z")
            if z.field != F:
                raise DomainError("z must live in the coefficient field")
            if not z or z ** q != z:
                raise DomainError("z must lie in F_q^*")
            if degree_over_prime(z) != b:
                raise DomainError("action not irreducible: [F_p(z):F_p] != a")
        return super().__new__(cls, q, r, m, z)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # _replace builds through _make: checked too

    @property
    def field(self):
        return self.r.field


def standard_form_poly(r: LaurentPoly, q: int) -> LaurentPoly:
    """Reduce r modulo the image of d -> d^q - d to its standard form, in
    one pass: drop the terms with exponent >= 0 and send c*x^e, e = q^t e0
    with q not dividing e0, to c^(q^-t) x^e0 (exact since the q-th root is
    additive; see the module docstring).  The result may be zero (the cover
    is then disconnected/trivial).
    """
    F = r.field
    b = p_power_exponent(q, F.p)
    split = ((p_adic(e, q), c) for e, c in r.terms.items() if e < 0)
    return LaurentPoly._make(F, accumulate(
        {}, ((e0, c.frobenius(-b * t)) for (t, e0), c in split)))


def standard_form(cover: ASCover) -> LaurentPoly:
    return standard_form_poly(cover.r, cover.q)


def conductor(cover: ASCover) -> int:
    """The unique break of the cover: prime-to-p degree of the standard form.

    Raises DomainError on a zero standard form (disconnected cover).
    """
    sf = standard_form(cover)
    if not sf:
        raise DomainError("disconnected cover, conductor undefined")
    return prime_to_p_degree(sf)


def is_isomorphic(c1: ASCover, c2: ASCover) -> tuple[bool, FieldElement | None]:
    """Isomorphism test: standard forms agree up to a scalar in F_q^*.

    The witness scalar is returned when the covers are isomorphic.  The
    additive d^q - d ambiguity is absorbed by standard-form reduction, and a
    scalar zeta with zeta s1 = s2 is fixed by the lowest exponent of s1:
    zeta is the ratio of the two coefficients there, the one candidate.
    """
    if c1.q != c2.q:
        raise DomainError("covers of different degree")
    if c1.field != c2.field:
        raise DomainError("covers over different coefficient fields")
    s1 = standard_form(c1)
    s2 = standard_form(c2)
    if not s1 and not s2:
        return True, c1.field.one()
    if not s1 or not s2:
        return False, None
    e = s1.min_exponent()
    c = s2.terms.get(e)
    zeta = c / s1.terms[e] if c else None
    if zeta and zeta ** c1.q == zeta and s1.scale(zeta) == s2:
        return True, zeta
    return False, None


def s_iota(q: int, m: int, z: FieldElement) -> int:
    """The unique s in [1, m] with zeta_m^s = z, for the canonical zeta_m.

    Verifies that z generates F_q over F_p (irreducibility of the action).
    """
    from .gf import root_of_unity

    F = z.field
    check_tame(m, F.p)
    b = p_power_exponent(q, F.p)
    if not z:
        raise DomainError("z must be a unit")
    zeta = root_of_unity(F, m)
    s = None
    power = zeta
    for k in range(1, m + 1):
        if power == z:
            s = k
            break
        power = power * zeta
    if s is None:
        raise DomainError("ord(z) does not divide m")
    if degree_over_prime(z) != b:
        raise DomainError("action not irreducible: [F_p(z):F_p] != a")
    return s


def check_equivariance(cover: ASCover, s_iota_value: int, strict: bool = True) -> bool:
    """True iff every pole order of r is congruent to s_iota mod m.

    With strict=True, also checks that standard-form reduction preserved the
    congruence class (true for any consistent (q, m, s_iota) datum) and raises
    DomainError when it did not.
    """
    m = cover.m
    ok = all((-e - s_iota_value) % m == 0 for e in cover.r.terms)
    if strict and ok:
        sf = standard_form(cover)
        if any((-e - s_iota_value) % m != 0 for e in sf.terms):
            raise DomainError(
                "standard-form reduction broke the exponent congruence; "
                "the (q, m, s_iota) datum is inconsistent")
    return ok


def is_connected(cover: ASCover) -> bool:
    """Connectedness for degree-p covers: the standard form is nonzero."""
    if cover.q != cover.field.p:
        raise DomainError("connectedness is only decided for q = p")
    return bool(standard_form(cover))


def modify_cover(q: int, r_phi: LaurentPoly, r_alpha: LaurentPoly, m: int,
                 sigma: Fraction) -> tuple[LaurentPoly, bool]:
    """Deform the cover equation by r_alpha and test the conductor bound.

    Returns (r_phi + r_alpha, flag) where the flag reports whether the
    degree-q cover cut out by r_alpha alone has conductor at most m*sigma,
    the criterion for the deformation to be equiramified.  A trivializable
    r_alpha (zero standard form) deforms nothing and passes vacuously.
    """
    if r_alpha.field != r_phi.field:
        raise DomainError("deformation term over a different field")
    sf = standard_form_poly(r_alpha, q)
    if not sf:
        return r_phi + r_alpha, True
    cond = prime_to_p_degree(sf)
    return r_phi + r_alpha, Fraction(cond) <= Fraction(m) * Fraction(sigma)


def cover_from_json(obj) -> ASCover:
    with reading("malformed cover document: "):
        field = field_create(json_int(obj["field"]["p"]),
                             json_int(obj["field"]["a"]))
        r = LaurentPoly.from_json(field, obj["r"])
        z = obj.get("z")
        zel = json_element(field, z) if z is not None else None
        return ASCover(q=json_int(obj["q"]), r=r, m=json_int(obj.get("m", 1)),
                       z=zel)
