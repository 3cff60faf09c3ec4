"""Small helpers that only the tests use: the generator z of a field, an
element's index, elements read from their JSON form, the units of a
subfield, |I_t| of a filtration, and the per-monomial substitution that
tower.vp_subst replaced."""

from __future__ import annotations

from fractions import Fraction

from ramify.errors import DomainError, json_int
from ramify.gf import (Field, FieldElement, field_create, json_element,
                       p_power_exponent)
from ramify.ramfilt import RamFiltration
from ramify.tower import vp_add, vp_const, vp_mul, vp_pow, vp_var


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


def subst_per_monomial(field: Field, a: dict, images: dict) -> dict:
    """Substitute images for variables, one monomial at a time, recomputing
    every power; every variable of a needs an image, and a negative exponent
    only a variable that maps to itself."""
    out = {}
    for k, c in a.items():
        term = vp_const(field, c)
        for var, e in k:
            img = images[var]
            if e < 0:
                if img != vp_var(field, var):
                    raise DomainError(
                        f"cannot substitute into a negative power of {var}")
                term = vp_mul(term, {((var, e),): field.one()})
            else:
                term = vp_mul(term, vp_pow(field, img, e))
        out = vp_add(out, term)
    return out
