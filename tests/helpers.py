"""Small helpers that only the tests use: the generator z of a field, an
element's index, elements read from their JSON form, and |I_t| of a
filtration."""

from __future__ import annotations

from fractions import Fraction

from ramify.errors import json_int
from ramify.gf import Field, FieldElement, field_create, json_element
from ramify.ramfilt import RamFiltration


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


def order_at(filt: RamFiltration, t) -> int:
    """|I_t| for t > 0 (|I_0| is the total order)."""
    t = Fraction(t)
    if t <= 0:
        return filt.total_order
    for j, o in filt.breaks:
        if t <= j:
            return o
    return 1
