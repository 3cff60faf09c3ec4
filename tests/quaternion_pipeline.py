"""Reference normalization pipeline for one fiber of the quaternion family.

This is the Laurent-polynomial computation that ramify.tower's
evaluate_quaternion_fiber ran before it read its report off the closed form:
the top equation y^2 - y = w^3 + a3/x is rewritten in the uniformizer w1 of
the normalized middle step, reduced to standard form, and its prime-to-p
degree is the top jump.  Tests compare the closed form against it.
"""

from __future__ import annotations

from ramify.ascover import standard_form_poly
from ramify.laurent import LaurentPoly, prime_to_p_degree


def fiber(a1, a2, a3):
    """(stage, top_jump, (lead5, lead3)) of one fiber.

    stage is "V" or "W" for a fiber disconnected at that step (top_jump and
    the leading coefficients are then None) and None for a connected one.
    """
    field = a1.field
    one = field.one()
    if a1 == one:
        return "V", None, None
    ratio = a2 / (a1 + one)
    c1 = ratio.sqrt()
    c2 = one + c1 + c1 * c1
    if not c2:
        assert ratio * ratio + ratio + one == field.zero()
        return "W", None, None
    c3 = c1 / c2
    c4 = one + c3
    # germ coordinate at the ramified point: pole order k of w1^k is exponent -k
    w_of_w1 = LaurentPoly(field, {-2: c3, -1: c4})
    v_of_w1 = LaurentPoly(field, {-2: c2.inverse(), -1: c2.inverse()})
    u_of_w1 = (v_of_w1 * v_of_w1 + v_of_w1).scale((one + a1).inverse())
    rhs = w_of_w1 ** 3 + u_of_w1.scale(a3)
    sf = standard_form_poly(rhs, 2)
    return None, prime_to_p_degree(sf), (sf.coeff(-5), sf.coeff(-3))
