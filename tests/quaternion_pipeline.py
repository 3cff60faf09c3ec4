"""Reference normalization pipeline for one fiber of the quaternion family.

This is the Laurent-polynomial computation that ramify.tower's
evaluate_quaternion_fiber ran before it read its report off the closed form:
the top equation y^2 - y = w^3 + a3/x is rewritten in the uniformizer w1 of
the normalized middle step, reduced to standard form, and its prime-to-p
degree is the top jump.  Tests compare the closed form against it.

It also keeps the fiber-by-fiber forms of what `quaternion-demo` shares: the
rows with one evaluation per fiber, and the family check with one fiber and
two standard forms per (a1, a3).
"""

from __future__ import annotations

from ramify import ascover
from ramify.ascover import standard_form_poly
from ramify.laurent import LaurentPoly, prime_to_p_degree
from ramify.ramfilt import jumps_with_multiplicity
from ramify.tower import evaluate_quaternion_fiber, oracle_run, quaternion_tower


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


def oracle_jumps(field, a1=None, a2=None, a3=None, precision: int = 200):
    """Oracle jumps of one quaternion fiber (with multiplicity)."""
    tower, gens = quaternion_tower(field, a1, a2, a3)
    filt = oracle_run(tower, gens, precision).filtration
    return [int(j) for j in jumps_with_multiplicity(filt)]


def demo_rows(field, sweep: bool) -> list:
    """quaternion-demo's rows, one fiber evaluation each."""
    elements = list(field.elements())
    a3s = elements if sweep else elements[:1]
    return [evaluate_quaternion_fiber(a1, a2, a3).to_json()
            for a1 in elements for a2 in elements for a3 in a3s]


def family_check(field) -> dict:
    """quaternion-demo's a2 = 0 family check, fiber by fiber: every fiber
    evaluated, and the pair of standard forms of its v-cover and top-step
    modifier taken as its key."""
    one = field.one()
    zero = field.zero()
    reps = []
    keys = set()
    for a1 in field.elements():
        if a1 == one:
            continue  # disconnected column, not a deformation of the base fiber
        for a3 in field.elements():
            reps.append(evaluate_quaternion_fiber(a1, zero, a3))
            v_cover = ascover.ASCover(2, LaurentPoly(field, {-1: one + a1}))
            top_modifier = ascover.ASCover(2, LaurentPoly(field, {-1: a3}))
            keys.add((ascover.standard_form(v_cover),
                      ascover.standard_form(top_modifier)))
    all_jumps = all(rep.connected and rep.jumps == (1, 1, 3) for rep in reps)
    return {"size": len(reps), "all_jumps_1_1_3": all_jumps,
            "pairwise_distinct": len(keys) == len(reps)}
