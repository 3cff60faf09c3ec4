"""Refusals of the library called directly, each pinned by its exact
message.  Most sit behind the CLI's own checks, where no document reaches
them."""

from fractions import Fraction

import pytest

from ramify import (ASCover, DomainError, RamFiltration, ReducedFiltration,
                    TruncatedSeries, evaluate_quaternion_fiber, field_create,
                    genus_rh, is_isomorphic, last_piece_s_iota, modify_cover,
                    n_count, p_rank_ds, quaternion_tower, reduce,
                    root_of_unity, s_iota)
from ramify.laurent import LaurentPoly
from ramify.ramfilt import LOWER, UPPER
from ramify.series import compose
from ramify.tower import VarPoly

F2, F3, F4, F16 = (field_create(2, 1), field_create(3, 1), field_create(2, 2),
                   field_create(2, 4))


def pole(field):
    return LaurentPoly(field, {-1: field.one()})


def series(field, terms, prec=8):
    return TruncatedSeries(field, {e: field.one() for e in terms}, prec)


def filtration(numbering, *breaks, total=2):
    return RamFiltration(total, 1, numbering, breaks)


REFUSALS = [
    # ascover
    ("z-outside-the-coefficient-field",
     lambda: ASCover(4, pole(F4), 3, F16.from_index(2)),
     "z must live in the coefficient field"),
    ("isomorphic-covers-of-different-degree",
     lambda: is_isomorphic(ASCover(2, pole(F4)), ASCover(4, pole(F4))),
     "covers of different degree"),
    ("isomorphic-covers-over-different-fields",
     lambda: is_isomorphic(ASCover(2, pole(F2)), ASCover(2, pole(F4))),
     "covers over different coefficient fields"),
    ("s-iota-tame-degree-divisible-by-p",
     lambda: s_iota(4, 2, F4.from_index(2)),
     "tame degree 2 must be positive and prime to 2"),
    ("s-iota-of-zero", lambda: s_iota(4, 3, F4.zero()), "z must be a unit"),
    ("deformation-over-another-field",
     lambda: modify_cover(2, pole(F2), pole(F4), 1, Fraction(1)),
     "deformation term over a different field"),
    # ramfilt
    ("unknown-numbering", lambda: filtration("middle"),
     "numbering must be 'lower' or 'upper'"),
    ("break-order-below-2",
     lambda: RamFiltration(2, 1, LOWER, ((Fraction(1), 1),)),
     "break orders must be at least 2"),
    ("break-orders-increase",
     lambda: filtration(LOWER, (1, 2), (2, 4), total=8),
     "break orders must strictly decrease"),
    ("reduced-tame-part-zero", lambda: ReducedFiltration(0, ()),
     "tame part must be positive"),
    ("reduced-without-pieces", lambda: ReducedFiltration(1, ()),
     "a reduced filtration needs at least one piece"),
    ("reduced-jump-zero", lambda: ReducedFiltration(1, ((2, 0, 1),)),
     "jumps must be positive"),
    ("reduce-a-lower-filtration",
     lambda: reduce(filtration(LOWER, (1, 2)), [[2]]),
     "reduce expects an upper-numbered filtration"),
    ("last-piece-of-an-upper-filtration",
     lambda: last_piece_s_iota(filtration(UPPER, (1, 2)), 2),
     "expects a lower-numbered filtration"),
    ("last-piece-of-a-tame-filtration",
     lambda: last_piece_s_iota(filtration(LOWER, total=1), 2),
     "no wild breaks"),
    ("last-piece-at-a-fractional-jump",
     lambda: last_piece_s_iota(filtration(LOWER, (Fraction(1, 2), 2)), 2),
     "last lower jump is not an integer"),
    ("last-piece-jump-not-divisible-by-the-quotient",
     lambda: last_piece_s_iota(filtration(LOWER, (3, 4), total=4), 2),
     "last jump is not divisible by the quotient order"),
    # moduli
    ("n-count-prime-not-a-prime-power", lambda: n_count(4, 1, 1, 3, p=6),
     "6 is not a prime power"),
    # tower
    ("eval-of-an-unknown-variable",
     lambda: VarPoly.var(F2, "w").eval({"x": series(F2, [1])}, 8),
     "unknown variable w"),
    ("genus-of-an-upper-filtration",
     lambda: genus_rh(2, filtration(UPPER, (1, 2))),
     "genus needs the lower-numbered filtration"),
    ("genus-at-a-fractional-jump",
     lambda: genus_rh(2, filtration(LOWER, (Fraction(1, 2), 2))),
     "lower jumps must be integers"),
    ("p-rank-of-group-order-zero", lambda: p_rank_ds(0, 0, []),
     "group order must be positive"),
    ("quaternion-tower-in-characteristic-3", lambda: quaternion_tower(F3),
     "the quaternion family lives in characteristic 2"),
    ("fiber-in-characteristic-3",
     lambda: evaluate_quaternion_fiber(F3.one(), F3.one(), F3.one()),
     "characteristic 2 required"),
    ("fiber-parameters-from-different-fields",
     lambda: evaluate_quaternion_fiber(F4.one(), F16.one(), F4.one()),
     "parameters from different fields"),
    ("fiber-in-characteristic-3-from-different-fields",
     lambda: evaluate_quaternion_fiber(F3.one(), field_create(3, 2).one(),
                                       F3.one()),
     "parameters from different fields"),
    # laurent
    ("laurent-sum-over-different-fields",
     lambda: LaurentPoly(F2, {1: 1}) + LaurentPoly(F4, {1: 1}),
     "polynomials over different fields"),
    ("min-exponent-of-zero", lambda: LaurentPoly.zero(F2).min_exponent(),
     "zero Laurent polynomial has no exponents"),
    # series
    ("series-sum-over-different-fields",
     lambda: series(F2, [0]) + series(F4, [0]),
     "series over different fields"),
    ("series-scaled-by-another-fields-element",
     lambda: series(F2, [0]).scale(F4.one()),
     "elements of different fields"),
    ("compose-with-a-unit",
     lambda: compose(series(F2, [1]), series(F2, [0, 1])),
     "composition needs a substitution of valuation >= 1"),
    # gf
    ("element-of-another-field", lambda: F2.element(F4.one()),
     "element belongs to a different field"),
    ("sqrt-in-characteristic-3", lambda: F3.one().sqrt(),
     "sqrt is only provided in characteristic 2"),
    ("root-of-unity-of-order-zero", lambda: root_of_unity(F4, 0),
     "m must be positive"),
]


@pytest.mark.parametrize("call,message", [r[1:] for r in REFUSALS],
                         ids=[r[0] for r in REFUSALS])
def test_every_library_refusal_names_its_cause(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message
