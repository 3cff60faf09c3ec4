"""Refusals of the library called directly, each pinned by its exact
message.  Most sit behind the CLI's own checks, where no document reaches
them.  The record types are frozen, and _replace refuses what their
constructors refuse."""

from fractions import Fraction

import pytest

from ramify import (ASCover, DimensionReport, DomainError, RamFiltration,
                    ReducedFiltration, TowerSpec, TruncatedSeries, dim_ordinary,
                    evaluate_quaternion_fiber, field_create, genus_rh,
                    herbrand_phi, herbrand_psi, is_isomorphic,
                    last_piece_s_iota, lower_to_upper, modify_cover, n_count,
                    oracle_run, p_rank_ds, quaternion_tower, reduce,
                    root_of_unity, s_iota, upper_to_lower)
from ramify.laurent import LaurentPoly
from ramify.ramfilt import LOWER, UPPER
from ramify.series import compose
from ramify.tower import GeneratorAction, TowerStep, VarPoly, _StepChart

F2, F3, F4, F9, F16 = (field_create(2, 1), field_create(3, 1),
                       field_create(2, 2), field_create(3, 2),
                       field_create(2, 4))


def pole(field):
    return LaurentPoly(field, {-1: field.one()})


def series(field, terms, prec=8):
    return TruncatedSeries(field, {e: field.one() for e in terms}, prec)


def filtration(numbering, *breaks, total=2):
    return RamFiltration(total, 1, numbering, breaks)


REFUSALS = [
    # ascover
    ("replace-m-without-z", lambda: ASCover(2, pole(F4))._replace(m=3),
     "m > 1 requires the action scalar z"),
    ("z-outside-the-coefficient-field",
     lambda: ASCover(4, pole(F4), 3, F16.from_index(2)),
     "different fields: F_4 and F_16"),
    ("isomorphic-covers-of-different-degree",
     lambda: is_isomorphic(ASCover(2, pole(F4)), ASCover(4, pole(F4))),
     "covers of different degree"),
    ("isomorphic-covers-over-different-fields",
     lambda: is_isomorphic(ASCover(2, pole(F2)), ASCover(2, pole(F4))),
     "different fields: F_2 and F_4"),
    ("s-iota-tame-degree-divisible-by-p",
     lambda: s_iota(4, 2, F4.from_index(2)),
     "tame degree 2 must be positive and prime to 2"),
    ("s-iota-of-zero", lambda: s_iota(4, 3, F4.zero()), "z must be a unit"),
    ("deformation-over-another-field",
     lambda: modify_cover(2, pole(F2), pole(F4), 1, Fraction(1)),
     "different fields: F_2 and F_4"),
    # ramfilt
    ("unknown-numbering", lambda: filtration("middle"),
     "numbering must be 'lower' or 'upper'"),
    ("replace-unknown-numbering",
     lambda: filtration(LOWER)._replace(numbering="middle"),
     "numbering must be 'lower' or 'upper'"),
    ("break-order-below-2",
     lambda: RamFiltration(2, 1, LOWER, ((Fraction(1), 1),)),
     "break orders must be at least 2"),
    ("break-orders-increase",
     lambda: filtration(LOWER, (1, 2), (2, 4), total=8),
     "break orders must strictly decrease"),
    ("reduced-tame-part-zero", lambda: ReducedFiltration(0, ()),
     "tame part must be positive"),
    ("replace-reduced-tame-part-zero",
     lambda: ReducedFiltration(1, ((2, 1, 1),))._replace(tame=0),
     "tame part must be positive"),
    ("reduced-without-pieces", lambda: ReducedFiltration(1, ()),
     "a reduced filtration needs at least one piece"),
    ("reduced-jump-zero", lambda: ReducedFiltration(1, ((2, 0, 1),)),
     "jumps must be positive"),
    ("reduce-a-lower-filtration",
     lambda: reduce(filtration(LOWER, (1, 2)), [[2]]),
     "the filtration is numbered lower, not upper"),
    ("last-piece-of-an-upper-filtration",
     lambda: last_piece_s_iota(filtration(UPPER, (1, 2)), 2),
     "the filtration is numbered upper, not lower"),
    ("last-piece-of-a-tame-filtration",
     lambda: last_piece_s_iota(filtration(LOWER, total=1), 2),
     "no wild breaks"),
    ("last-piece-at-a-fractional-jump",
     lambda: last_piece_s_iota(filtration(LOWER, (Fraction(1, 2), 2)), 2),
     "last lower jump is not an integer"),
    ("last-piece-jump-not-divisible-by-the-quotient",
     lambda: last_piece_s_iota(filtration(LOWER, (3, 4), total=4), 2),
     "last jump is not divisible by the quotient order"),
    # a piece order that is not at least 2 and a divisor of the last break
    # order 4 (0 and 8 once divided by zero, and 3 answered 2), and two
    # filtrations that once divided by zero
    *[(f"last-piece-of-order-{q}",
       lambda q=q: last_piece_s_iota(RamFiltration(12, 3, LOWER, ((5, 4),)), q),
       f"last piece order {q} must be at least 2 and divide the last break "
       f"order 4") for q in (0, 3, 8)],
    ("last-piece-of-a-break-order-past-the-wild-part",
     lambda: last_piece_s_iota(RamFiltration(2, 1, LOWER, ((1, 4),)), 4),
     "first break order 4 != wild part 2"),
    ("last-piece-of-a-tame-filtration-with-a-break",
     lambda: last_piece_s_iota(RamFiltration(1, 1, LOWER, ((1, 2),)), 2),
     "no wild breaks"),
    ("phi-of-an-upper-filtration",
     lambda: herbrand_phi(filtration(UPPER, (1, 2)), 1),
     "the filtration is numbered upper, not lower"),
    ("psi-of-an-upper-filtration",
     lambda: herbrand_psi(filtration(UPPER, (1, 2)), 1),
     "the filtration is numbered upper, not lower"),
    ("lower-to-upper-of-an-upper-filtration",
     lambda: lower_to_upper(filtration(UPPER, (1, 2))),
     "the filtration is numbered upper, not lower"),
    ("upper-to-lower-of-a-lower-filtration",
     lambda: upper_to_lower(filtration(LOWER, (1, 2))),
     "the filtration is numbered lower, not upper"),
    ("reduced-s-iota-past-m", lambda: ReducedFiltration(2, ((2, 1, 3),)),
     "s_iota = 3 outside [1, 2]"),
    # moduli
    ("n-count-prime-not-a-prime-power", lambda: n_count(4, 1, 1, 3, p=6),
     "6 is not a prime power"),
    ("n-count-walk-past-the-cap", lambda: n_count(2, 1, 1, 10 ** 9),
     "the counts would walk past 500000 integers"),
    ("n-count-s-iota-zero", lambda: n_count(4, 3, 0, 1),
     "s_iota = 0 outside [1, 3]"),
    ("dim-ordinary-tame-degree-divisible-by-p", lambda: dim_ordinary(2, 2, 6),
     "tame degree 6 must be positive and prime to 2"),
    # tower
    ("replace-tower-tame-degree-divisible-by-p",
     lambda: TowerSpec(F2, 1, ())._replace(m=2),
     "tame degree 2 must be positive and prime to 2"),
    ("eval-of-an-unknown-variable",
     lambda: VarPoly.var(F2, "w").eval({"x": series(F2, [1])}, 8),
     "unknown variable w"),
    ("var-poly-constant-of-another-field",
     lambda: VarPoly.const(F2, F4.from_index(3)),
     "different fields: F_2 and F_4"),
    ("genus-of-an-upper-filtration",
     lambda: genus_rh(2, filtration(UPPER, (1, 2))),
     "the filtration is numbered upper, not lower"),
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
     "different fields: F_4 and F_16"),
    ("fiber-in-characteristic-3-from-different-fields",
     lambda: evaluate_quaternion_fiber(F3.one(), F9.one(), F3.one()),
     "different fields: F_3 and F_9"),
    # laurent
    ("laurent-sum-over-different-fields",
     lambda: LaurentPoly(F2, {1: 1}) + LaurentPoly(F4, {1: 1}),
     "different fields: F_2 and F_4"),
    ("min-exponent-of-zero", lambda: LaurentPoly.zero(F2).min_exponent(),
     "zero Laurent polynomial has no exponents"),
    # series
    ("series-sum-over-different-fields",
     lambda: series(F2, [0]) + series(F4, [0]),
     "different fields: F_2 and F_4"),
    ("series-scaled-by-another-fields-element",
     lambda: series(F2, [0]).scale(F4.one()),
     "different fields: F_2 and F_4"),
    ("compose-with-a-unit",
     lambda: compose(series(F2, [1]), series(F2, [0, 1])),
     "composition needs a substitution of valuation >= 1"),
    # each of these answered a wrong series, or raised KeyError
    ("series-of-another-fields-elements",
     lambda: TruncatedSeries(F2, {0: F4.from_index(3), 1: F4.one()}, 8),
     "different fields: F_2 and F_4"),
    ("series-monomial-of-another-fields-element",
     lambda: TruncatedSeries.monomial(F3, 0, 8, F9.from_index(4)),
     "different fields: F_3 and F_9"),
    ("series-monomial-of-a-larger-fields-element",
     lambda: TruncatedSeries.monomial(F4, 0, 8, F16.from_index(5)),
     "different fields: F_4 and F_16"),
    # gf
    ("element-of-another-field", lambda: F2.element(F4.one()),
     "different fields: F_2 and F_4"),
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


def var(field, name="x", exp=1):
    return VarPoly.var(field, name, exp)


def one_step_tower(field):
    return TowerSpec(field, 1, (TowerStep("v", var(field, "x", -1)),))


# every public operation or constructor that takes operands over two fields,
# with the two fields its refusal names, in that order
MIXED_FIELDS = [
    ("element-sum", lambda: F2.one() + F4.one(), F2, F4),
    ("element-difference", lambda: F4.one() - F2.one(), F4, F2),
    ("element-product", lambda: F2.one() * F4.one(), F2, F4),
    ("element-quotient", lambda: F2.one() / F4.one(), F2, F4),
    ("field-element", lambda: F16.element(F4.one()), F16, F4),
    ("laurent-sum", lambda: pole(F2) + pole(F4), F2, F4),
    ("laurent-difference", lambda: pole(F2) - pole(F4), F2, F4),
    ("laurent-product", lambda: pole(F2) * pole(F4), F2, F4),
    ("laurent-scale", lambda: pole(F2).scale(F4.one()), F2, F4),
    ("laurent-from-terms", lambda: LaurentPoly(F2, {-1: F4.one()}), F2, F4),
    ("laurent-monomial", lambda: LaurentPoly.monomial(F2, -1, F4.one()), F2, F4),
    ("var-poly-sum", lambda: var(F2) + var(F4), F2, F4),
    ("var-poly-product", lambda: var(F2) * var(F4), F2, F4),
    ("var-poly-scale", lambda: var(F2).scale(F4.one()), F2, F4),
    ("var-poly-from-terms", lambda: VarPoly(F2, {(): F4.one()}), F2, F4),
    ("var-poly-constant", lambda: VarPoly.const(F2, F4.one()), F2, F4),
    ("var-poly-subst", lambda: var(F2, "v").subst({"v": var(F4)}), F2, F4),
    # the monomial is scaled by its coefficient, as a series of the env's field
    ("var-poly-eval", lambda: var(F2).eval({"x": series(F4, [1])}, 8), F4, F2),
    ("tower-step", lambda: TowerSpec(F2, 1, one_step_tower(F4).steps), F2, F4),
    ("generator-shift",
     lambda: GeneratorAction(one_step_tower(F2), {"v": VarPoly.const(F4, F4.one())}),
     F2, F4),
    ("series-sum", lambda: series(F2, [0]) + series(F4, [0]), F2, F4),
    ("series-difference", lambda: series(F2, [0]) - series(F4, [0]), F2, F4),
    ("series-product", lambda: series(F2, [0]) * series(F4, [0]), F2, F4),
    ("series-scale", lambda: series(F2, [0]).scale(F4.one()), F2, F4),
    ("series-from-terms", lambda: TruncatedSeries(F2, {0: F4.one()}, 8),
     F2, F4),
    ("series-monomial", lambda: TruncatedSeries.monomial(F2, 0, 8, F4.one()),
     F2, F4),
    ("series-compose", lambda: compose(series(F2, [0]), series(F4, [1])),
     F2, F4),
    ("series-keep-inverse",
     lambda: series(F2, [0]).keep_inverse(series(F4, [0])), F2, F4),
    ("cover-action-scalar", lambda: ASCover(4, pole(F4), 3, F16.one()),
     F4, F16),
    ("cover-isomorphism",
     lambda: is_isomorphic(ASCover(2, pole(F2)), ASCover(2, pole(F4))), F2, F4),
    ("cover-deformation",
     lambda: modify_cover(2, pole(F2), pole(F4), 1, Fraction(1)), F2, F4),
    ("fiber-second-parameter",
     lambda: evaluate_quaternion_fiber(F4.one(), F16.one(), F4.one()),
     F4, F16),
    ("fiber-third-parameter",
     lambda: evaluate_quaternion_fiber(F4.one(), F4.one(), F16.one()),
     F4, F16),
]


@pytest.mark.parametrize("call,a,b", [r[1:] for r in MIXED_FIELDS],
                         ids=[r[0] for r in MIXED_FIELDS])
def test_every_mixed_field_operation_is_refused_by_one_rule(call, a, b):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == f"different fields: {a!r} and {b!r}"


def test_n_count_walks_up_to_its_cap():
    # (q/p) m sigma = 2 * 250000 = 500,000 integers, exactly the cap; one
    # more integer is refused like the walk of 10^9 above
    assert n_count(4, 1, 1, 250000) == 250000
    with pytest.raises(DomainError, match="walk past 500000 integers"):
        n_count(4, 1, 1, Fraction(500001, 2))


# one instance of each record type
RECORDS = {
    "ASCover": lambda: ASCover(2, pole(F2)),
    "DimensionReport": lambda: DimensionReport((1, 2), "abelian"),
    "RamFiltration": lambda: filtration(LOWER, (1, 2)),
    "ReducedFiltration": lambda: ReducedFiltration(3, ((4, Fraction(1, 3), 2),)),
    "TowerStep": lambda: quaternion_tower(F4)[0].steps[0],
    "TowerSpec": lambda: quaternion_tower(F4)[0],
    "_StepChart": lambda: _StepChart("v", 1, 1, 0, ()),
    "OracleRun": lambda: oracle_run(TowerSpec(F2, 1, ()), []),
    "FiberReport": lambda: evaluate_quaternion_fiber(*[F4.zero()] * 3),
}


@pytest.mark.parametrize("build", RECORDS.values(), ids=RECORDS)
def test_records_are_frozen_tuples_of_their_fields(build):
    record = build()
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    with pytest.raises(AttributeError):
        record.p = 2  # nor does any other name take a value
    copy = record._replace()
    assert type(copy) is type(record) and copy == record == tuple(record)


def test_replace_finds_the_prime_of_a_reduced_filtration():
    reduced = ReducedFiltration(1, ((2, 1, 1),))._replace(pieces=((9, 2, 1),))
    assert reduced.p == 3
