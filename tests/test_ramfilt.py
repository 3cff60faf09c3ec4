"""Herbrand functions, numbering conversion, validation and reduction."""

import random
import re
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramify import (DomainError, RamFiltration, ReducedFiltration,
                    herbrand_phi, herbrand_psi, jumps_with_multiplicity,
                    last_piece_s_iota, lower_to_upper, reduce, upper_to_lower,
                    validate)

from helpers import (order_at, ref_jumps_with_multiplicity,
                     ref_lower_to_upper, ref_phi, ref_psi, ref_reduce,
                     ref_upper_to_lower, ref_validate)

# the order-8 germ: |I_0| = |I_1| = 8, |I_2| = |I_3| = 2, |I_4| = 1
D8_LOWER = RamFiltration(8, 1, "lower", ((1, 8), (3, 2)))


def test_order_at():
    assert order_at(D8_LOWER, Fraction(1, 2)) == 8
    assert order_at(D8_LOWER, 1) == 8
    assert order_at(D8_LOWER, 2) == 2
    assert order_at(D8_LOWER, 3) == 2
    assert order_at(D8_LOWER, 4) == 1


def test_phi_identity_below_first_break():
    assert herbrand_phi(D8_LOWER, Fraction(1, 2)) == Fraction(1, 2)
    assert herbrand_phi(D8_LOWER, 1) == 1


def test_phi_d8_value():
    assert herbrand_phi(D8_LOWER, 3) == Fraction(3, 2)


def test_phi_single_break_tame():
    # one break at s with group q over a tame part m: phi(s) = s/m
    for m, q, s in [(3, 4, 7), (5, 2, 11), (1, 8, 3)]:
        filt = RamFiltration(q * m, m, "lower", ((s, q),))
        assert herbrand_phi(filt, s) == Fraction(s, m)


def test_psi_inverts_phi_d8():
    assert herbrand_psi(D8_LOWER, Fraction(3, 2)) == 3
    assert herbrand_psi(D8_LOWER, 1) == 1


def test_phi_psi_inverse_random_points():
    rng = random.Random(5)
    filts = [
        D8_LOWER,
        RamFiltration(4, 1, "lower", ((1, 4), (3, 2))),
        RamFiltration(12, 3, "lower", ((2, 4), (5, 2))),
        RamFiltration(25, 1, "lower", ((4, 25), (9, 5))),
    ]
    for filt in filts:
        for _ in range(100):
            c = Fraction(rng.randint(0, 400), rng.randint(1, 40))
            assert herbrand_psi(filt, herbrand_phi(filt, c)) == c
            assert herbrand_phi(filt, herbrand_psi(filt, c)) == c


def test_phi_concave_increasing():
    pts = [Fraction(k, 7) for k in range(0, 80)]
    vals = [herbrand_phi(D8_LOWER, c) for c in pts]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    slopes = [(b - a) for a, b in zip(vals, vals[1:])]
    assert all(s2 <= s1 for s1, s2 in zip(slopes, slopes[1:]))
    assert herbrand_phi(D8_LOWER, 0) == 0


def test_lower_to_upper_d8():
    up = lower_to_upper(D8_LOWER)
    assert up.numbering == "upper"
    assert up.breaks == ((Fraction(1), 8), (Fraction(3, 2), 2))
    assert jumps_with_multiplicity(up) == [1, 1, Fraction(3, 2)]
    back = upper_to_lower(up)
    assert back == D8_LOWER


def test_lower_to_upper_z4():
    filt = RamFiltration(4, 1, "lower", ((1, 4), (3, 2)))
    up = lower_to_upper(filt)
    assert [j for j, _ in up.breaks] == [1, 2]  # 1 + (3-1)*(2/4) = 2
    assert upper_to_lower(up) == filt


def test_single_jump_trivial_conversion():
    filt = RamFiltration(2, 1, "lower", ((5, 2),))
    up = lower_to_upper(filt)
    assert up.breaks == ((Fraction(5), 2),)


def test_roundtrip_random_filtrations():
    rng = random.Random(17)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        m = rng.choice([1, 1, 1, p + 1])
        njumps = rng.randint(1, 3)
        jumps, orders = [], []
        j = 0
        e_left = njumps + rng.randint(0, 2)
        for k in range(njumps):
            j += rng.randint(1, 6)
            while j % p == 0:
                j += 1
            jumps.append(j)
        exps = sorted(rng.sample(range(1, e_left + njumps + 1), njumps),
                      reverse=True)
        orders = [p ** e for e in exps]
        filt = RamFiltration(orders[0] * m, m, "lower",
                             tuple(zip(jumps, orders)))
        assert upper_to_lower(lower_to_upper(filt)) == filt


def test_jumps_with_multiplicity_empty():
    tame = RamFiltration(3, 3, "lower", ())
    assert jumps_with_multiplicity(tame) == []


def test_quotient_not_a_p_power_is_refused():
    # 10/4 is no power of 2: no jump multiplicity and no piece sizes fit
    filt = RamFiltration(10, 5, "upper", ((1, 10), (3, 4)))
    with pytest.raises(DomainError):
        jumps_with_multiplicity(filt)
    with pytest.raises(DomainError):
        reduce(filt, [[2], [4]], s_iotas=[1, 1])
    assert "quotient at jump 1 is not a positive power of 2" in validate(filt)


def test_validate_clean():
    assert validate(D8_LOWER) == []


def test_validate_p_divides_jump():
    filt = RamFiltration(2, 1, "lower", ((2, 2),))
    assert any("p | 2" in v for v in validate(filt))


def test_validate_non_integer_lower_jump():
    filt = RamFiltration(2, 1, "lower", ((Fraction(3, 2), 2),))
    assert any("not an integer" in v for v in validate(filt))


def test_validate_tame_quotient():
    filt = RamFiltration(8, 2, "lower", ((1, 8),))
    assert any("tame" in v.lower() or "wild" in v.lower() for v in validate(filt))
    assert validate(filt) == [
        "first break order 8 != wild part 4 (tame quotient |I_0|/|I_1| = m "
        "fails)"]
    assert validate(RamFiltration(8, 3, "lower", ((1, 8),))) == [
        "tame part 3 does not divide |I| = 8"]
    assert validate(RamFiltration(6, 1, "lower", ((1, 6),))) == [
        "wild part 6 is not a prime power"]
    assert validate(RamFiltration(4, 1, "lower", ())) == [
        "wild part is nontrivial but there are no breaks"]
    assert validate(RamFiltration(3, 3, "lower", ((1, 2),))) == [
        "breaks present but the wild part is trivial"]


def test_validate_refuses_a_wild_prime_past_the_limit():
    # 1048583 is the least prime past 2^20; no factor search runs past it
    filt = RamFiltration(1048583, 1, "lower", ((1, 1048583),))
    with pytest.raises(DomainError, match="past the limit 2"):
        validate(filt)


def test_validate_cyclic_schmid():
    good = RamFiltration(4, 1, "upper", ((1, 4), (5, 2)))
    assert validate(good, cyclic=True) == []
    bad = RamFiltration(4, 1, "upper", ((1, 4), (4, 2)))
    assert any("cyclic" in v for v in validate(bad, cyclic=True))
    exact_p_multiple = RamFiltration(4, 1, "upper", ((1, 4), (2, 2)))
    assert validate(exact_p_multiple, cyclic=True) == []
    z2_squared = RamFiltration(4, 1, "upper", ((1, 4),))
    assert validate(z2_squared, cyclic=True) == [
        "cyclic filtration has a jump of multiplicity > 1"]
    # the cyclic checks count jumps, which a bad first order or quotient
    # leaves undefined: both filtrations would also fail them
    bad_first = RamFiltration(8, 2, "upper", ((1, 8), (2, 2)))
    assert validate(bad_first, cyclic=True) == [
        "first break order 8 != wild part 4 (tame quotient |I_0|/|I_1| = m "
        "fails)"]
    bad_quotients = RamFiltration(8, 1, "upper", ((1, 8), (4, 3)))
    assert validate(bad_quotients, cyclic=True) == [
        "quotient at jump 1 is not a positive power of 2",
        "quotient at jump 4 is not a positive power of 2"]


def test_validate_abelian_integral_upper():
    assert any("non-integral" in v
               for v in validate(D8_LOWER, abelian=True))
    ok = RamFiltration(4, 1, "lower", ((1, 4), (3, 2)))
    assert validate(ok, abelian=True) == []


def test_quotient_preserves_upper_jumps():
    # dropping the deepest subgroup keeps the earlier upper jumps
    up = lower_to_upper(D8_LOWER)
    quot = RamFiltration(4, 1, "upper", ((Fraction(1), 4),))
    assert quot.breaks[0][0] == up.breaks[0][0]
    z4 = RamFiltration(4, 1, "lower", ((1, 4), (3, 2)))
    z4_up = lower_to_upper(z4)
    z2_up = RamFiltration(2, 1, "upper", ((z4_up.breaks[0][0], 2),))
    assert upper_to_lower(z2_up).breaks == ((Fraction(1), 2),)


def test_reduce_trivial():
    filt = RamFiltration(2, 1, "upper", ((5, 2),))
    red = reduce(filt, [[2]])
    assert red.pieces == ((2, Fraction(5), 1),)


def test_reduce_quaternion():
    up = lower_to_upper(D8_LOWER)
    red = reduce(up, [[2, 2], [2]])
    assert red.pieces == ((2, Fraction(1), 1), (2, Fraction(1), 1),
                          (2, Fraction(3, 2), 1))


def test_reduce_ordinary_shape():
    # jump 1/m with quotient (Z/p)^e split into e/c pieces of size p^c
    p, c, r, m = 2, 2, 3, 3
    filt = RamFiltration((p ** (c * r)) * m, m, "upper",
                         ((Fraction(1, m), p ** (c * r)),))
    red = reduce(filt, [[p ** c] * r], s_iotas=[1] * r)
    assert red.pieces == tuple((4, Fraction(1, 3), 1) for _ in range(3))


def test_reduce_size_mismatch():
    up = lower_to_upper(D8_LOWER)
    with pytest.raises(DomainError):
        reduce(up, [[2], [2]])
    with pytest.raises(DomainError):
        reduce(up, [[2, 2], [2]], s_iotas=[1, 1])


def test_reduce_refuses_a_first_order_short_of_the_wild_part():
    # the quotients 2 and 2 multiply to 4, not to |P| = 8
    filt = RamFiltration(8, 1, "upper", ((1, 4), (Fraction(3, 2), 2)))
    with pytest.raises(DomainError, match="first break order 4 != wild part 8"):
        reduce(filt, [[2], [2]])


def test_reduce_requires_s_iota_for_tame():
    filt = RamFiltration(6, 3, "upper", ((Fraction(1, 3), 2),))
    with pytest.raises(DomainError):
        reduce(filt, [[2]])
    red = reduce(filt, [[2]], s_iotas=[1])
    assert red.tame == 3


def test_last_piece_s_iota():
    # single break of A over a tame base: s_iota = conductor mod m
    filt = RamFiltration(4 * 3, 3, "lower", ((7, 4),))
    assert last_piece_s_iota(filt, 4) == 1  # 7/1 = 7 = 1 mod 3
    with pytest.raises(DomainError):
        last_piece_s_iota(lower_to_upper(D8_LOWER), 2)


def test_reduced_filtration_validation():
    with pytest.raises(DomainError):
        ReducedFiltration(1, ((2, Fraction(3), 1), (2, Fraction(1), 1)))
    with pytest.raises(DomainError):
        ReducedFiltration(1, ((6, Fraction(1), 1),))
    with pytest.raises(DomainError):
        ReducedFiltration(2, ((2, Fraction(1), 5),))


@pytest.mark.parametrize("orders,p,message", [
    ((4, 2, 8), 2, None),
    ((9, 3, 27 * 27), 3, None),
    ((1048573 ** 2, 1048573), 1048573, None),
    ((4, 12), None, "piece orders must be powers of one prime"),
    ((6, 2), None, "piece orders must be powers of one prime"),
    ((2, 3), None, "piece orders must be powers of one prime"),
    # only the first order is factored; a later one that is no power of its
    # prime is refused as such, whatever its own factors
    ((2, 2 ** 61 - 1), None, "piece orders must be powers of one prime"),
    ((2 ** 61 - 1, 2), None,
     "2305843009213693951 has a prime factor past the limit 2^20"),
    ((2, 1), None, "piece orders must be at least 2"),
])
def test_reduced_filtration_finds_the_prime_of_its_pieces(orders, p, message):
    pieces = tuple((q, Fraction(1), 1) for q in orders)
    if message is None:
        assert ReducedFiltration(1, pieces).p == p
    else:
        with pytest.raises(DomainError, match=re.escape(message)):
            ReducedFiltration(1, pieces)


def test_filtration_json_roundtrip():
    up = lower_to_upper(D8_LOWER)
    doc = up.to_json()
    assert doc["breaks"] == [[1, 1, 8], [3, 2, 2]]
    assert RamFiltration.from_json(doc) == up
    red = reduce(up, [[2, 2], [2]])
    assert ReducedFiltration.from_json(red.to_json()) == red


def _outcome(f, *args):
    try:
        return f(*args)
    except DomainError as exc:
        return "DomainError", str(exc)


# strategies built once: drawing fixed-size lists and cutting them is much
# cheaper than building a strategy per example
FOUR_JUMPS = st.lists(st.builds(Fraction, st.integers(1, 40),
                                st.sampled_from([1, 1, 2, 3])),
                      min_size=4, max_size=4, unique=True)
FOUR_EXPONENTS = st.lists(st.integers(1, 6), min_size=4, max_size=4,
                          unique=True)
FOUR_ORDERS = st.lists(st.integers(2, 100), min_size=4, max_size=4,
                       unique=True)
PIECES = st.lists(st.integers(2, 9), max_size=3)


@st.composite
def filtrations(draw):
    """Filtrations the constructor accepts, valid or not: p-power or
    arbitrary break orders, integral or fractional jumps, and a total order
    that is the first order times the tame part, p times that, or one more."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(0, 4))
    jumps = sorted(draw(FOUR_JUMPS)[:n])
    if draw(st.integers(0, 3)):
        orders = [p ** e for e in draw(FOUR_EXPONENTS)[:n]]
    else:
        orders = draw(FOUR_ORDERS)[:n]
    orders.sort(reverse=True)
    m = (1, 1, 2, 3, 4, p)[draw(st.integers(0, 5))]
    wild = orders[0] if orders else (1, p, p * p)[draw(st.integers(0, 2))]
    total = (wild * m, wild * m, wild * m * p,
             wild * m + 1)[draw(st.integers(0, 3))]
    numbering = ("lower", "upper")[draw(st.integers(0, 1))]
    return RamFiltration(total, m, numbering, tuple(zip(jumps, orders)))


@settings(max_examples=1000, deadline=None)
@given(filtrations(), st.lists(st.fractions(-1, 60, max_denominator=12),
                               max_size=4), st.data())
def test_ramfilt_matches_the_per_break_reference(filt, points, data):
    for c in points + [j for j, _ in filt.breaks]:
        assert _outcome(herbrand_phi, filt, c) == _outcome(ref_phi, filt, c)
        assert _outcome(herbrand_psi, filt, c) == _outcome(ref_psi, filt, c)
    assert _outcome(lower_to_upper, filt) == _outcome(ref_lower_to_upper, filt)
    assert _outcome(upper_to_lower, filt) == _outcome(ref_upper_to_lower, filt)
    assert (_outcome(jumps_with_multiplicity, filt)
            == _outcome(ref_jumps_with_multiplicity, filt))
    for abelian in (False, True):
        for cyclic in (False, True):
            assert (validate(filt, abelian, cyclic)
                    == ref_validate(filt, abelian, cyclic))
    # piece sizes: each quotient whole, split in two, or drawn at random,
    # and now and then one list too few or too many, so that reduce both
    # answers and refuses
    up = filt if filt.numbering == "upper" else ref_lower_to_upper(filt)
    orders = [o for _, o in up.breaks] + [1]
    sizes = []
    for o, o_next in zip(orders, orders[1:]):
        q = o // o_next
        sizes.append(([q], [2, q // 2], [3, q // 3], None)[
            data.draw(st.integers(0, 3))] or data.draw(PIECES))
    sizes = (sizes, sizes, sizes, sizes, sizes[:-1], sizes + [[2]])[
        data.draw(st.integers(0, 5))]
    count = sum(map(len, sizes)) + data.draw(st.integers(0, 1))
    s_iotas = [data.draw(st.integers(1, 6)) for _ in range(count)] \
        if data.draw(st.booleans()) else None
    assert (_outcome(reduce, up, sizes, s_iotas)
            == _outcome(ref_reduce, up, sizes, s_iotas))


@settings(max_examples=500, deadline=None)
@given(filtrations())
def test_reduce_pieces_multiply_to_the_wild_part(filt):
    up = filt if filt.numbering == "upper" else ref_lower_to_upper(filt)
    orders = [o for _, o in up.breaks] + [1]
    sizes = [[o // o_next] for o, o_next in zip(orders, orders[1:])]
    try:
        red = reduce(up, sizes, [1] * len(sizes))
    except DomainError:
        return
    assert prod(q for q, _, _ in red.pieces) == up.wild_order
