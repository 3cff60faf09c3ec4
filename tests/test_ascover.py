"""Standard forms, conductors, isomorphism and equivariance of cover data."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramify import (ASCover, DomainError, LaurentPoly, check_equivariance,
                    conductor, field_create, is_connected, is_isomorphic,
                    modify_cover, root_of_unity, s_iota, standard_form)
from ramify.ascover import standard_form_poly
from ramify.gf import p_power_exponent

from helpers import element_order, standard_form_by_rescan, subfield_units

F2 = field_create(2, 1)
F3 = field_create(3, 1)
F4 = field_create(2, 2)
F16 = field_create(2, 4)


def lp(field, terms):
    return LaurentPoly(field, {e: field.element(c) for e, c in terms.items()})


# -- standard form ------------------------------------------------------------

def test_standard_form_fixed_point():
    c = ASCover(2, lp(F2, {-3: 1}))
    assert standard_form(c) == lp(F2, {-3: 1})


def test_standard_form_drops_nonnegative_part():
    c = ASCover(2, lp(F2, {-3: 1, 0: 1, 2: 1, 4: 1}))
    assert standard_form(c) == lp(F2, {-3: 1})


def test_standard_form_takes_qth_roots():
    c = ASCover(2, lp(F2, {-2: 1}))
    assert standard_form(c) == lp(F2, {-1: 1})
    assert conductor(c) == 1


def test_standard_form_cancellation_to_zero():
    # x^-6 reduces onto x^-3 and cancels it: disconnected
    c = ASCover(2, lp(F2, {-3: 1, -6: 1}))
    assert not standard_form(c)
    with pytest.raises(DomainError):
        conductor(c)
    assert not is_connected(c)


def test_standard_form_repeated_reduction():
    # x^-8 -> x^-4 -> x^-2 -> x^-1 for q = 2
    c = ASCover(2, lp(F2, {-8: 1}))
    assert standard_form(c) == lp(F2, {-1: 1})


def test_standard_form_respects_q_not_p():
    # for q = 4 the exponent -2 is already standard
    c = ASCover(4, lp(F4, {-2: 1}))
    assert standard_form(c) == lp(F4, {-2: 1})
    assert conductor(c) == 1  # prime-to-p degree of x^-2


def test_standard_form_idempotent_random():
    rng = random.Random(7)
    for _ in range(50):
        terms = {rng.randint(-12, 6): rng.randrange(4) for _ in range(4)}
        r = LaurentPoly(F4, {e: F4.from_index(c) for e, c in terms.items()})
        once = standard_form_poly(r, 4)
        assert standard_form_poly(once, 4) == once


# every q = p^b with b | a for the fields F_2, F_4, F_8, F_16, F_3, F_9, F_5,
# F_25 and F_7
FIELD_DEGREES = [(field_create(p, a), p ** b)
                 for p, a in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2),
                              (5, 1), (5, 2), (7, 1)]
                 for b in range(1, a + 1) if a % b == 0]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_standard_form_closed_form_matches_the_rescan(data):
    field, q = data.draw(st.sampled_from(FIELD_DEGREES))
    coeff = st.integers(0, field.q - 1).map(field.from_index)
    # terms at multiples of q^t, so that roots are taken up to three deep and
    # different terms land on one exponent
    term = st.tuples(st.integers(-6, 3), st.integers(0, 3), coeff).map(
        lambda t: (t[0] * q ** t[1], t[2]))
    r = LaurentPoly(field, data.draw(st.lists(term, max_size=8)))
    d = LaurentPoly(field, data.draw(st.dictionaries(
        st.integers(-8, 3), coeff, max_size=4)))
    # r + d^q - d has the same standard form, reached through cancellations
    shifted = r + d.frobenius_power(p_power_exponent(q, field.p)) - d
    for poly in (r, shifted):
        assert standard_form_poly(poly, q) == standard_form_by_rescan(poly, q)
    assert standard_form_poly(shifted, q) == standard_form_poly(r, q)


# -- conductor ----------------------------------------------------------------

def test_conductor_examples():
    assert conductor(ASCover(2, lp(F2, {-3: 1}))) == 3
    # x^-2 + x^-12 at q = p = 2 (pole order 3*p^2 with p = 2)
    assert conductor(ASCover(2, lp(F2, {-2: 1, -12: 1}))) == 3
    with pytest.raises(DomainError):
        conductor(ASCover(2, lp(F2, {2: 1})))


def test_conductor_invariant_under_wp_shift():
    rng = random.Random(21)
    q = 4
    for _ in range(40):
        r = LaurentPoly(F4, {rng.randint(-9, -1): F4.from_index(rng.randrange(1, 4))
                             for _ in range(3)})
        if not standard_form_poly(r, q):
            continue
        d = LaurentPoly(F4, {rng.randint(-4, 3): F4.from_index(rng.randrange(4))
                             for _ in range(3)})
        shifted = r + d.frobenius_power(2) - d  # d^q - d for q = p^2
        assert conductor(ASCover(q, shifted)) == conductor(ASCover(q, r))


def test_conductor_scaling_invariance():
    r = lp(F4, {-3: 1, -5: 2})
    base = conductor(ASCover(4, r))
    for zeta in subfield_units(F4, 4):
        assert conductor(ASCover(4, r.scale(zeta))) == base


# -- isomorphism --------------------------------------------------------------

def test_isomorphic_identity():
    c = ASCover(2, lp(F2, {-3: 1}))
    ok, zeta = is_isomorphic(c, c)
    assert ok and zeta == F2.one()


def test_isomorphic_by_scalar():
    z3 = root_of_unity(F4, 3)
    r1 = lp(F4, {-3: 1, -1: 2})
    c1 = ASCover(4, r1)
    c2 = ASCover(4, r1.scale(z3))
    ok, zeta = is_isomorphic(c1, c2)
    assert ok and zeta == z3


def test_isomorphic_absorbs_wp_part():
    r1 = lp(F2, {-3: 1})
    d = lp(F2, {-1: 1, 1: 1})
    r2 = r1 + d.frobenius_power(1) - d
    ok, zeta = is_isomorphic(ASCover(2, r1), ASCover(2, r2))
    assert ok and zeta == F2.one()


def test_non_isomorphic_different_conductors():
    ok, zeta = is_isomorphic(ASCover(2, lp(F2, {-1: 1})),
                             ASCover(2, lp(F2, {-3: 1})))
    assert not ok and zeta is None


def test_non_isomorphic_by_a_scalar_outside_f_q():
    # zeta r1 is in standard form and zeta is the one candidate, but zeta
    # lies in F_16 and not in F_4
    r1 = lp(F16, {-3: 1, -1: 2})
    zeta = root_of_unity(F16, 5)
    ok, witness = is_isomorphic(ASCover(4, r1), ASCover(4, r1.scale(zeta)))
    assert not ok and witness is None


def test_isomorphism_is_equivalence():
    rng = random.Random(3)
    units = subfield_units(F4, 4)
    for _ in range(25):
        r = LaurentPoly(F4, {rng.randint(-7, -1): F4.from_index(rng.randrange(1, 4))
                             for _ in range(2)})
        d1 = LaurentPoly(F4, {rng.randint(-3, 2): F4.from_index(rng.randrange(4))})
        d2 = LaurentPoly(F4, {rng.randint(-3, 2): F4.from_index(rng.randrange(4))})
        z1, z2 = rng.choice(units), rng.choice(units)
        c1 = ASCover(4, r)
        c2 = ASCover(4, r.scale(z1) + d1.frobenius_power(2) - d1)
        c3 = ASCover(4, (r.scale(z1).scale(z2)
                         + d2.frobenius_power(2) - d2))
        assert is_isomorphic(c1, c1)[0]                       # reflexive
        assert is_isomorphic(c1, c2)[0] == is_isomorphic(c2, c1)[0]  # symmetric
        if is_isomorphic(c1, c2)[0] and is_isomorphic(c2, c3)[0]:
            assert is_isomorphic(c1, c3)[0]                   # transitive


def _scan_isomorphic(c1, c2):
    """The scan over every scalar of F_q^*, as the oracle for the closed
    form."""
    s1, s2 = standard_form(c1), standard_form(c2)
    if not s1 and not s2:
        return True, c1.field.one()
    if s1 and s2:
        for zeta in subfield_units(c1.field, c1.q):
            if s1.scale(zeta) == s2:
                return True, zeta
    return False, None


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_isomorphic_matches_the_scalar_scan(data):
    field, q = data.draw(st.sampled_from(
        [(F2, 2), (F4, 2), (F4, 4), (F16, 2), (F16, 4), (F16, 16), (F3, 3),
         (field_create(3, 2), 9)]))
    coeff = st.integers(0, field.q - 1).map(field.from_index)
    poly = st.dictionaries(st.integers(-12, 3), coeff, max_size=5).map(
        lambda d: LaurentPoly(field, d))
    r1, d = data.draw(poly), data.draw(poly)
    # the standard form of r1 times a scalar of F_q^* gives an isomorphic
    # pair, times one outside F_q a non-isomorphic one; both up to a d^q - d
    units = data.draw(st.sampled_from(
        [subfield_units(field, q), subfield_units(field, field.q), None]))
    if units:
        zeta = data.draw(st.sampled_from(units))
        r2 = standard_form_poly(r1, q).scale(zeta) + d.frobenius_power(
            p_power_exponent(q, field.p)) - d
    else:
        r2 = data.draw(poly)
    c1, c2 = ASCover(q, r1), ASCover(q, r2)
    assert is_isomorphic(c1, c2) == _scan_isomorphic(c1, c2)


# -- s_iota and equivariance ---------------------------------------------------

def test_s_iota_trivial_tame_part():
    assert s_iota(2, 1, F2.one()) == 1


def test_s_iota_p3_m2():
    minus_one = F3.element(-1)
    assert s_iota(3, 2, minus_one) == 1


def test_s_iota_f4_m3():
    z3 = root_of_unity(F4, 3)
    assert s_iota(4, 3, z3) == 1
    assert s_iota(4, 3, z3 * z3) == 2


def test_s_iota_rejects_non_irreducible_action():
    with pytest.raises(DomainError, match="irreducible"):
        s_iota(4, 3, F4.one())


def test_s_iota_rejects_bad_order():
    F9 = field_create(3, 2)
    g = root_of_unity(F9, 8)
    with pytest.raises(DomainError):
        s_iota(9, 4, g)  # ord(g) = 8 does not divide 4


def test_check_equivariance():
    z3 = root_of_unity(F4, 3)
    ok = ASCover(2, lp(F2, {-1: 1, -3: 1}), m=1)
    assert check_equivariance(ok, 1)
    m2 = ASCover(3, lp(F3, {-1: 1, -3: 1}), m=2, z=F3.element(-1))
    assert check_equivariance(m2, 1)
    bad = ASCover(3, lp(F3, {-1: 1, -2: 1}), m=2, z=F3.element(-1))
    assert not check_equivariance(bad, 1)
    # pole orders 1 and 4 are both 1 mod 3
    eq3 = ASCover(4, lp(F4, {-1: 1, -4: 2}), m=3, z=z3)
    assert check_equivariance(eq3, 1)
    assert not check_equivariance(eq3, 2)


def test_conductor_congruence_random_equivariant():
    # Pole orders are kept prime to p: a p-divisible standard-form exponent
    # l = p^t * s (possible only when q > p) carries an inseparably twisted
    # translation coordinate and contributes conductor s, not l, so only the
    # p-free stratum ties the exponent class directly to the conductor class.
    rng = random.Random(11)
    z3 = root_of_unity(F4, 3)
    z5 = root_of_unity(F16, 5)
    data = [(4, 3, z3, 1, F4), (4, 3, z3 * z3, 2, F4),
            (3, 2, F3.element(-1), 1, F3), (16, 5, z5 * z5, 2, F16)]
    for q, m, z, s, field in data:
        p = field.p
        assert s_iota(q, m, z) == s
        # the conjugation action's kernel has order m / ord(z)
        assert gcd(m, s) == m // element_order(z)
        for _ in range(25):
            terms = {}
            while len(terms) < 3:
                ell = s + m * rng.randint(0, 6)
                if ell % p == 0:
                    continue
                terms[-ell] = field.from_index(rng.randrange(1, field.q))
            cov = ASCover(q, LaurentPoly(field, terms), m=m, z=z)
            assert check_equivariance(cov, s)
            if standard_form(cov):
                assert conductor(cov) % m == s % m


# -- connectedness and modification --------------------------------------------

def test_is_connected():
    assert not is_connected(ASCover(2, LaurentPoly.zero(F2)))
    one = F16.one()
    for idx in range(16):
        a1 = F16.from_index(idx)
        cov = ASCover(2, LaurentPoly(F16, {-1: a1 + one}))
        assert is_connected(cov) == (a1 != one)
    with pytest.raises(DomainError):
        is_connected(ASCover(4, lp(F4, {-1: 1})))


def test_modify_cover_trivial_deformation():
    r_phi = lp(F2, {-3: 1})
    total, flag = modify_cover(2, r_phi, LaurentPoly.zero(F2), 1, Fraction(3))
    assert total == r_phi and flag


def test_modify_cover_bounds():
    r_phi = lp(F2, {-3: 1})
    _, flag = modify_cover(2, r_phi, lp(F2, {-1: 1}), 1, Fraction(3))
    assert flag  # conductor 1 <= 3
    _, flag = modify_cover(2, r_phi, lp(F2, {-5: 1}), 1, Fraction(3, 2))
    assert not flag  # conductor 5 > 3/2


def test_modify_cover_wp_trivial_alpha_passes():
    # r_alpha = d^2 - d deforms nothing, so the bound holds vacuously
    d = lp(F2, {-5: 1})
    r_alpha = d.frobenius_power(1) - d
    _, flag = modify_cover(2, lp(F2, {-3: 1}), r_alpha, 1, Fraction(1))
    assert flag


# -- datum validation -----------------------------------------------------------

def test_cover_datum_validation():
    with pytest.raises(DomainError):
        ASCover(2, lp(F2, {-1: 1}), m=2)  # m > 1 needs z
    with pytest.raises(DomainError):
        ASCover(2, lp(F2, {-1: 1}), m=1, z=F2.one())  # z only when m > 1
    with pytest.raises(DomainError):
        ASCover(2, lp(F2, {-1: 1}), m=2, z=F2.zero())
    with pytest.raises(DomainError):
        ASCover(8, lp(F4, {-1: 1}))  # F_8 does not embed in F_4
    with pytest.raises(DomainError):
        ASCover(3, lp(F2, {-1: 1}))  # q not a power of the characteristic


def test_check_equivariance_strict_detects_inconsistent_datum():
    # q = 2 cannot genuinely carry an order-3 tame action; the reduction of
    # x^-10 lands on pole order 5, leaving the claimed congruence class
    cov = ASCover(2, lp(F2, {-10: 1}), m=3, z=F2.one())
    with pytest.raises(DomainError, match="congruence"):
        check_equivariance(cov, 1)
    assert check_equivariance(cov, 1, strict=False)


def test_middle_step_connectedness_form():
    # the normalized middle step w1^2 - w1 = c2 * x^-1 is connected iff c2 != 0
    for idx in range(4):
        c2 = F4.from_index(idx)
        cov = ASCover(2, LaurentPoly(F4, {-1: c2}))
        assert is_connected(cov) == bool(c2)
