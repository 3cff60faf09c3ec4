"""Standalone property suites over randomized inputs.

Each function here is self-contained (seeded generators, fresh data) so the
whole module can run on its own as a consistency battery: normal-form
idempotence, the additive-shift invariance of the conductor, the isomorphism
equivalence laws, exact Herbrand inversion, numbering round-trips, the
conductor congruence on equivariant covers, and the three routes to the lower
jumps of an elementary abelian tower.
"""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ramify import (ASCover, DomainError, LaurentPoly, RamFiltration,
                    TowerSpec, conductor, check_equivariance, field_create,
                    herbrand_phi, herbrand_psi, is_isomorphic,
                    jumps_with_multiplicity, lower_to_upper, oracle_run,
                    prime_to_p_degree, root_of_unity, s_iota, standard_form,
                    upper_to_lower)
from ramify.ascover import standard_form_poly
from ramify.tower import (GeneratorAction, TowerStep, VarPoly,
                          herbrand_lower_jumps)

from helpers import subfield_units

F4 = field_create(2, 2)
F9 = field_create(3, 2)


def random_poly(rng, field, n_terms=4, lo=-14, hi=6, nonzero=False):
    terms = {}
    for _ in range(n_terms):
        c = rng.randrange(1 if nonzero else 0, field.q)
        terms[rng.randint(lo, hi)] = field.from_index(c)
    return LaurentPoly(field, terms)


def test_standard_form_idempotent():
    rng = random.Random(101)
    for q, field in [(2, F4), (4, F4), (3, F9), (9, F9)]:
        for _ in range(60):
            r = random_poly(rng, field)
            once = standard_form_poly(r, q)
            assert standard_form_poly(once, q) == once


def test_conductor_invariant_under_artin_schreier_shifts():
    rng = random.Random(202)
    for q, field, t in [(2, F4, 1), (4, F4, 2), (3, F9, 1)]:
        count = 0
        while count < 50:
            r = random_poly(rng, field, nonzero=True, lo=-10, hi=-1)
            if not standard_form_poly(r, q):
                continue
            count += 1
            d = random_poly(rng, field, lo=-5, hi=4)
            shifted = r + d.frobenius_power(t) - d  # + (d^q - d)
            assert conductor(ASCover(q, shifted)) == conductor(ASCover(q, r))


def test_isomorphism_equivalence_laws():
    rng = random.Random(303)
    units = subfield_units(F4, 4)
    covers = []
    for _ in range(12):
        r = random_poly(rng, F4, nonzero=True, lo=-8, hi=-1)
        covers.append(ASCover(4, r))
        z = rng.choice(units)
        d = random_poly(rng, F4, lo=-4, hi=3)
        covers.append(ASCover(4, r.scale(z) + d.frobenius_power(2) - d))
    for c in covers:
        assert is_isomorphic(c, c)[0]
    for _ in range(120):
        c1, c2, c3 = rng.choice(covers), rng.choice(covers), rng.choice(covers)
        ab, _ = is_isomorphic(c1, c2)
        ba, _ = is_isomorphic(c2, c1)
        assert ab == ba
        if ab and is_isomorphic(c2, c3)[0]:
            assert is_isomorphic(c1, c3)[0]


def _random_filtration(rng):
    p = rng.choice([2, 3, 5])
    m = rng.choice([1, 1, p + 1, 2 * p + 1])
    njumps = rng.randint(1, 3)
    jumps = []
    j = 0
    for _ in range(njumps):
        j += rng.randint(1, 5)
        while j % p == 0:
            j += 1
        jumps.append(j)
    exps = sorted(rng.sample(range(1, 8), njumps), reverse=True)
    orders = [p ** e for e in exps]
    return RamFiltration(orders[0] * m, m, "lower", tuple(zip(jumps, orders)))


def test_herbrand_inversion_at_random_points():
    rng = random.Random(404)
    filts = [_random_filtration(rng) for _ in range(10)]
    checked = 0
    for filt in filts:
        for _ in range(10):
            c = Fraction(rng.randint(0, 600), rng.randint(1, 48))
            assert herbrand_psi(filt, herbrand_phi(filt, c)) == c
            assert herbrand_phi(filt, herbrand_psi(filt, c)) == c
            checked += 1
    assert checked == 100


def test_numbering_roundtrip():
    rng = random.Random(505)
    for _ in range(80):
        filt = _random_filtration(rng)
        up = lower_to_upper(filt)
        assert upper_to_lower(up) == filt
        assert lower_to_upper(upper_to_lower(up)) == up


def test_conductor_congruence_on_equivariant_covers():
    rng = random.Random(606)
    F16 = field_create(2, 4)
    z3 = root_of_unity(F4, 3)
    z5 = root_of_unity(F16, 5)
    z8 = root_of_unity(F9, 8)
    data = [(4, 3, z3, F4), (4, 3, z3 * z3, F4), (3, 2, F9.element(-1), F9),
            (16, 5, z5, F16), (16, 15, root_of_unity(F16, 15), F16),
            (9, 8, z8, F9)]
    checked = 0
    while checked < 100:
        q, m, z, field = data[checked % len(data)]
        s = s_iota(q, m, z)
        p = field.p
        terms = {}
        while len(terms) < 3:
            ell = s + m * rng.randint(0, 5)
            if ell % p == 0:
                continue
            terms[-ell] = field.from_index(rng.randrange(1, field.q))
        cov = ASCover(q, LaurentPoly(field, terms), m=m, z=z)
        assert check_equivariance(cov, s)
        if standard_form(cov):
            assert conductor(cov) % m == s % m
            checked += 1


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(min_value=-10, max_value=5),
                       st.integers(min_value=0, max_value=3),
                       min_size=1, max_size=5))
def test_standard_form_idempotent_hypothesis(raw):
    r = LaurentPoly(F4, {e: F4.from_index(c) for e, c in raw.items()})
    once = standard_form_poly(r, 2)
    assert standard_form_poly(once, 2) == once


def _span_lower_jumps(field, rhss):
    """Lower jumps of the (Z/p)^n extension y_i^p - y_i = r_i of F((x)) from
    the conductors of its characters, the F_p-combinations of the r_i, or
    None when some combination has zero standard form (the extension is not
    totally ramified of degree p^n).  For an abelian group the annihilator of
    G^u is the characters of conductor below u (Serre, Local Fields IV-V)."""
    p, n = field.p, len(rhss)
    conductors = []
    for combo in itertools.product(range(p), repeat=n):
        if not any(combo):
            continue
        r = LaurentPoly.zero(field)
        for c, r_i in zip(combo, rhss):
            r = r + r_i.scale(field.element(c))
        sf = standard_form_poly(r, p)
        if not sf:
            return None
        conductors.append(prime_to_p_degree(sf))
    breaks = tuple(
        (Fraction(u), p ** n // (1 + sum(1 for c in conductors if c < u)))
        for u in sorted(set(conductors)))
    upper = RamFiltration(p ** n, 1, "upper", breaks)
    return [int(j) for j in jumps_with_multiplicity(upper_to_lower(upper))]


@st.composite
def _abelian_towers(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(min_value=1, max_value=3))
    coeffs = st.integers(min_value=1, max_value=p - 1)
    rhss = []
    for _ in range(n):
        rhs = {-draw(st.integers(min_value=1, max_value=6)): draw(coeffs)}
        rhs.update(draw(st.dictionaries(
            st.integers(min_value=-6, max_value=1), coeffs, max_size=2)))
        rhss.append(rhs)
    return p, rhss


@settings(max_examples=60, deadline=None)
@given(_abelian_towers())
def test_oracle_herbrand_and_span_routes_agree(tower_data):
    # right-hand sides in x alone, generators var -> var + 1: the oracle
    # refuses exactly when the span route finds a trivial character, and
    # otherwise the oracle, Herbrand's recursion on the step conductors and
    # the character conductors of the span give the same lower jumps
    p, raw = tower_data
    field = field_create(p, 1)
    names = ["v", "w", "y"][:len(raw)]
    steps = tuple(
        TowerStep(var, VarPoly(field, {(("x", e),): c for e, c in r.items()}))
        for var, r in zip(names, raw))
    tower = TowerSpec(field, 1, steps)
    gens = [GeneratorAction(tower, {var: VarPoly.const(field, field.one())}, var)
            for var in names]
    span = _span_lower_jumps(
        field, [LaurentPoly(field, {e: field.element(c) for e, c in r.items()})
                for r in raw])
    try:
        run = oracle_run(tower, gens, precision=1024)
    except DomainError:
        assert span is None
        return
    oracle = [int(j) for j in jumps_with_multiplicity(run.filtration)]
    assert oracle == herbrand_lower_jumps(p, run.pole_orders) == span
