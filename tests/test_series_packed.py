"""The byte-record series kernel against the dict reference, term for term.

Every operation must give the same terms and the same precision as the
dict-of-FieldElement code in dict_series.py.  The fields cover the prime
fields F_2, F_3, F_5, the extensions F_4, F_8, F_16 (one byte per
coefficient, a bit per digit), F_9 and F_27 (records of 2 and 3 one-byte
digits), F_{2^16} (above the log-table cap, 31 slots per element),
F_65521 (two bytes per digit), F_(257^2) (records of two two-byte digits)
and F_251, where a sum of two residues no longer fits a byte, so products
and sums take the reducer's per-slot mod-p branch.
"""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramify import TowerSpec, field_create, oracle_run
from ramify import series as series_module
from ramify.gf import FieldElement
from ramify.laurent import accumulate
from ramify.series import TruncatedSeries, _ring, _Ring, compose
from ramify.tower import (GeneratorAction, TowerStep, _solve_unit,
                          _uniformizer_exponents, VarPoly)

import dict_series
from dict_series import DictSeries
from helpers import index_of

FIELDS = [field_create(p, a) for p, a in
          [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 4), (2, 3), (2, 16),
           (65521, 1), (251, 1), (3, 3), (257, 2)]]


@st.composite
def series(draw, field, max_prec=300, max_terms=40, vals=(-20, 20)):
    """A series with valuation in vals and precision up to max_prec: its
    leading term, some random terms above it, or a dense run of them."""
    prec = draw(st.integers(1, max_prec))
    val = draw(st.integers(*vals))
    coeff = st.integers(1, field.q - 1).map(field.from_index)
    if val >= prec:
        return TruncatedSeries(field, {}, prec)
    terms = {val: draw(coeff)}
    if draw(st.booleans()):
        top = min(prec, val + max_terms)
        terms.update((e, draw(coeff)) for e in range(val + 1, top))
    elif prec - val > 1:
        exps = draw(st.lists(st.integers(val + 1, prec - 1),
                             max_size=max_terms))
        terms.update((e, draw(coeff)) for e in exps)
    return TruncatedSeries(field, terms, prec)


def ref(s):
    return DictSeries(s.field, s.terms, s.prec)


def same(new, old):
    assert dict(new.terms) == old.terms
    assert new.prec == old.prec


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mul_add_sub_match_reference(data):
    field = data.draw(st.sampled_from(FIELDS))
    a = data.draw(series(field))
    b = data.draw(series(field))
    same(a * b, ref(a) * ref(b))
    same(a * a, ref(a) * ref(a))
    same(a + b, ref(a) + ref(b))
    same(a - b, ref(a) - ref(b))
    same(-a, -ref(a))
    c = field.from_index(data.draw(st.integers(0, field.q - 1)))
    same(a.scale(c), ref(a).scale(c))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_inverse_matches_reference(data):
    field = data.draw(st.sampled_from(FIELDS))
    a = data.draw(series(field))
    if a.is_zero_to_precision():
        return
    same(a.inverse(), ref(a).inverse())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pow_matches_reference(data):
    field = data.draw(st.sampled_from(FIELDS))
    a = data.draw(series(field, max_prec=120, max_terms=12))
    n = data.draw(st.integers(-3, 5))
    if n < 0 and a.is_zero_to_precision():
        return
    same(a ** n, ref(a) ** n)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_memoized_powers_match_reference(data):
    """Powers are kept on their base: asking again returns the same object,
    and whatever order they are asked in, each equals the dict reference.
    Every positive power is a product of the squares on the one ladder its
    base keeps, so a power asked later reuses the squares of earlier ones."""
    field = data.draw(st.sampled_from(FIELDS))
    a = data.draw(series(field, max_prec=80, max_terms=12))
    lo = 0 if a.is_zero_to_precision() else -4
    exps = data.draw(st.lists(st.integers(lo, 20), min_size=1, max_size=8))
    first = [a ** n for n in exps]
    for n, x in zip(exps, first):
        assert a ** n is x
        same(x, ref(a) ** n)
    if lo:
        assert a.inverse() is a.inverse()
        same(a.inverse(), ref(a).inverse())


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_compose_matches_reference(data):
    field = data.draw(st.sampled_from(FIELDS))
    f = data.draw(series(field, max_prec=12, max_terms=6, vals=(-4, 8)))
    tau = data.draw(series(field, max_prec=60, max_terms=10, vals=(1, 3)))
    if tau.is_zero_to_precision():
        return
    same(compose(f, tau), dict_series.compose(ref(f), ref(tau)))


def one_byte_slot_limit(field) -> int:
    """The least length of the shorter factor whose product slots take more
    than one byte: a slot sums at most a (p - 1)^2 per coefficient of it."""
    return 255 // (field.a * (field.p - 1) ** 2) + 1


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_products_on_both_sides_of_the_one_byte_slot_limit_match_reference(
        data):
    """The shorter factor one coefficient below the limit and at it: 63/64
    for F_3 and F_16, 127/128 for F_4 and 15/16 for F_5.  Below it F_2 and
    F_3 multiply their records as they are, one slot per coefficient, and
    the bit layout spreads into one-byte slots; at it every field widens
    its slots.  Both orders of the factors, and the square of each, with
    factors dense in random or in full (every digit p - 1) coefficients.
    The inverse of each factor, whose Newton steps multiply by prefixes of
    up to that length, and the composition with T a, whose Horner step
    multiplies by a, take the same lengths through mul."""
    field = data.draw(st.sampled_from(FIELDS))
    limit = max(2, one_byte_slot_limit(field))
    short = data.draw(st.sampled_from([limit - 1, limit]))
    lengths = (short, data.draw(st.integers(short, short + 16)))
    if data.draw(st.booleans()):
        coeff = st.just(field.from_index(field.q - 1))
    else:
        coeff = st.integers(1, field.q - 1).map(field.from_index)
    a, b = (TruncatedSeries(field, {e: data.draw(coeff) for e in range(n)},
                            sum(lengths)) for n in lengths)
    same(a * b, ref(a) * ref(b))
    same(b * a, ref(b) * ref(a))
    same(a * a, ref(a) * ref(a))
    same(b * b, ref(b) * ref(b))
    same(a.inverse(), ref(a).inverse())
    same(b.inverse(), ref(b).inverse())
    f = TruncatedSeries(field, {e: c for e, c in b.terms.items() if e < 3},
                        b.prec)
    same(compose(f, a.shift(1)), dict_series.compose(ref(f), ref(a.shift(1))))


def test_one_byte_slot_limits_of_the_workload_fields():
    assert [one_byte_slot_limit(field_create(p, a)) for p, a in
            [(3, 1), (2, 4), (2, 2), (5, 1), (2, 1)]] == [64, 64, 128, 16, 256]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_subst_matches_reference_with_sigma_on_both_sides_of_its_length(data):
    """_Ring.subst(x, sigma, gap, n), the sum of x_k (T^gap sigma)^k mod
    T^n, equals Horner on coefficient dicts.  Its partial sums have at most
    n - gap coefficients, the most of sigma that a step's product reads;
    sigma is drawn shorter than that and longer.  n runs to 300, so that
    Horner steps take the one-byte slots and, past 15 coefficients over
    F_5, 63 over F_3 and F_16 and 127 over F_4, wider ones; x keeps at most
    12 terms, so that the reference stays cheap."""
    field = data.draw(st.sampled_from(FIELDS))
    ring = _ring(field)
    gap = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(gap + 2, 300))
    size = data.draw(st.one_of(st.integers(1, n - gap - 1),
                               st.integers(n - gap + 1, n - gap + 16)))
    coeff = st.integers(0, field.q - 1).map(field.from_index)
    xs = data.draw(st.lists(coeff, min_size=1,
                            max_size=min(-(-n // gap) + 2, 12)))
    sigma = data.draw(st.lists(coeff, min_size=size, max_size=size))
    got = ring.subst(ring.encode([c.coeffs for c in xs]),
                     ring.encode([c.coeffs for c in sigma]), gap, n)
    tau = {gap + e: c for e, c in enumerate(sigma) if c}
    want = {}
    for c in reversed(xs):
        want = dict_series._dmul(want, tau, n)
        accumulate(want, [(0, c)])
    assert len(got) == n * ring.r
    assert {e: FieldElement(field, d) for e, d in enumerate(ring.decode(got))
            if any(d)} == want


def refine(data, s, extra=24):
    """A series that agrees with s below s.prec and carries random terms
    from there up to its own precision s.prec + extra: one of the series
    that s + O(T^s.prec) stands for."""
    field = s.field
    digits = data.draw(st.lists(st.integers(0, field.q - 1), min_size=extra,
                                max_size=extra))
    terms = dict(s.terms)
    terms.update((s.prec + k, field.from_index(i)) for k, i in enumerate(digits))
    return TruncatedSeries(field, terms, s.prec + extra)


def honest(claimed, refined):
    """claimed's terms are those of refined below claimed.prec."""
    assert refined.prec >= claimed.prec
    assert {e: c for e, c in refined.terms.items() if e < claimed.prec} \
        == dict(claimed.terms)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_results_claim_only_what_their_inputs_determine(data):
    """Replacing the unknown tail of each input by random terms changes no
    coefficient that a result claims: products, powers, inverses, shifts
    and compositions."""
    field = data.draw(st.sampled_from(FIELDS))
    f = data.draw(series(field, max_prec=80, max_terms=12))
    g = data.draw(series(field, max_prec=80, max_terms=12))
    f2, g2 = refine(data, f), refine(data, g)
    honest(f * g, f2 * g2)
    k = data.draw(st.integers(-20, 20))
    honest(f.shift(k), f2.shift(k))
    for n in range(-3, 6):
        if n >= 0 or not f.is_zero_to_precision():
            honest(f ** n, f2 ** n)
    if not f.is_zero_to_precision():
        honest(f.inverse(), f2.inverse())
    h = data.draw(series(field, max_prec=12, max_terms=6, vals=(-4, 8)))
    tau = data.draw(series(field, max_prec=40, max_terms=8, vals=(1, 3)))
    if not tau.is_zero_to_precision():
        honest(compose(h, tau), compose(refine(data, h, 8), refine(data, tau)))


def test_full_slots_match_reference():
    """Dense operands with every digit p - 1 fill each slot to its bound."""
    for field in FIELDS:
        top = field.from_index(field.q - 1)
        n = 300 if field.q < 1 << 16 else 60
        a = TruncatedSeries(field, {e: top for e in range(-20, n - 20)}, n - 20)
        same(a * a, ref(a) * ref(a))


def test_index_component_round_trip():
    """Element indices to records and back through the ring's codec, and
    outside the bit layout (whose products spread and gather in mul itself)
    through the strided slot layout at widths from one digit to nine bytes,
    with and without the 2a - 1 product slots."""
    rng = random.Random(5)
    for field in FIELDS:
        ring = _ring(field)
        idx = [0] + [rng.randrange(field.q) for _ in range(40)] + [field.q - 1]
        data = ring.encode([field.from_index(i).coeffs for i in idx])
        assert len(data) == len(idx) * ring.r
        back = [index_of(FieldElement(field, t)) for t in ring.decode(data)]
        assert back == idx
        assert [ring.digits(data, k) for k in range(len(idx))] == \
            [field.from_index(i).coeffs for i in idx]
        if ring.bits:
            continue
        for w in range(ring.d, 10):
            for st in (field.a * w, (2 * field.a - 1) * w):
                assert ring.reduce(ring.pack(data, w, st), w, st,
                                   len(idx)) == data


def bits_of(v: int) -> list:
    return [i for i in range(v.bit_length()) if v >> i & 1]


@pytest.mark.parametrize("a", [2, 3, 4])
@pytest.mark.parametrize("w", [1, 2, 3, 4])
def test_spread_and_gather_move_every_bit_to_a_position_of_its_own(a, w):
    """The two multiplications of the bit layout carry nowhere: over three
    adjacent lanes, the shifted copies that the ring's multipliers make of
    each bit land on distinct positions, so each product is the OR of its
    copies.  The spread's mask keeps the copy of bit i of lane n at bit 0 of
    slot i of lane n, and the byte the gather reads, the first of each
    lane's last slot, holds exactly that lane's 2a - 1 parities, slot s at
    bit s."""
    ring = _ring(field_create(2, a))
    m = 2 * a - 1
    lane = 8 * m * w
    _, spread, keep, gather, parity = ring._lanes(w, 3)
    three = (1 << 3 * lane) - 1  # the masks cover at least three lanes
    keep, parity = keep & three, parity & three
    copies = {}
    for n in range(3):
        for i in range(a):  # bit i of the byte at the start of lane n
            for e in bits_of(spread):
                copies.setdefault(lane * n + i + e, []).append((n, i))
    assert all(len(v) == 1 for v in copies.values())
    assert {pos: v[0] for pos, v in copies.items() if keep >> pos & 1} == \
        {lane * n + 8 * w * i: (n, i) for n in range(3) for i in range(a)}
    assert bits_of(parity) == [8 * w * u for u in range(3 * m)]
    copies = {}
    for u in range(3 * m):  # the parity of slot u
        for e in bits_of(gather):
            copies.setdefault(8 * w * u + e, []).append(u)
    assert all(len(v) == 1 for v in copies.values())
    for n in range(3):
        read = lane * n + 8 * w * (m - 1)
        assert [copies.get(read + b) for b in range(8)] == \
            [[m * n + b] if b < m else None for b in range(8)]


def test_a_series_is_one_string_of_fixed_width_records():
    """A series is one byte string of r-byte records, the coefficient of
    T^(val + k) in record k.  Over F_4, F_8 and F_16 r = 1 and bit i of the
    byte is digit i; otherwise r = a d, and digit i of record k is the d
    little-endian bytes at (k a + i) d."""
    for p, a, r in [(2, 1, 1), (5, 1, 1), (2, 2, 1), (2, 3, 1), (2, 4, 1),
                    (3, 2, 2), (3, 3, 3), (2, 16, 16), (257, 1, 2),
                    (257, 2, 4)]:
        field = field_create(p, a)
        ring = _ring(field)
        assert (ring.bits, ring.r) == (p == 2 and 1 < a <= 4, r)
        top = field.from_index(field.q - 1)  # every digit p - 1
        s = TruncatedSeries(field, {-1: top, 2: field.one()}, 10)
        if ring.bits:
            record = [field.q - 1]
        else:
            record = [(p - 1) >> 8 * b & 255 for b in range(ring.d)] * a
        zero, unit = [0] * r, [1] + [0] * (r - 1)
        assert (s.val, s.prec) == (-1, 10)
        assert s.data == bytes(record + zero + zero + unit)


def test_dense_product_over_f_2_16_matches_reference():
    """Length-400 dense operands over F_{2^16}: two-byte slots, 31 per
    coefficient, every one of them reduced through the translate tables."""
    field = field_create(2, 16)
    rng = random.Random(3)
    a, b = (TruncatedSeries(field, {e: field.from_index(rng.randrange(1, field.q))
                                    for e in range(400)}, 400) for _ in "ab")
    same(a * b, ref(a) * ref(b))


def test_pow_at_nonpositive_precision_matches_reference():
    """A series with a pole at a precision <= 0 keeps its relative
    precision prec - val in every positive power, and T^0 at such a
    precision is itself an apparent zero."""
    for field in FIELDS[:4]:
        c = field.from_index(field.q - 1)
        for prec in (-3, 0):
            a = TruncatedSeries(field, {-5: c, -4: c}, prec)
            for n in range(-2, 5):
                same(a ** n, ref(a) ** n)
                if n:
                    assert (a ** n).prec == -5 * n + prec + 5


def check_unit(f, j, prec):
    """Assert that the unit equals the reference's; return its cap."""
    field = f.field
    alpha, beta = _uniformizer_exponents(field.p, j)
    s = _solve_unit(f, j, alpha, beta, prec)
    terms, cap = dict_series.solve_unit(dict(f.terms), f.prec, field, j,
                                        alpha, beta, prec)
    assert dict(s.terms) == terms
    assert s.prec == cap
    return cap


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_solve_unit_matches_fixed_point_iteration(data):
    """The unit of one tower step, against the plain iteration at modulus."""
    field = data.draw(st.sampled_from(FIELDS[:7]))
    p = field.p
    j = data.draw(st.integers(1, 9).filter(lambda j: j % p))
    f_prec = data.draw(st.integers(1, 12))
    lead = field.from_index(data.draw(st.integers(1, field.q - 1)))
    tail = data.draw(series(field, max_prec=f_prec, max_terms=10,
                            vals=(1 - j, f_prec)))
    f = TruncatedSeries(field, {-j: lead, **tail.terms}, f_prec)
    # at prec <= p the reference's tau is empty and its Horner step fails
    prec = data.draw(st.integers(p + 1, 64))
    check_unit(f, j, prec)


@pytest.mark.parametrize("p,j,tail,cap", [
    (2, 1, {2: 1}, 256),    # alpha = 0, beta = -1
    (2, 5, {0: 1}, 256),    # alpha (p-1) = 3, odd
    (5, 3, {7: 1}, 256),    # alpha (p-1) = 8 = 3 mod 5
    # F_257 takes two-byte digits, the d > 1 branch of _Ring.weigh
    (257, 2, {-1: 5, 1: 2}, 700),
    (257, 3, {-2: 7, -1: 3}, 900),
], ids=["2-1-tail0", "2-5-tail1", "5-3-tail2", "257-2-cap700", "257-3-cap900"])
def test_solve_unit_matches_fixed_point_iteration_at_cap_256(p, j, tail, cap):
    """Newton's eight passes to cap 256, and past it over F_257.  The
    reference iterates about cap times over dense dicts, so f has few terms
    and a cheap reference."""
    field = field_create(p, 1)
    f_prec = -(-(cap - j * p) // p)  # the least with p*prec + jp >= cap
    f = TruncatedSeries(field, {-j: field.one(), **{
        e: field.from_index(c) for e, c in tail.items()}}, f_prec)
    assert check_unit(f, j, cap) == cap


@pytest.mark.parametrize("p,a,j", [(2, 4, 1), (5, 1, 3), (3, 1, 2)])
def test_unit_solve_kernel_products_stay_bounded(p, a, j, monkeypatch):
    """Operation count, not time: the Newton lift of a dense step at cap 256
    takes at most 1000 kernel products (the coefficient-per-pass lift it
    replaced took 37214, 3105 and 7735 on these shapes; this one takes 402,
    209 and 311).  Series products, powers, substitutions and Newton
    inverses form every big-integer product through series._product."""
    calls = [0]
    product = series_module._product

    def counting(u, v):
        calls[0] += 1
        return product(u, v)

    field = field_create(p, a)
    rng = random.Random(p * 100 + j)
    f = TruncatedSeries(field, {e: field.from_index(rng.randrange(1, field.q))
                                for e in range(-j, 256)}, 256)
    alpha, beta = _uniformizer_exponents(p, j)
    monkeypatch.setattr(series_module, "_product", counting)
    s = _solve_unit(f, j, alpha, beta, 256)
    assert s.prec == 256
    assert calls[0] <= 1000


# F_257 takes two-byte digits
INVERSE_FIELDS = FIELDS + [field_create(257, 1)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_inverse_from_a_known_prefix_matches_a_fresh_one(data):
    field = data.draw(st.sampled_from(INVERSE_FIELDS))
    ring = _ring(field)
    u = data.draw(series(field, max_prec=200, vals=(0, 0)))
    n = data.draw(st.integers(1, 200))
    fresh = ring.inverse(u.data, n)
    k = data.draw(st.integers(1, n + 3))
    start = ring.inverse(u.data, k)
    assert ring.inverse(u.data, n, start) == fresh


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_solve_unit_with_carried_inverses_matches_fresh_ones_per_pass(data):
    """Each Newton pass of the step unit extends the last pass's 1/F'(s)
    and, for beta < 0, its 1/s, and the last 1/s starts the inverse the
    unit keeps; inverting from scratch in every call gives the same unit."""
    field = data.draw(st.sampled_from(INVERSE_FIELDS))
    p = field.p
    j = data.draw(st.integers(1, 9).filter(lambda j: j % p))
    f_prec = data.draw(st.integers(1, 60))
    lead = field.from_index(data.draw(st.integers(1, field.q - 1)))
    tail = data.draw(series(field, max_prec=f_prec, max_terms=40,
                            vals=(1 - j, f_prec)))
    f = TruncatedSeries(field, {-j: lead, **tail.terms}, f_prec)
    cap = data.draw(st.integers(1, 400))
    alpha, beta = _uniformizer_exponents(p, j)
    inverse, carried = _Ring.inverse, []

    def fresh(self, u, n, g=None):
        carried.append(g is not None)
        return inverse(self, u, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Ring, "inverse", fresh)
        reference = _solve_unit(f, j, alpha, beta, cap)
    s = _solve_unit(f, j, alpha, beta, cap)
    assert (s.val, s.data, s.prec) == \
        (reference.val, reference.data, reference.prec)
    # the calls: s = 1/c mod T^n0, then per pass 1/F'(s), and 1/s for
    # beta < 0 and a nonconstant u once tau has a coefficient (n2 > p),
    # then the unit's 1/s.  The passes double from n0 = min(j(p-1), p v_g,
    # cap), v_g the first nonconstant term of u = t^j f among those with
    # p v_g < cap (none: u is constant).  Each carried inverse starts from
    # scratch once: 1/F'(s) in the first pass, 1/s in its first pass or,
    # with none, for the unit
    cap = s.prec  # _solve_unit cuts the cap to what f determines
    v_g = min((e + j for e in f.terms if -j < e and p * (e + j) < cap),
              default=None)
    n = min(j * (p - 1), cap, cap if v_g is None else p * v_g)
    passes = []
    while n < cap:
        n = min(2 * n, cap)
        passes.append(n)
    s_passes = sum(n2 > p for n2 in passes) if beta < 0 and v_g is not None \
        else 0
    assert len(carried) == 1 + len(passes) + s_passes + 1
    assert carried.count(False) == 2 + bool(passes)


# the fields of the tower workloads and their neighbours: p = 2, 3, 5, a <= 4
TOWER_FIELDS = [field_create(p, a) for p in (2, 3, 5) for a in range(1, 5)]


def newton_from_one_coefficient(ring, u, n):
    """1/u mod T^n by Newton iteration from g = 1/u_0: with g = 1/u mod T^k
    and -u g = -1 + T^k e, g + T^k g e = 1/u mod T^2k.  The kernel's
    inverse started here before it started from the longest prefix known
    exactly; Newton from any exact prefix reaches the same answer."""
    r = ring.r
    g = ring.encode(
        [FieldElement(ring.field, ring.digits(u, 0)).inverse().coeffs])
    while (k := len(g) // r) < n:
        k2 = min(2 * k, n)
        e = ring.mul(ring.neg(u), g, k2)[k * r:]
        g += ring.mul(g, e, k2 - k)
    return g[:n * r]


def fresh_inverse(f):
    """What f.inverse() computes when f keeps none: Newton from f's first
    coefficient, at f's relative precision."""
    v, ring = f.valuation(), _ring(f.field)
    return TruncatedSeries._make(
        ring, -v, newton_from_one_coefficient(ring, f.data, f.prec - v),
        f.prec - 2 * v)


def same_series(a, b):
    assert (a.val, a.data, a.prec) == (b.val, b.data, b.prec)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_the_step_unit_keeps_the_inverse_newton_gives(data):
    """The 1/s that step_unit hands its unit, started from the last pass's
    1/s (valid only mod T^n of that pass), equals a fresh Newton inverse in
    valuation, records and precision.  Caps run past 2p, where the last
    pass's inverse is longer than the part of it that holds.  j = 1, the
    case beta < 0, is drawn about half of the time."""
    field = data.draw(st.sampled_from(TOWER_FIELDS))
    p = field.p
    j = data.draw(st.one_of(st.just(1),
                            st.integers(2, 9).filter(lambda j: j % p)))
    f_prec = data.draw(st.integers(1, 60))
    lead = field.from_index(data.draw(st.integers(1, field.q - 1)))
    tail = data.draw(series(field, max_prec=f_prec, max_terms=40,
                            vals=(1 - j, f_prec)))
    f = TruncatedSeries(field, {-j: lead, **tail.terms}, f_prec)
    cap = data.draw(st.one_of(st.integers(1, 4 * p), st.integers(1, 300)))
    s = _solve_unit(f, j, *_uniformizer_exponents(p, j), cap)
    same_series(s.inverse(), fresh_inverse(s))
    assert s ** 1 is s


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_every_inverse_the_oracle_hands_a_series_is_newtons(data):
    """On two-step towers v^p - v = c1 x^-j1, w^p - w = c2 x^-j2 over
    F_(p^a), every inverse handed over by keep_inverse -- step_unit's 1/s,
    1/tau and 1/eta in _expand_tower, and 1/y' for the image of a chart
    with j = 1 -- equals a fresh Newton inverse in valuation, records
    and precision."""
    field = data.draw(st.sampled_from(TOWER_FIELDS))
    p = field.p
    j1 = data.draw(st.one_of(st.just(1),
                             st.integers(2, 7).filter(lambda j: j % p)))
    j2 = data.draw(st.integers(1, 7).filter(lambda j: j % p and j != j1))
    unit = st.integers(1, field.q - 1).map(field.from_index)
    tower = TowerSpec(field, 1, (
        TowerStep("v", VarPoly.var(field, "x", -j1).scale(data.draw(unit))),
        TowerStep("w", VarPoly.var(field, "x", -j2).scale(data.draw(unit)))))
    one = VarPoly.const(field, field.one())
    gens = [GeneratorAction(tower, {"v": one}, "s"),
            GeneratorAction(tower, {"w": one}, "t")]
    keep, handed = TruncatedSeries.keep_inverse, []

    def recording(self, inv):
        handed.append((sys._getframe(1).f_code.co_name, self, inv))
        return keep(self, inv)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TruncatedSeries, "keep_inverse", recording)
        run = oracle_run(tower, gens, precision=256)
    for _, f, inv in handed:
        same_series(inv, fresh_inverse(f))
    callers = {name for name, _, _ in handed}
    assert {"step_unit", "_expand_tower"} <= callers
    assert ("_uniformizer_image" in callers) == (1 in run.pole_orders)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_compose_of_an_exact_monomial_is_the_kept_power(data):
    """compose(T^v, tau) is tau^v as tau keeps it, with its inverse, when
    the cap leaves it whole, and always what the reference composes."""
    field = data.draw(st.sampled_from(TOWER_FIELDS))
    v = data.draw(st.integers(-4, 4))
    f = TruncatedSeries.monomial(field, v, data.draw(st.integers(v + 1, 40)))
    tau = data.draw(series(field, max_prec=60, max_terms=10, vals=(1, 3)))
    if tau.is_zero_to_precision():
        return
    out = compose(f, tau)
    same(out, dict_series.compose(ref(f), ref(tau)))
    if (tau ** v).prec <= tau.val * f.prec:
        assert out is tau ** v
        assert v != 1 or out is tau
    same_series(out.inverse(), fresh_inverse(out))


def test_keep_inverse_holds_to_the_precision_rule():
    field = field_create(3, 2)
    f = TruncatedSeries(field, {-2: field.one(), 0: field.from_index(5)}, 7)
    inv = fresh_inverse(f)
    assert f.keep_inverse(inv) is f and f.inverse() is inv
    g = TruncatedSeries(field, {-2: field.one(), 0: field.from_index(5)}, 7)
    for wrong in (inv.truncate(inv.prec - 1), inv.shift(1),
                  TruncatedSeries.zero(field, inv.prec)):
        with pytest.raises(ValueError, match="precision prec - 2v"):
            g.keep_inverse(wrong)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_inverse_from_the_known_prefix_is_newton_from_one_coefficient(data):
    """_Ring.inverse starts from 1/u_0 and the zeros up to the first
    nonconstant term of u, or from a seed when that is longer; it equals
    Newton from the first coefficient on units u_0 + T^v w with v from 1 to
    past n, constants among them, with and without a seed."""
    field = data.draw(st.sampled_from(TOWER_FIELDS))
    ring = _ring(field)
    n = data.draw(st.integers(1, 300))
    v = data.draw(st.integers(1, n + 4))
    lead = field.from_index(data.draw(st.integers(1, field.q - 1)))
    # empty, and so u constant, when its precision is not past v
    w = data.draw(series(field, max_prec=n + 8, max_terms=40, vals=(v, v)))
    u = TruncatedSeries(field, {0: lead, **w.terms}, n + 8).data
    k = data.draw(st.one_of(st.none(), st.integers(1, n + 3)))
    seed = None if k is None else newton_from_one_coefficient(ring, u, k)
    assert ring.inverse(u, n, seed) == newton_from_one_coefficient(ring, u, n)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_the_step_unit_solves_the_step_equation(data):
    """The unit s that step_unit returns satisfies F(s) = s u(tau) +
    T^(j(p-1)) s^(alpha(p-1)) - 1 = 0 mod T^cap, tau = T^p s^beta, in the
    dict reference arithmetic: for constant and nonconstant u = t^j f, and
    for j = 1 (beta < 0) and j > 1."""
    field = data.draw(st.sampled_from(TOWER_FIELDS))
    p = field.p
    j = data.draw(st.one_of(st.just(1),
                            st.integers(2, 9).filter(lambda j: j % p)))
    f_prec = data.draw(st.integers(1, 20))
    lead = field.from_index(data.draw(st.integers(1, field.q - 1)))
    tail = {} if data.draw(st.booleans()) else data.draw(
        series(field, max_prec=f_prec, max_terms=10, vals=(1 - j, f_prec))).terms
    f = TruncatedSeries(field, {-j: lead, **tail}, f_prec)
    cap = data.draw(st.integers(1, 64))
    alpha, beta = _uniformizer_exponents(p, j)
    s = f.step_unit(alpha, beta, cap)
    assert s.prec == cap
    s_ref, shift = ref(s), j * (p - 1)
    tau = DictSeries.monomial(field, p, cap) * s_ref ** beta
    u = DictSeries(field, {e + j: c for e, c in f.terms.items()}, cap)
    # tau = O(T^cap) for cap <= p, where u(tau) is u_0 = lead
    u_tau = dict_series.compose(u, tau) if cap > p else \
        DictSeries.constant(field, lead, cap)
    residual = (s_ref * u_tau
                + DictSeries.monomial(field, shift, cap + shift)
                * s_ref ** (alpha * (p - 1))
                - DictSeries.constant(field, field.one(), cap))
    assert residual.terms == {}
    assert residual.prec == cap
