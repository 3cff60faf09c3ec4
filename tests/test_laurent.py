"""Laurent polynomial arithmetic, p-power decomposition, prime-to-p degree."""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramify import (DomainError, LaurentPoly, field_create, p_power_decompose,
                    prime_to_p_degree)
from ramify.gf import p_adic
from ramify.tower import VarPoly

from helpers import TEST_FIELDS, gen, recompose

F2 = field_create(2, 1)
F4 = field_create(2, 2)
F5 = field_create(5, 1)


def lp(field, terms):
    return LaurentPoly(field, {e: field.element(c) for e, c in terms.items()})


def test_ring_basics():
    z = gen(F4)
    a = LaurentPoly(F4, {-1: F4.one(), 2: z})
    b = lp(F4, {-1: 1})
    assert a + b == LaurentPoly(F4, {2: z})  # char 2 cancellation at x^-1
    assert a - a == LaurentPoly.zero(F4)
    assert sorted((a * b).terms) == [-2, 1]
    assert a * LaurentPoly.zero(F4) == LaurentPoly.zero(F4)


@pytest.mark.parametrize("poly", [
    LaurentPoly(F4, {-1: F4.one()}), VarPoly.var(F4, "v")],
    ids=["laurent", "varpoly"])
def test_a_field_element_multiplies_a_polynomial_only_by_scale(poly):
    z = gen(F4)
    assert poly.scale(z).terms == {k: z for k in poly.terms}
    with pytest.raises(TypeError):
        poly * z
    with pytest.raises(TypeError):
        z * poly


def test_mixed_pole_decomposition_p5():
    # x^-2 + x^-(3*25): the p-free slots are x^-2 at t=0 and x^-3 at t=2
    r = lp(F5, {-2: 1, -75: 1})
    parts = dict(p_power_decompose(r))
    assert set(parts) == {0, 2}
    assert parts[0] == lp(F5, {-2: 1})
    assert parts[2] == lp(F5, {-3: 1})
    assert prime_to_p_degree(r) == 3


def test_mixed_pole_degree_p2():
    # same shape at p = 2: x^-2 itself is a square, but the degree is still 3
    r = lp(F2, {-2: 1, -12: 1})
    assert prime_to_p_degree(r) == 3


def test_decompose_already_prime_to_p():
    r = lp(F2, {-1: 1})
    assert p_power_decompose(r) == [(0, r)]


def test_decompose_with_root_extraction():
    z3 = gen(F4)
    r = LaurentPoly(F4, {-4: F4.one(), -6: z3})
    parts = dict(p_power_decompose(r))
    assert set(parts) == {1, 2}
    assert parts[2] == lp(F4, {-1: 1})
    # the x^-6 coefficient's square root: (z3^2)^2 = z3^4 = z3
    assert parts[1] == LaurentPoly(F4, {-3: z3.sqrt()})
    assert recompose(list(parts.items()), F4) == r


def test_constant_has_degree_zero():
    assert prime_to_p_degree(lp(F4, {0: 1})) == 0


def test_single_even_pole():
    assert prime_to_p_degree(lp(F2, {-2: 1})) == 1


def test_zero_rejected():
    with pytest.raises(DomainError):
        p_power_decompose(LaurentPoly.zero(F2))
    with pytest.raises(DomainError):
        prime_to_p_degree(LaurentPoly.zero(F2))


def _laurent_strategy(field, min_exp=-12, max_exp=6):
    coeff = st.integers(min_value=0, max_value=field.q - 1)
    return st.dictionaries(
        st.integers(min_value=min_exp, max_value=max_exp), coeff,
        min_size=1, max_size=6,
    ).map(lambda d: LaurentPoly(field, {e: field.from_index(c)
                                        for e, c in d.items()}))


@settings(max_examples=80, deadline=None)
@given(_laurent_strategy(F4))
def test_decompose_recompose_roundtrip(r):
    if not r:
        return
    assert recompose(p_power_decompose(r), F4) == r


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([F2, F4, F5, field_create(3, 2)]).flatmap(
    lambda field: _laurent_strategy(field, -40, 12)))
def test_degree_matches_the_decomposition(r):
    # the exponents alone fix the degree; the decomposition, which also
    # takes p^t-th roots of the coefficients, is the oracle
    if not r:
        return
    parts = p_power_decompose(r)
    assert prime_to_p_degree(r) == max(-rt.min_exponent() for _, rt in parts)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(TEST_FIELDS).flatmap(
    lambda field: _laurent_strategy(field, -60, 20)))
def test_decompose_matches_iterated_roots(r):
    # the p^t-th root of a coefficient, taken as t p-th roots in turn
    if not r:
        return
    p, a = r.field.p, r.field.a
    slots = {}
    for e, c in r.terms.items():
        t, e0 = p_adic(e, p) if e else (0, 0)
        for _ in range(t):
            c = c ** (p ** (a - 1))
        slots.setdefault(t, {})[e0] = c
    assert p_power_decompose(r) == [(t, LaurentPoly(r.field, slots[t]))
                                    for t in sorted(slots)]


@settings(max_examples=60, deadline=None)
@given(_laurent_strategy(F4))
def test_degree_invariant_under_frobenius(r):
    if not r:
        return
    assert prime_to_p_degree(r.frobenius_power(1)) == prime_to_p_degree(r)


@settings(max_examples=60, deadline=None)
@given(_laurent_strategy(F4), _laurent_strategy(F4))
def test_degree_of_sum(r1, r2):
    if not r1 or not r2:
        return
    s = r1 + r2
    if not s:
        return
    d1, d2 = prime_to_p_degree(r1), prime_to_p_degree(r2)
    assert prime_to_p_degree(s) <= max(d1, d2)
    # equality whenever the leading prime-to-p supports cannot cancel
    if d1 != d2:
        assert prime_to_p_degree(s) == max(d1, d2)


def test_json_roundtrip():
    r = LaurentPoly(F4, {-3: gen(F4), 2: F4.one()})
    doc = r.to_json()
    assert doc == {"terms": [[-3, [0, 1]], [2, [1, 0]]]}
    assert LaurentPoly.from_json(F4, doc) == r


# -- the sparse kernel against a naive dict reference ----------------------------

def _naive_add(field, a, b):
    out = {e: a.get(e, field.zero()) + b.get(e, field.zero())
           for e in set(a) | set(b)}
    return {e: c for e, c in out.items() if c}


def _naive_mul(field, a, b, mono_mul):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            k = mono_mul(e1, e2)
            out[k] = out.get(k, field.zero()) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _naive_pow(field, a, n, one, mono_mul):
    out = {one: field.one()}
    for _ in range(n):
        out = _naive_mul(field, out, a, mono_mul)
    return out


def _naive_var_mul(k1, k2):
    exps = {}
    for var, e in k1 + k2:
        exps[var] = exps.get(var, 0) + e
    return tuple(sorted((var, e) for var, e in exps.items() if e))


# (subclass, its monomial keys, their product, the key of 1)
KERNELS = [
    (LaurentPoly, st.integers(-4, 4), operator.add, 0),
    (VarPoly, st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(
        lambda es: tuple((var, e) for var, e in zip("vx", es) if e)),
     _naive_var_mul, ()),
]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_sparse_kernel_matches_naive_reference(data):
    # both subclasses of the one kernel: x^e, and x^a v^b
    cls, keys, mono_mul, one = data.draw(st.sampled_from(KERNELS))
    field = data.draw(st.sampled_from([F4, F5]))
    raw = st.dictionaries(keys, st.integers(0, field.q - 1), max_size=4)
    a_raw, b_raw = data.draw(raw), data.draw(raw)
    n = data.draw(st.integers(0, 4))
    # zero coefficients in the input are dropped by the public constructor
    a = {e: field.from_index(c) for e, c in a_raw.items() if c}
    b = {e: field.from_index(c) for e, c in b_raw.items() if c}
    if data.draw(st.booleans()):
        b = {e: -c for e, c in a.items()}  # the sum cancels completely
    pa = cls(field, {e: field.from_index(c) for e, c in a_raw.items()})
    pb = cls(field, b)
    cases = [
        ((pa + pb).terms, _naive_add(field, a, b)),
        ((pa * pb).terms, _naive_mul(field, a, b, mono_mul)),
        ((pa ** n).terms, _naive_pow(field, a, n, one, mono_mul)),
    ]
    for got, expected in cases:
        assert all(got.values()), "a zero coefficient is stored"
        assert got == expected
