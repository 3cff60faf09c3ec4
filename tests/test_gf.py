"""Field construction, roots of unity and Frobenius roots."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramify import DomainError, degree_over_prime, field_create, root_of_unity
from ramify.gf import ORDER_CAP, Field, p_adic, prime_factors

from helpers import TEST_FIELDS, element_from_json, element_order, subfield_units


def brute_force_irreducible(coeffs, p):
    """Independent check: no monic factor of degree 1..deg/2 divides."""
    deg = len(coeffs) - 1

    def poly_mod(a, mod):
        a = list(a)
        dm = len(mod) - 1
        for i in range(len(a) - 1, dm - 1, -1):
            c = a[i] % p
            if c:
                for j in range(dm + 1):
                    a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
        while a and a[-1] % p == 0:
            a.pop()
        return a

    for d in range(1, deg // 2 + 1):
        for idx in range(p ** d):
            cand, n = [], idx
            for _ in range(d):
                cand.append(n % p)
                n //= p
            cand.append(1)
            if not poly_mod(coeffs, cand):
                return False
    return True


def test_prime_field_modulus():
    F = field_create(2, 1)
    assert F.q == 2
    assert F.modulus == (0, 1)  # plain z


def test_f4_modulus_is_z2_z_1():
    F = field_create(2, 2)
    assert F.modulus == (1, 1, 1)
    # zeta_3 is a root of x^2 + x + 1
    z = root_of_unity(F, 3)
    assert z * z + z + F.one() == F.zero()


def test_f9_modulus_brute_force_irreducible():
    F = field_create(3, 2)
    assert brute_force_irreducible(list(F.modulus), 3)
    # and it is the first irreducible in index order
    assert F.modulus == (1, 0, 1)


@pytest.mark.parametrize("p,a", [(2, 1), (2, 2), (3, 2), (2, 4), (5, 1)])
def test_field_axioms(p, a):
    F = field_create(p, a)
    elems = list(F.elements())
    assert len(elems) == p ** a
    one = F.one()
    for x in elems:
        assert x ** F.q == x
        if x:
            assert x * x.inverse() == one
        assert x.pth_root().frobenius() == x
        assert x.frobenius().pth_root() == x


def test_field_create_errors():
    with pytest.raises(DomainError):
        field_create(4, 1)
    with pytest.raises(DomainError):
        field_create(2, 0)
    with pytest.raises(DomainError):
        field_create(2, 25)  # beyond the desk-scale cap


def test_root_of_unity_trivial():
    F = field_create(2, 1)
    assert root_of_unity(F, 1) == F.one()


def test_root_of_unity_f9_order8():
    F = field_create(3, 2)
    g = root_of_unity(F, 8)
    seen = set()
    x = F.one()
    for _ in range(8):
        x = x * g
        seen.add(x.coeffs)
    assert len(seen) == 8  # order exactly 8, checked by enumerating powers
    assert x == F.one()


def test_root_of_unity_requires_divisibility():
    with pytest.raises(DomainError):
        root_of_unity(field_create(2, 2), 5)


def test_root_of_unity_deterministic():
    F = field_create(2, 4)
    assert root_of_unity(F, 5) == root_of_unity(F, 5)
    assert root_of_unity(F, 15) ** 3 == root_of_unity(F, 5)


def test_degree_over_prime():
    F4 = field_create(2, 2)
    assert degree_over_prime(F4.one()) == 1
    z3 = root_of_unity(F4, 3)
    assert degree_over_prime(z3) == 2
    # brute force: the minimal polynomial of z3 over F_2 is x^2 + x + 1
    assert z3 * z3 + z3 + F4.one() == F4.zero()
    assert z3 != F4.zero() and z3 != F4.one()


@pytest.mark.parametrize("p,a", [(2, 4), (3, 2)])
def test_degree_divides_extension(p, a):
    F = field_create(p, a)
    for x in F.elements():
        if x:
            assert a % degree_over_prime(x) == 0


def test_subfield_units():
    F16 = field_create(2, 4)
    units = subfield_units(F16, 4)
    assert len(units) == 3
    for u in units:
        assert u ** 4 == u and u
    with pytest.raises(DomainError):
        subfield_units(F16, 8)  # F_8 is not inside F_16


def test_element_json_roundtrip():
    F = field_create(2, 2)
    z = root_of_unity(F, 3)
    doc = z.to_json()
    assert doc == {"p": 2, "a": 2, "coeffs": [0, 1]}
    assert element_from_json(doc) == z


def test_arithmetic_beyond_table_cap():
    # F_{3^8} has order 6561 > 4096, so multiplication and inversion take the
    # polynomial path instead of discrete-log tables
    F = field_create(3, 8)
    assert F._log is None
    x = F.from_index(12345)
    y = F.from_index(4321)
    assert (x * y) * y.inverse() == x
    assert x.pth_root().frobenius() == x
    assert x ** F.q == x


def test_root_of_unity_past_the_table_cap():
    # F_65521 builds no tables, so its generator is searched for on the
    # first root asked of it; a fresh field, as field_create's may have one
    F = Field(65521, 1)
    assert F._gen is None
    zeta = root_of_unity(F, 8)
    assert F._gen is not None
    assert element_order(zeta) == 8
    assert element_order(F.multiplicative_generator()) == F.q - 1


# F_{2^13} is past the log-table cap, so it runs the polynomial path
ARITHMETIC_FIELDS = [field_create(p, a) for p, a in [
    (2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 4), (2, 13)]]


def _tuple_mul(F, x, y):
    """Schoolbook product of coefficient tuples, reduced by the monic
    modulus from the top degree down."""
    p, a = F.p, F.a
    prod = [0] * (2 * a - 1)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            prod[i + j] += xi * yj
    for k in range(len(prod) - 1, a - 1, -1):
        c = prod[k] % p
        for j, m in enumerate(F.modulus):
            prod[k - a + j] -= c * m
    return tuple(c % p for c in prod[:a])


def _tuple_pow(F, x, k):
    if k < 0:
        x, k = _tuple_pow(F, x, F.q - 2), -k  # x^(q-2) = 1/x for x != 0
    out = (1,) + (0,) * (F.a - 1)
    for bit in bin(k)[2:]:
        out = _tuple_mul(F, out, out)
        if bit == "1":
            out = _tuple_mul(F, out, x)
    return out


def test_zero_and_one_are_shared():
    for F in ARITHMETIC_FIELDS:
        assert F.zero() is F.zero() and F.zero() == F.element(0)
        assert F.one() is F.one() and F.one() == F.element(1)
        assert F.zero().coeffs == (0,) * F.a
        assert F.one().coeffs == (1,) + (0,) * (F.a - 1)


def _arithmetic_case(F):
    coeffs = st.lists(st.integers(0, F.p - 1), min_size=F.a, max_size=F.a)
    return st.tuples(st.just(F), coeffs, coeffs, st.integers(-20, 20))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(ARITHMETIC_FIELDS).flatmap(_arithmetic_case))
def test_element_arithmetic_matches_coefficient_tuples(case):
    F, xs, ys, k = case
    x, y = F.element(xs), F.element(ys)
    xt, yt, p = tuple(xs), tuple(ys), F.p
    assert (x + y).coeffs == tuple((u + v) % p for u, v in zip(xt, yt))
    assert (x - y).coeffs == tuple((u - v) % p for u, v in zip(xt, yt))
    assert (-x).coeffs == tuple(-u % p for u in xt)
    assert (x * y).coeffs == _tuple_mul(F, xt, yt)
    assert (x == y) == (xt == yt) and (x != y) == (xt != yt)
    assert x == F.element(xs) and hash(x) == hash(F.element(xs))
    assert bool(x) == any(xt)
    if any(yt):
        inv = y.inverse()
        assert _tuple_mul(F, yt, inv.coeffs) == F.one().coeffs
        assert (x / y).coeffs == _tuple_mul(F, xt, inv.coeffs)
    else:
        for bad in (y.inverse, lambda: x / y, lambda: y ** -1):
            with pytest.raises(DomainError, match="inverse of zero"):
                bad()
    if k >= 0 or any(xt):
        assert (x ** k).coeffs == _tuple_pow(F, xt, k)
    other = field_create(7, 1).one()
    assert x != other
    with pytest.raises(DomainError, match="different fields"):
        x + other


def test_p_adic_split():
    assert p_adic(48, 2) == (4, 3)
    assert p_adic(-45, 3) == (2, -5)
    assert p_adic(7, 5) == (0, 7)
    assert p_adic(5 ** 40, 5) == (40, 1)


def test_prime_factors_stop_at_the_limit():
    assert prime_factors(360) == [2, 3, 5]
    assert prime_factors(1) == prime_factors(0) == []
    assert prime_factors(1048573) == [1048573]  # the largest prime <= 2^20
    assert prime_factors(2 ** 100 * 1048573) == [2, 1048573]
    for n in (1048583, 1048583 * 6, 2 ** 61 - 1, (2 ** 61 - 1) ** 2):
        with pytest.raises(DomainError, match="past the limit 2\\^20"):
            prime_factors(n)
    with pytest.raises(DomainError, match="past the limit 2\\^20"):
        field_create(2 ** 61 - 1, 1)
    with pytest.raises(DomainError, match=f"exceeds the cap {ORDER_CAP}"):
        field_create(3, 10 ** 9)


def _prime_factors_by_every_integer(n):
    """prime_factors as one trial division by every integer up to the limit."""
    out = []
    f = 2
    while f * f <= n and f <= ORDER_CAP:
        if n % f == 0:
            out.append(f)
            n = p_adic(n, f)[1]
        f += 1
    if n > ORDER_CAP:
        raise DomainError(f"{n} has a prime factor past the limit 2^20")
    if n > 1:
        out.append(n)
    return out


def _factors_or_message(fn, n):
    try:
        return fn(n)
    except DomainError as exc:
        return str(exc)


def test_prime_factors_match_division_by_every_integer():
    for n in range(-2, 200_000):
        assert prime_factors(n) == _prime_factors_by_every_integer(n), n
    # around the limit: 1048571 and 1048573 are the last primes below 2^20,
    # 1048583 the first above it
    for n in (1048571 * 1048573, 1048573 ** 2, 1048573 * 1048583,
              1048583 ** 2, 6 * 1048583, 2 ** 20, 2 ** 20 + 1,
              5 * 7 * (2 ** 61 - 1), 1048571 * 1048573 ** 2):
        assert _factors_or_message(prime_factors, n) == \
            _factors_or_message(_prime_factors_by_every_integer, n), n


@pytest.mark.parametrize("p,a", [(2, 4), (3, 2), (7, 2), (2, 13)])
def test_multiplicative_order_is_least(p, a):
    F = field_create(p, a)
    for i in range(1, min(F.q, 200)):
        x = F.from_index(i)
        n = element_order(x)
        assert x ** n == F.one()
        assert all(x ** (n // r) != F.one() for r in prime_factors(n))



@settings(max_examples=300, deadline=None)
@given(st.sampled_from(TEST_FIELDS).flatmap(
    lambda F: st.builds(F.from_index, st.integers(0, F.q - 1))),
    st.integers(-9, 9))
def test_frobenius_matches_iterated_powers_and_roots(x, k):
    p, a = x.field.p, x.field.a
    root = x ** (p ** (a - 1))  # x^(p^(a-1)) is the p-th root of x
    assert x.pth_root() == root
    y = x
    for _ in range(abs(k)):
        y = y ** p if k > 0 else y ** (p ** (a - 1))
    assert x.frobenius(k) == y
    for b in range(1, 4):
        y = x
        for _ in range(b):
            y = y ** (p ** (a - 1))
        assert x.frobenius(-b) == y
