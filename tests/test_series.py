"""Truncated series arithmetic and precision bookkeeping."""

import pytest

from ramify import PrecisionError, TruncatedSeries, field_create
from ramify.series import compose

from helpers import gen

F2 = field_create(2, 1)
F4 = field_create(2, 2)


def ts(field, terms, prec):
    return TruncatedSeries(field, {e: field.element(c) for e, c in terms.items()},
                           prec)


def test_add_and_precision():
    a = ts(F2, {0: 1, 3: 1}, 5)
    b = ts(F2, {3: 1}, 4)
    s = a + b
    assert s.terms == {0: F2.one()}
    assert s.prec == 4


def test_mul_precision_rule():
    a = ts(F2, {-2: 1}, 5)   # valuation -2, prec 5
    b = ts(F2, {1: 1}, 6)    # valuation 1, prec 6
    prod = a * b
    assert prod.valuation() == -1
    assert prod.prec == min(5 + 1, 6 - 2)


def test_geometric_inverse():
    one_minus_t = ts(F2, {0: 1, 1: 1}, 8)  # 1 + T in char 2 is 1 - T
    inv = one_minus_t.inverse()
    assert inv.terms == {e: F2.one() for e in range(8)}
    check = one_minus_t * inv
    assert check.terms == {0: F2.one()}


def test_inverse_with_pole_precision():
    a = ts(F2, {-1: 1, 0: 1}, 6)
    inv = a.inverse()
    assert inv.valuation() == 1
    assert inv.prec == 6 - 2 * (-1)
    assert (a * inv).terms == {0: F2.one()}


def test_inverse_of_apparent_zero_raises():
    with pytest.raises(PrecisionError):
        TruncatedSeries.zero(F2, 5).inverse()


def test_pow_negative():
    t = TruncatedSeries.monomial(F2, 1, 10)
    assert (t ** -3).terms == {-3: F2.one()}


def test_char_p_square():
    a = ts(F2, {1: 1, 2: 1}, 9)
    sq = a ** 2
    assert sq.terms == {2: F2.one(), 4: F2.one()}  # (T + T^2)^2 = T^2 + T^4


def test_compose_basic():
    # f = t^-1, tau = T^2/(1 - T): f(tau) = T^-2 (1 - T)
    tau = ts(F2, {2: 1}, 12) * ts(F2, {0: 1, 1: 1}, 12).inverse()
    f = ts(F2, {-1: 1}, 10)
    out = compose(f, tau)
    assert out.valuation() == -2
    assert out.terms[-2] == F2.one() and out.terms[-1] == F2.one()
    # tail of (1 - T)/T^2 in char 2 stops immediately
    assert all(c == F2.one() for c in out.terms.values())
    assert len(out.terms) == 2


def test_compose_precision_cap():
    f = ts(F2, {1: 1}, 3)          # known only to O(t^3)
    tau = TruncatedSeries.monomial(F2, 2, 50)
    out = compose(f, tau)
    assert out.prec <= 6


def test_scale():
    z = gen(F4)
    a = ts(F4, {0: 1}, 4).scale(z)
    assert a.terms == {0: z}


def test_a_field_element_multiplies_a_series_only_by_scale():
    z, a = gen(F4), ts(F4, {0: 1}, 4)
    with pytest.raises(TypeError):
        a * z
    with pytest.raises(TypeError):
        z * a
