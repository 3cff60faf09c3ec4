"""Dimension counts: the piece count, bounds, and the exact formulas."""

from fractions import Fraction
from math import floor, gcd

import pytest

from ramify import (DimensionReport, DomainError, ReducedFiltration,
                    dim_bounds, dim_ordinary, dimension, field_create,
                    n_count, root_of_unity)
from ramify.gf import degree_over_prime, p_power_exponent, prime_factors

from helpers import multiplicative_order


def n_count_brute(q, m, s_iota, sigma, window=500):
    """Independent enumeration over a wide window, no derived bound; the
    test l / gcd(l, q) <= m sigma is made on integers."""
    limit = m * Fraction(sigma)
    num, den = limit.numerator, limit.denominator
    return sum(1 for ell in range(1, window)
               if (ell - s_iota) % m == 0 and ell % q
               and ell * den <= gcd(ell, q) * num)


def n_count_closed(q, m, s_iota, sigma):
    """The count in closed form.  Write l = p^k u with k < b (q = p^b) and p
    not dividing u; then l / gcd(l, q) = u, so n sums, over k < b, the
    u <= floor(m sigma) prime to p with u = s_iota p^-k (mod m): two
    arithmetic-progression counts per k."""
    p = prime_factors(q)[0]
    top = floor(m * Fraction(sigma))

    def progression(n, r):  # #{1 <= u <= n : u = r (mod m)}
        r %= m
        return (n - r) // m + (r != 0)

    total = 0
    for k in range(p_power_exponent(q, p)):
        r = s_iota * pow(p, -k, m)
        total += progression(top, r) - progression(top // p, r * pow(p, -1, m))
    return total


def test_n_count_unit_conductor():
    assert n_count(2, 1, 1, Fraction(1)) == 1
    assert n_count(2, 1, 1, Fraction(3, 2)) == 1
    assert n_count(2, 1, 1, Fraction(3)) == 2  # l in {1, 3}


def test_n_count_below_one():
    assert n_count(2, 3, 1, Fraction(1, 4)) == 0


def test_n_count_against_wide_window():
    cases = [(2, 1, 1, Fraction(7, 2)), (4, 3, 1, Fraction(5, 3)),
             (4, 3, 2, Fraction(8, 3)), (9, 4, 3, Fraction(2)),
             (8, 7, 5, Fraction(12, 7)), (3, 2, 1, Fraction(9))]
    for q, m, s, sigma in cases:
        assert n_count(q, m, s, sigma) == n_count_brute(q, m, s, sigma)


def test_n_count_against_its_closed_form_and_the_enumeration():
    # every m <= 13 prime to p and every s_iota, for q = p, p^2, p^3; the
    # enumeration's window q m sigma bounds l without the factor 1/p
    sigmas = [Fraction(2), Fraction(3, 2), Fraction(5, 3), Fraction(6, 7)]
    for p in (2, 3, 5, 7):
        for q in (p, p ** 2, p ** 3):
            for m in (m for m in range(1, 14) if m % p):
                for s in range(1, m + 1):
                    for sigma in sigmas:
                        n = n_count(q, m, s, sigma)
                        assert n == n_count_closed(q, m, s, sigma), \
                            (q, m, s, sigma)
                        assert n == n_count_brute(
                            q, m, s, sigma, floor(q * m * sigma) + 1), \
                            (q, m, s, sigma)


def test_n_count_closed_form_small_sigma():
    # one piece Z/p at m = 1 counts the l <= sigma prime to p, integral or
    # fractional sigma alike
    for p in (2, 3, 5, 7):
        for sigma in range(1, 51):
            assert n_count(p, 1, 1, Fraction(sigma)) == sigma - sigma // p
        for den in (2, 3, 7):
            for num in range(1, 151):
                sigma = Fraction(num, den)
                assert n_count(p, 1, 1, sigma) == \
                    floor(sigma) - floor(sigma / p)


def test_n_count_monotone_in_sigma():
    vals = [n_count(4, 3, 1, Fraction(k, 3)) for k in range(1, 40)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_n_count_validates_inputs():
    with pytest.raises(DomainError):
        n_count(2, 1, 2, Fraction(1))
    with pytest.raises(DomainError):
        n_count(2, 2, 1, Fraction(1))  # p | m
    with pytest.raises(DomainError):
        n_count(2, 1, 1, Fraction(0))


def test_n_count_checks_the_prime_it_is_given():
    # a prime that q is no power of is refused, never counted with
    with pytest.raises(DomainError, match="16 is not a positive power of 3"):
        n_count(16, 1, 1, 3, 3)
    assert n_count(16, 1, 1, 3, 2) == n_count(16, 1, 1, 3) == 8


def abelian_exact(p, factors):
    return dimension("abelian", None, (p, factors)).exact


def test_dim_abelian_single_factor():
    assert abelian_exact(2, [[1]]) == 1


def test_dim_abelian_minimal_tower():
    # jumps {1, p, ..., p^(e-1)} give p^(e-1)
    for p in (2, 3, 5):
        for e in range(1, 5):
            jumps = [p ** i for i in range(e)]
            assert abelian_exact(p, [jumps]) == p ** (e - 1)


def test_dim_abelian_z4_jumps_1_3():
    assert abelian_exact(2, [[1, 3]]) == (1 - 0) + (3 - 1)


def test_dim_abelian_matches_piecewise_counts():
    # the upper bound of one piece of order p per jump, which is the class
    # field theory value sum of sigma - floor(sigma/p)
    for p, factors in [(2, [[1, 3]]), (2, [[1, 2]]), (3, [[1, 3, 11]]),
                       (5, [[2, 10]]), (3, [[1, 4], [2]])]:
        jumps = [s for f in factors for s in f]
        expected = sum(n_count(p, 1, 1, Fraction(s)) for s in jumps)
        assert abelian_exact(p, factors) == expected
        assert expected == sum(s - s // p for s in jumps)


def test_dim_abelian_rejects_bad_jumps():
    with pytest.raises(DomainError, match=r"\(3, 5\) violate"):
        abelian_exact(2, [[1, 3, 5]])  # 5 < 2*3
    with pytest.raises(DomainError, match="divisible by p"):
        abelian_exact(2, [[2]])  # first jump divisible by p


def abelian_pieces(p, sigmas, tame=1):
    return ReducedFiltration(tame, tuple((p, Fraction(s), 1) for s in sigmas))


def test_abelian_pieces_must_be_the_factors_pieces():
    # the abelian factors fix tame part 1 and one piece (p, sigma, 1) per
    # jump: pieces that are those keep the report, any others are refused
    msg = ("the pieces disagree with the abelian factors, which fix tame "
           "part 1 and one piece")
    for p, factors, listed in [
            (3, [[1, 4]], abelian_pieces(2, [1, 7])),  # order 2 under Z/9
            (2, [[1, 3]], abelian_pieces(2, [1, 5])),  # jump 5, not 3
            (2, [[1, 3]], abelian_pieces(2, [1])),  # a jump left out
            (2, [[1]], abelian_pieces(2, [1], tame=3)),  # tame part 3
            (2, [[1], [1]], abelian_pieces(4, [1]))]:  # Z/4 is not (Z/2)^2
        with pytest.raises(DomainError, match=msg):
            dimension("abelian", listed, (p, factors))
    for p, factors in [(2, [[1, 3]]), (3, [[1, 4]]), (2, [[3], [1, 2]])]:
        listed = abelian_pieces(p, sorted(j for f in factors for j in f))
        assert dimension("abelian", listed, (p, factors)) == \
            dimension("abelian", None, (p, factors))


def test_dim_bounds_quaternion():
    red = ReducedFiltration(1, ((2, Fraction(1), 1), (2, Fraction(1), 1),
                                (2, Fraction(3, 2), 1)))
    rep = dim_bounds(red)
    assert rep.n_list == (1, 1, 1)
    assert (rep.lower_bound, rep.upper_bound) == (1, 3)


def test_dim_bounds_single_piece():
    red = ReducedFiltration(1, ((4, Fraction(5), 1),))
    rep = dim_bounds(red)
    assert rep.lower_bound == rep.upper_bound == rep.n_list[0]


def test_dim_bounds_contain_abelian_value():
    # Z/4 with upper jumps (1, 2): pieces (2,1) and (2,2)
    red = ReducedFiltration(1, ((2, Fraction(1), 1), (2, Fraction(2), 1)))
    rep = dim_bounds(red)
    exact = abelian_exact(2, [[1, 2]])
    assert rep.lower_bound <= exact == rep.upper_bound == 2


def test_dim_reducible_one_piece():
    red = ReducedFiltration(3, ((4, Fraction(5, 3), 1),))
    n = n_count(4, 3, 1, Fraction(5, 3))
    assert dim_bounds(red) == DimensionReport((n,))
    assert dimension("reducible", red) == DimensionReport((n,), "reducible")
    assert dimension("reducible", red).to_json() == {
        "n": [n], "lower": n, "upper": n, "exact": n, "rule": "reducible"}


def test_dim_reducible_ordinary_data():
    # all jumps 1/m with s_iota = 1 count 1 per piece
    red = ReducedFiltration(3, ((4, Fraction(1, 3), 1),) * 2)
    assert dim_bounds(red).upper_bound == 2
    assert dimension("reducible", red).to_json() == {
        "n": [1, 1], "lower": 1, "upper": 2, "exact": 2, "rule": "reducible"}


def test_dim_ordinary():
    assert dim_ordinary(2, 4, 1) == 4  # m = 1 gives c = 1
    assert dim_ordinary(2, 2, 3) == 1  # ord of 2 mod 3 is 2
    with pytest.raises(DomainError):
        dim_ordinary(2, 3, 3)  # c = 2 does not divide 3
    with pytest.raises(DomainError, match="does not divide e = 1"):
        dim_ordinary(2, 1, 1000000007)  # refused without searching for c
    with pytest.raises(DomainError, match="2 and 6 are not coprime"):
        dim_ordinary(2, 2, 6)


@pytest.mark.parametrize("m", [0, -1, -3])
def test_dim_ordinary_refuses_a_tame_degree_below_one(m):
    # refused at once: no order of p exists mod m < 1
    for p, e in [(2, 2), (3, 2), (5, 4)]:
        with pytest.raises(DomainError,
                           match=f"tame degree {m} must be positive"):
            dim_ordinary(p, e, m)


def test_ordinary_consistency_sweep():
    for p in (2, 3, 5, 7):
        for m in range(1, 13):
            if m % p == 0:
                continue
            c = multiplicative_order(p, m)
            for e in range(c, 7, c):
                r = e // c
                red = ReducedFiltration(m, ((p ** c, Fraction(1, m), 1),) * r)
                assert dim_ordinary(p, e, m) == r
                assert dim_bounds(red).upper_bound == r
                assert dimension("ordinary", red).exact == r


def test_multiplicative_order_matches_field_degree():
    # c computed arithmetically equals [F_p(zeta_m) : F_p]
    for p, m in [(2, 3), (2, 5), (2, 15), (3, 8), (5, 6), (7, 4)]:
        c = multiplicative_order(p, m)
        F = field_create(p, c)
        zeta = root_of_unity(F, m)
        assert degree_over_prime(zeta) == c


def test_report_invariants():
    # a report is its counts and its rule: the bounds and the exact value
    # are read off them
    assert DimensionReport((1, 2)).to_json() == {
        "n": [1, 2], "lower": 2, "upper": 3, "exact": None, "rule": None}
    assert DimensionReport((2, 0, 1), "abelian").to_json() == {
        "n": [2, 0, 1], "lower": 1, "upper": 3, "exact": 3,
        "rule": "abelian"}


def test_dim_bounds_z4_upper_jumps_1_3():
    # upper jumps (1, 3) for a cyclic order-4 group: counts (1, 2), bounds
    # [2, 3], and the exact abelian value 3 sits inside
    red = ReducedFiltration(1, ((2, Fraction(1), 1), (2, Fraction(3), 1)))
    rep = dim_bounds(red)
    assert rep.n_list == (1, 2)
    assert (rep.lower_bound, rep.upper_bound) == (2, 3)
    assert rep.lower_bound <= abelian_exact(2, [[1, 3]]) <= rep.upper_bound
