"""Acceptance battery: every criterion exact, with its stated time budget.

Each test prints one PASS line (visible under pytest -s / -v) with the
measured wall time.  All comparisons are exact integer/rational equality;
there are no tolerances anywhere.
"""

import random
import time
from fractions import Fraction

from ramify import (ASCover, LaurentPoly, ReducedFiltration, conductor,
                    dim_bounds, dim_ordinary, dimension,
                    evaluate_quaternion_fiber, field_create, genus_rh,
                    is_isomorphic, jumps_with_multiplicity, lower_to_upper,
                    modify_cover, n_count, oracle_run, p_rank_ds,
                    quaternion_tower, reduce, root_of_unity)
from ramify.tower import GeneratorAction, TowerSpec, TowerStep, VarPoly

from helpers import multiplicative_order

F4 = field_create(2, 2)
F16 = field_create(2, 4)


def _report(num, label, t0, budget):
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {num} PASS ({elapsed:.2f}s < {budget}s): {label}")


def test_criterion_1_quaternion_germ_end_to_end():
    t0 = time.monotonic()
    tower, gens = quaternion_tower(F4)
    run = oracle_run(tower, gens, precision=200)
    filt = run.filtration
    assert jumps_with_multiplicity(filt) == [1, 1, 3]
    assert filt.breaks == ((Fraction(1), 8), (Fraction(3), 2))
    upper = lower_to_upper(filt)
    assert jumps_with_multiplicity(upper) == [1, 1, Fraction(3, 2)]
    assert genus_rh(8, filt) == 1
    assert p_rank_ds(8, 0, [8]) == 0
    reduced = reduce(upper, [[2, 2], [2]])
    report = dim_bounds(reduced)
    assert report.n_list == (1, 1, 1)
    assert (report.lower_bound, report.upper_bound) == (1, 3)
    _report(1, "quaternion germ: jumps (1,1,3)/(1,1,3/2), genus 1, "
               "p-rank 0, bounds [1,3]", t0, 10)


def test_criterion_2_stratification_sweep():
    t0 = time.monotonic()
    one = F16.one()
    zeta3 = root_of_unity(F16, 3)
    cube_roots = {zeta3, zeta3 * zeta3}
    connected_reports = []
    for i1 in range(16):
        a1 = F16.from_index(i1)
        for i2 in range(16):
            a2 = F16.from_index(i2)
            per_a3 = []
            for i3 in (0, 1):
                a3 = F16.from_index(i3)
                rep = evaluate_quaternion_fiber(a1, a2, a3)
                per_a3.append(rep)
                expected_disconnected = (a1 == one) or (
                    a2 / (a1 + one) in cube_roots)
                assert rep.connected == (not expected_disconnected)
                if rep.connected:
                    expected_genus = 1 if (not a2 or a2 == a1 + one) else 2
                    assert rep.genus == expected_genus
                    connected_reports.append((a1, a2, rep))
            # connectedness and the jump-3 stratum do not depend on a3
            assert per_a3[0].connected == per_a3[1].connected
            if per_a3[0].connected:
                assert per_a3[0].top_jump == per_a3[1].top_jump
                assert per_a3[0].leading == per_a3[1].leading
    rng = random.Random(2024)
    for a1, a2, rep in rng.sample(connected_reports, 20):
        c1 = (a2 / (a1 + one)).sqrt()
        c2 = one + c1 + c1 * c1
        c3 = c1 / c2
        c4 = one + c3
        assert rep.leading == (c3 * c3 * c4, c4 ** 3 + (c3 ** 3).sqrt())
    _report(2, "F_16 stratification sweep (512 fibers) and leading "
               "coefficients on 20 random fibers", t0, 60)


def test_criterion_3_oracle_equivalence():
    t0 = time.monotonic()
    for p in (2, 3, 5):
        field = field_create(p, 1)
        for j in range(1, 10):
            if j % p == 0:
                continue
            tower = TowerSpec(field, 1,
                              (TowerStep("v", VarPoly.var(field, "x", -j)),))
            gen = GeneratorAction(tower,
                                  {"v": VarPoly.const(field, field.one())})
            run = oracle_run(tower, [gen], precision=200)
            assert jumps_with_multiplicity(run.filtration) == [j]
            cover = ASCover(p, LaurentPoly.monomial(field, -j))
            assert conductor(cover) == j
            assert genus_rh(p, run.filtration) == (p - 1) * (j - 1) // 2
    _report(3, "oracle jumps = conductor = j and the genus formula for "
               "p in {2,3,5}, j <= 9", t0, 30)


def test_criterion_4_dimension_formulas():
    t0 = time.monotonic()
    for p in (2, 3, 5):
        for e in range(1, 5):
            jumps = [p ** i for i in range(e)]
            assert dimension("abelian", None, (p, [jumps])).exact == \
                p ** (e - 1)
    for p in (2, 3, 5):
        for sigma in range(1, 51):
            by_enumeration = sum(
                1 for ell in range(1, sigma + 1) if ell % p != 0)
            assert n_count(p, 1, 1, Fraction(sigma)) == by_enumeration
            assert by_enumeration == sigma - sigma // p
    for p in (2, 3, 5, 7):
        for m in range(1, 13):
            if m % p == 0:
                continue
            c = multiplicative_order(p, m)
            for e in range(c, 7, c):
                red = ReducedFiltration(
                    m, ((p ** c, Fraction(1, m), 1),) * (e // c))
                assert dim_ordinary(p, e, m) == e // c
                assert dim_bounds(red).upper_bound == e // c
    _report(4, "abelian p^(e-1), the sigma - floor(sigma/p) count, and the "
               "ordinary e/c sweep", t0, 10)


def test_criterion_5_property_suites():
    t0 = time.monotonic()
    import test_properties as props
    props.test_standard_form_idempotent()
    props.test_conductor_invariant_under_artin_schreier_shifts()
    props.test_isomorphism_equivalence_laws()
    props.test_herbrand_inversion_at_random_points()
    props.test_numbering_roundtrip()
    props.test_conductor_congruence_on_equivariant_covers()
    _report(5, "normal-form, conductor, isomorphism, Herbrand and "
               "congruence property suites", t0, 30)


def test_criterion_6_two_parameter_family():
    t0 = time.monotonic()
    one = F16.one()
    zero = F16.zero()
    fibers = []
    for i1 in range(16):
        a1 = F16.from_index(i1)
        if a1 == one:
            continue  # not a deformation of the connected base fiber
        for i3 in range(16):
            a3 = F16.from_index(i3)
            rep = evaluate_quaternion_fiber(a1, zero, a3)
            assert rep.connected and rep.jumps == (1, 1, 3)
            # the two varying steps stay within the equiramified bounds
            _, ok_v = modify_cover(2, LaurentPoly.monomial(F16, -1),
                                   LaurentPoly(F16, {-1: a1}), 1, Fraction(1))
            _, ok_y = modify_cover(2, LaurentPoly.monomial(F16, -3),
                                   LaurentPoly(F16, {-1: a3}), 1,
                                   Fraction(3, 2))
            assert ok_v and ok_y
            v_step = ASCover(2, LaurentPoly(F16, {-1: one + a1}))
            y_modifier = ASCover(2, LaurentPoly(F16, {-1: a3}))
            fibers.append(((i1, i3), v_step, y_modifier))
    assert len(fibers) == 15 * 16
    for i in range(len(fibers)):
        for k in range(i + 1, len(fibers)):
            same_v, _ = is_isomorphic(fibers[i][1], fibers[k][1])
            same_y, _ = is_isomorphic(fibers[i][2], fibers[k][2])
            assert not (same_v and same_y), (
                f"fibers {fibers[i][0]} and {fibers[k][0]} are not "
                "distinguished by their varying steps")
    reduced_bounds = dim_bounds(reduce(
        lower_to_upper(oracle_run(*quaternion_tower(F16), precision=200)
                       .filtration), [[2, 2], [2]]))
    assert reduced_bounds.lower_bound <= 2 <= reduced_bounds.upper_bound
    _report(6, "a2 = 0 family: 240 pairwise distinct equiramified fibers "
               "with jumps (1,1,3); 2 lies in [1,3]", t0, 60)
