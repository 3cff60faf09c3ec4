"""The valuation oracle, genus/p-rank formulas, and the quaternion family."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramify import (DomainError, RamFiltration, TowerSpec, field_create,
                    evaluate_quaternion_fiber, genus_rh, jumps_with_multiplicity,
                    oracle_run, p_rank_ds, quaternion_tower, root_of_unity)
from ramify import series as series_module
from ramify import tower as tower_module
from ramify.laurent import LaurentPoly
from ramify.ramfilt import lower_to_upper, validate
from ramify.series import TruncatedSeries
from ramify.tower import (STEP_EXPONENT_CAP, GeneratorAction, TowerStep,
                          VarPoly, close_group, herbrand_lower_jumps,
                          quaternion_fiber_ratio, quaternion_fiber_shape)

import chart_walk
import quaternion_pipeline
from helpers import EA2_SHAPES, subst_per_monomial

F2 = field_create(2, 1)
F4 = field_create(2, 2)
F16 = field_create(2, 4)


def single_step_tower(p, j, a=1):
    field = field_create(p, a)
    tower = TowerSpec(field, 1, (TowerStep("v", VarPoly.var(field, "x", -j)),))
    gen = GeneratorAction(tower, {"v": VarPoly.const(field, field.one())}, name="t")
    return tower, [gen]


# -- the oracle on single steps ------------------------------------------------

@pytest.mark.parametrize("p,j", [(2, 1), (2, 3), (2, 5), (3, 2), (3, 4), (5, 3)])
def test_oracle_single_step(p, j):
    tower, gens = single_step_tower(p, j)
    filt = oracle_run(tower, gens, 120).filtration
    assert filt.breaks == ((Fraction(j), p),)
    assert filt.total_order == p
    assert jumps_with_multiplicity(filt) == [j]


def test_oracle_reduces_p_divisible_pole():
    # v^2 - v = x^-2 is the same cover as v^2 - v = x^-1
    field = F2
    tower = TowerSpec(field, 1, (TowerStep("v", VarPoly.var(field, "x", -2)),))
    gen = GeneratorAction(tower, {"v": VarPoly.const(field, field.one())})
    filt = oracle_run(tower, [gen], 100).filtration
    assert jumps_with_multiplicity(filt) == [1]


def test_oracle_unramified_step_rejected():
    field = F2
    tower = TowerSpec(field, 1, (TowerStep("v", VarPoly.var(field, "x", 1)),))
    gen = GeneratorAction(tower, {"v": VarPoly.const(field, field.one())})
    with pytest.raises(DomainError, match="totally ramified"):
        oracle_run(tower, [gen], 64)


def test_oracle_tame_only():
    tower = TowerSpec(F4, 3, ())
    filt = oracle_run(tower, [], 32).filtration
    assert filt.breaks == ()
    assert filt.total_order == 3 and filt.tame == 3


def test_oracle_wrong_group_order():
    # two wild steps declare order 4, but the supplied generator only closes
    # to order 2
    field = F4
    tower = TowerSpec(field, 1, (
        TowerStep("v", VarPoly.var(field, "x", -1)),
        TowerStep("w", VarPoly.var(field, "v")),
    ))
    mu = GeneratorAction(tower, {"w": VarPoly.const(field, field.one())})
    with pytest.raises(DomainError, match="order"):
        oracle_run(tower, [mu], 64)


def test_oracle_rejects_non_automorphism():
    field = F2
    tower = TowerSpec(field, 1, (TowerStep("v", VarPoly.var(field, "x", -1)),))
    bad = GeneratorAction(tower, {"v": VarPoly.var(field, "x")})  # v -> v + x
    with pytest.raises(DomainError, match="preserve"):
        oracle_run(tower, [bad], 64)


def test_generator_check_reduces_modulo_the_step_equations():
    # x v^2 + x v + 1 = x (v^2 - v - 1/x) is 0 in the function field, so the
    # shift w -> w + x v^2 + x v + 1 is the identity there; w -> w + x is no
    # automorphism at all
    field = F2
    tower = TowerSpec(field, 1, (TowerStep("v", VarPoly.var(field, "x", -1)),
                                 TowerStep("w", VarPoly.var(field, "x", -3))))
    v, x = VarPoly.var(field, "v"), VarPoly.var(field, "x")
    zero = x * v ** 2 + x * v + VarPoly.const(field, field.one())
    tower_module._check_generators(tower, [GeneratorAction(tower, {"w": zero})])
    with pytest.raises(DomainError, match="preserve"):
        tower_module._check_generators(
            tower, [GeneratorAction(tower, {"w": VarPoly.var(field, "x")})])


def test_generator_check_refuses_negative_step_powers():
    # the normal form needs nonnegative powers of the step variables, so
    # the tower itself refuses a right-hand side with a negative one,
    # before any generator is built on it
    field = F2
    with pytest.raises(DomainError, match="step w has a negative power of "
                                          "the step variable v"):
        TowerSpec(field, 1, (
            TowerStep("v", VarPoly.var(field, "x", -1)),
            TowerStep("w", VarPoly.var(field, "x", -3)
                      + VarPoly.var(field, "v", -1))))


def test_step_exponents_are_limited():
    field = F2
    v_step = TowerStep("v", VarPoly.var(field, "x", -1))

    def tower(e):
        return TowerSpec(field, 1, (v_step, TowerStep(
            "w", VarPoly.var(field, "x", -3) + VarPoly.var(field, "v", e))))
    ok = tower(STEP_EXPONENT_CAP)
    GeneratorAction(ok, {"w": VarPoly.var(field, "v", STEP_EXPONENT_CAP)})
    for e in (STEP_EXPONENT_CAP + 1, -STEP_EXPONENT_CAP - 1):
        with pytest.raises(DomainError, match="exceeds the limit"):
            tower(e)
    with pytest.raises(DomainError, match="exceeds the limit"):
        GeneratorAction(ok, {"w": VarPoly.var(field, "v", STEP_EXPONENT_CAP + 1)})
    # the base coordinate is no step variable
    TowerSpec(field, 1, (TowerStep("v", VarPoly.var(field, "x", -1001)),))


def ea2_tower(p, j1, j2):
    """v^p - v = x^-j1, w^p - w = -x^-j2 with (Z/p)^2 generated by the
    shifts by 1."""
    field = field_create(p, 1)
    tower = TowerSpec(field, 1, (
        TowerStep("v", VarPoly.var(field, "x", -j1)),
        TowerStep("w", -VarPoly.var(field, "x", -j2))))
    one = VarPoly.const(field, field.one())
    return tower, [GeneratorAction(tower, {"v": one}, "s"),
                   GeneratorAction(tower, {"w": one}, "t")]


@pytest.mark.parametrize("p,j1,j2", [
    (2, 1, 3), (2, 3, 7), (2, 7, 11), (2, 3, 35), (3, 1, 2), (3, 1, 10),
    (3, 4, 11), (5, 2, 3), (5, 3, 8), (5, 8, 9)])
def test_first_answering_precision_is_sound(p, j1, j2):
    # the first working precision that answers gives what one attempt at
    # 256 gives, and both are Herbrand's lower jumps j1, j1 + p (j2 - j1):
    # the jumps of all p^2 - 1 elements but the identity, walked one by one
    tower, gens = ea2_tower(p, j1, j2)
    run = oracle_run(tower, gens, precision=256)
    deep = tower_module._oracle_attempt(tower, close_group(tower, gens), 256)
    assert run.filtration == deep.filtration
    lower2 = j1 + p * (j2 - j1)
    assert jumps_with_multiplicity(run.filtration) == [j1, lower2]
    assert chart_walk.element_jumps(tower, gens, 256) == \
        (j1,) * (p * p - p) + (lower2,) * (p - 1)
    assert run.filtration == chart_walk.lower_filtration(tower, gens, 256)
    assert herbrand_lower_jumps(p, run.pole_orders) == [j1, lower2]


def test_two_step_tower_jumps():
    # v^2 - v = x^-1; w^2 - w = v: the middle quotient of the quaternion
    # germ, an elementary abelian cover with both jumps equal to 1
    field = F4
    z3 = root_of_unity(field, 3)
    tower = TowerSpec(field, 1, (
        TowerStep("v", VarPoly.var(field, "x", -1)),
        TowerStep("w", VarPoly.var(field, "v")),
    ))
    mu = GeneratorAction(tower, {"w": VarPoly.const(field, field.one())}, name="mu")
    tau = GeneratorAction(tower, {"v": VarPoly.const(field, field.one()),
                                  "w": VarPoly.const(field, z3)}, name="tau")
    filt = oracle_run(tower, [mu, tau], 120).filtration
    assert filt.total_order == 4
    assert filt.breaks == ((Fraction(1), 4),)
    assert jumps_with_multiplicity(filt) == [1, 1]


# -- the quaternion tower --------------------------------------------------------

def test_quaternion_group_closure():
    # the sift keeps one element per step; the group they generate is the
    # one the closure under composition lists, of order 8
    tower, gens = quaternion_tower(F4)
    assert len(close_group(tower, gens)) == 3
    group = chart_walk.enumerate_group(tower, gens)
    assert len(group) == 8
    # mu^2 = tau^2 = [-1] and mu*tau = [-1]*tau*mu are checked implicitly by
    # the closure size; verify [-1] explicitly: it fixes v, w and shifts y by 1
    mu, tau = gens
    from ramify.tower import _compose
    minus_one = _compose(mu, mu)
    assert minus_one.images["v"] == VarPoly.var(F4, "v")
    assert minus_one.images["w"] == VarPoly.var(F4, "w")
    assert minus_one.images["y"] == (VarPoly.var(F4, "y")
                                     + VarPoly.const(F4, F4.one()))
    tau_sq = _compose(tau, tau)
    assert tau_sq.key() == minus_one.key()


def test_quaternion_oracle_jumps():
    tower, gens = quaternion_tower(F4)
    run = oracle_run(tower, gens, precision=200)
    filt = run.filtration
    assert jumps_with_multiplicity(filt) == [1, 1, 3]
    assert filt.breaks == ((Fraction(1), 8), (Fraction(3), 2))
    assert run.pole_orders == (1, 1, 3)


def test_quaternion_deformed_fiber_oracle():
    # a2 = 0 family members keep jumps (1,1,3); the p-divisible leading
    # poles introduced by the a3-term are peeled automatically
    one16 = F16.one()
    a1 = F16.from_index(6)
    a3 = F16.from_index(11)
    assert a1 != one16
    tower, gens = quaternion_tower(F16, a1=a1, a3=a3)
    filt = oracle_run(tower, gens, 200).filtration
    assert jumps_with_multiplicity(filt) == [1, 1, 3]


def test_analytic_step_jumps_quaternion():
    tower, gens = quaternion_tower(F4)
    run = oracle_run(tower, gens, precision=200)
    assert herbrand_lower_jumps(2, run.pole_orders) == [1, 1, 3]


def test_analytic_step_jumps_single():
    tower, gens = single_step_tower(3, 4)
    run = oracle_run(tower, gens, precision=200)
    assert herbrand_lower_jumps(3, run.pole_orders) == [4]


# -- genus and p-rank -------------------------------------------------------------

def test_genus_trivial_group():
    filt = RamFiltration(1, 1, "lower", ())
    assert genus_rh(1, filt) == 0


def test_genus_quaternion_germ():
    filt = RamFiltration(8, 1, "lower", ((1, 8), (3, 2)))
    assert genus_rh(8, filt) == 1


@pytest.mark.parametrize("p,j", [(2, 3), (2, 5), (3, 2), (5, 7), (7, 3)])
def test_genus_single_jump(p, j):
    filt = RamFiltration(p, 1, "lower", ((j, p),))
    assert genus_rh(p, filt) == (p - 1) * (j - 1) // 2


def test_genus_z2_jump5():
    filt = RamFiltration(2, 1, "lower", ((5, 2),))
    assert genus_rh(2, filt) == 2


def test_genus_rejects_inconsistent():
    with pytest.raises(DomainError):
        genus_rh(4, RamFiltration(8, 1, "lower", ((1, 8), (3, 2))))
    with pytest.raises(DomainError):
        # odd different parity: jumps (1) with orders (2) over |I| = 2 is fine,
        # but jump 2 with order 2 gives an odd right side
        genus_rh(2, RamFiltration(2, 1, "lower", ((2, 2),)))


def test_p_rank_trivial_cover():
    assert p_rank_ds(1, 0, []) == 0
    assert p_rank_ds(1, 5, []) == 5


def test_p_rank_one_point_totally_ramified():
    for order in (2, 3, 4, 8, 25):
        assert p_rank_ds(order, 0, [order]) == 0


def test_p_rank_quaternion_supersingular():
    assert p_rank_ds(8, 0, [8]) == 0


def test_p_rank_etale_cover():
    # an unramified p-cover of an ordinary genus-1 base has rank p(1-1)+1 = 1
    assert p_rank_ds(3, 1, []) == 1


def test_p_rank_validation():
    with pytest.raises(DomainError):
        p_rank_ds(4, 0, [3])
    with pytest.raises(DomainError):
        p_rank_ds(2, 0, [1, 1, 1])  # too many split points force rank < 0


# -- quaternion fibers -----------------------------------------------------------

def test_fiber_base_point():
    zero = F4.zero()
    rep = evaluate_quaternion_fiber(zero, zero, zero)
    assert rep.connected and rep.top_jump == 3 and rep.genus == 1
    assert rep.jumps == (1, 1, 3)


def test_fiber_disconnected_at_v():
    one = F4.one()
    rep = evaluate_quaternion_fiber(one, F4.zero(), F4.zero())
    assert not rep.connected and rep.stage == "V"


def test_fiber_disconnected_at_w():
    zero = F4.zero()
    z3 = root_of_unity(F4, 3)
    rep = evaluate_quaternion_fiber(zero, z3, zero)
    assert not rep.connected and rep.stage == "W"


def test_fiber_genus_two():
    # a2 not in {0, a1 + 1} and a2/(a1+1) not a cube root of unity
    one = F16.one()
    a2 = F16.from_index(2)   # the generator of F_16, not in F_4
    rep = evaluate_quaternion_fiber(F16.zero(), a2, F16.zero())
    assert rep.connected and rep.top_jump == 5 and rep.genus == 2


def test_fiber_genus_one_on_stratum():
    one = F16.one()
    for idx in (0, 2, 5):
        a1 = F16.from_index(idx)
        if a1 == one:
            continue
        rep0 = evaluate_quaternion_fiber(a1, F16.zero(), F16.from_index(3))
        rep1 = evaluate_quaternion_fiber(a1, a1 + one, F16.from_index(3))
        assert rep0.genus == 1 and rep1.genus == 1


def test_fiber_oracle_cross_check():
    # the closed-form fiber report and the valuation oracle agree on a
    # genus-2 fiber; over F_4 every a2 lands on a special stratum, so this
    # needs F_16
    a2 = F16.from_index(2)
    rep = evaluate_quaternion_fiber(F16.zero(), a2, F16.zero())
    assert rep.connected and rep.top_jump == 5 and rep.genus == 2
    tower, gens = quaternion_tower(F16, a2=a2)
    filt = oracle_run(tower, gens, 200).filtration
    assert jumps_with_multiplicity(filt) == [1, 1, 5]
    assert genus_rh(8, filt) == 2


@pytest.mark.parametrize("a", [1, 2, 3, 4], ids=["f2", "f4", "f8", "f16"])
def test_fiber_report_depends_only_on_its_ratio_class(a):
    # every fiber gives its class representative's report in every field but
    # params, leading included; F_8 has no primitive cube root of unity, so
    # no class there is disconnected at W
    field = field_create(2, a)
    one = field.one()
    reps = {}
    for a1 in field.elements():
        for a2 in field.elements():
            ratio = quaternion_fiber_ratio(a1, a2)
            assert (ratio is None) == (a1 == one)
            for a3 in field.elements():
                rep = evaluate_quaternion_fiber(a1, a2, a3)._replace(
                    params=None)
                assert reps.setdefault(ratio, rep) == rep
    assert len(reps) == field.q + 1
    assert reps[None].stage == "V"
    assert (sum(rep.stage == "W" for rep in reps.values())
            == (2 if a % 2 == 0 else 0))


@pytest.mark.parametrize("field", [F2, F4, F16], ids=["f2", "f4", "f16"])
def test_fiber_shape_fixes_the_report_without_params_and_leading(field):
    # the shape rule of the ratio gives the fiber's stage and top jump, and
    # these fix its report without params and leading: 2, 3 and 4 shapes
    # over F_2, F_4 and F_16.  The top jump is 5 exactly when the leading
    # coefficient at pole order 5 is nonzero.
    zero = field.zero()
    shapes = {}
    for a1 in field.elements():
        for a2 in field.elements():
            rep = evaluate_quaternion_fiber(a1, a2, zero)
            shape = quaternion_fiber_shape(quaternion_fiber_ratio(a1, a2))
            assert shape == (rep.stage, rep.top_jump)
            bare = rep._replace(params=(), leading=None)
            assert shapes.setdefault(shape, bare) == bare
            if rep.connected:
                assert (rep.top_jump == 5) == bool(rep.leading[0])
    assert len(shapes) == {2: 2, 4: 3, 16: 4}[field.q]


def test_fiber_ratio_refuses_odd_characteristic():
    # over F_3, a2/(a1 + 1) exists at a1 = 1, but the family lives in char 2
    one = field_create(3, 1).one()
    with pytest.raises(DomainError, match="characteristic 2"):
        quaternion_fiber_ratio(one, one)


def test_oracle_precision_retry():
    # a deep jump forces the doubling loop: val(g(T) - T) = 66 lies past
    # what working precisions 32 and 64 determine
    tower, gens = single_step_tower(2, 65)
    run = oracle_run(tower, gens, precision=200)
    assert jumps_with_multiplicity(run.filtration) == [65]
    assert run.precision > 32


@pytest.mark.parametrize("n,precision", [(4, 128), (5, 256)])
def test_oracle_deep_f2_tower(n, precision):
    # v_i^2 - v_i = x^-(2i-1), one generator v_i -> v_i + 1 per step: every
    # step composes all the series below it, so the answering precision
    # pins the precision of n - 1 nested compositions
    field = F2
    tower = TowerSpec(field, 1, tuple(
        TowerStep(f"v{i}", VarPoly.var(field, "x", -(2 * i - 1)))
        for i in range(1, n + 1)))
    gens = [GeneratorAction(tower, {f"v{i}": VarPoly.const(field, field.one())},
                            f"g{i}") for i in range(1, n + 1)]
    run = oracle_run(tower, gens, precision=4096)
    jumps = jumps_with_multiplicity(run.filtration)
    assert jumps == herbrand_lower_jumps(2, run.pole_orders)
    assert jumps[-1] == 2 ** (n + 1) - 3
    assert run.precision == precision


def test_group_closed_once_per_oracle_run(monkeypatch):
    # (Z/2)^2 with upper jumps 3 and 35 (lower 3 and 3 + 2*32 = 67) retries
    # twice, up to working precision 128
    field = F2
    tower = TowerSpec(field, 1, (TowerStep("v", VarPoly.var(field, "x", -3)),
                                 TowerStep("w", VarPoly.var(field, "x", -35))))
    gens = [GeneratorAction(tower, {"v": VarPoly.const(field, field.one())}, "a"),
            GeneratorAction(tower, {"w": VarPoly.const(field, field.one())}, "b")]
    calls = []

    def counting(*args):
        calls.append(args)
        return close_group(*args)

    monkeypatch.setattr(tower_module, "close_group", counting)
    run = oracle_run(tower, gens, precision=200)
    assert run.precision >= 128
    assert len(calls) == 1
    assert jumps_with_multiplicity(run.filtration) == [3, 67]
    assert chart_walk.element_jumps(tower, gens, run.precision) == (3, 3, 67)


def test_a_generator_that_breaks_its_step_is_refused_before_any_expansion(
        monkeypatch):
    # the generator check is exact, so it runs before the first attempt
    # expands the tower; a generator that preserves the step does expand it
    field = F2
    tower = TowerSpec(field, 1, (TowerStep("v", VarPoly.var(field, "x", -3)),))
    calls = []
    expand = tower_module._expand_tower

    def counting(*args):
        calls.append(args)
        return expand(*args)

    monkeypatch.setattr(tower_module, "_expand_tower", counting)
    bad = GeneratorAction(tower, {"v": VarPoly.var(field, "x")}, "g")
    with pytest.raises(DomainError,
                       match="generator g does not preserve the equation of "
                             "step v"):
        oracle_run(tower, [bad], precision=200)
    assert calls == []
    good = GeneratorAction(tower, {"v": VarPoly.const(field, field.one())}, "t")
    assert jumps_with_multiplicity(
        oracle_run(tower, [good], precision=200).filtration) == [3]
    assert len(calls) == 1


def test_a_shift_outside_f_p_is_refused_before_any_expansion(monkeypatch):
    # w^2 - w = x^-1 = v^2 - v splits, so v + w is an idempotent, not a
    # constant, and y -> y + v + w preserves every step equation; once the
    # steps below y are no field, each may carry more than p shifts
    field = F2
    tower = TowerSpec(field, 1, (TowerStep("v", VarPoly.var(field, "x", -1)),
                                 TowerStep("w", VarPoly.var(field, "x", -1)),
                                 TowerStep("y", VarPoly.var(field, "x", -3))))
    one = VarPoly.const(field, field.one())
    gens = [GeneratorAction(tower, {"v": one}, "a"),
            GeneratorAction(tower, {"w": one}, "b"),
            GeneratorAction(tower, {"y": VarPoly.var(field, "v")
                                    + VarPoly.var(field, "w")}, "c")]
    calls = []
    monkeypatch.setattr(tower_module, "_expand_tower",
                        lambda *args: calls.append(args))
    with pytest.raises(DomainError, match="moves y by a shift outside F_p, so "
                                          "the steps below y do not form a "
                                          "field"):
        oracle_run(tower, gens, precision=256)
    assert calls == []


# -- substitution ----------------------------------------------------------------

def var_polys(field, lo, hi):
    """Polynomials of up to four terms in x, with exponents in [-3, 3], and
    in v and w, with exponents in [lo, hi]."""
    exps = st.tuples(st.integers(-3, 3), st.integers(lo, hi),
                     st.integers(lo, hi))
    terms = st.lists(st.tuples(exps, st.integers(1, field.q - 1)), max_size=4)

    return terms.map(lambda terms: VarPoly(field, [
        (zip("xvw", es), field.from_index(c)) for es, c in terms]))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_subst_matches_the_per_monomial_substitution(data):
    # images for the step variables only: x stays, negative powers included
    field = data.draw(st.sampled_from([F2, field_create(3, 1), F4]))
    a = data.draw(var_polys(field, 0, 4))
    images = {"v": data.draw(var_polys(field, 0, 2)),
              "w": data.draw(var_polys(field, 0, 2))}
    assert a.subst(images) == subst_per_monomial(
        field, a, {**images, "x": VarPoly.var(field, "x")})


def test_subst_computes_each_power_once(monkeypatch):
    field = F2
    calls = []
    power = VarPoly.__pow__

    def counting(a, n):
        calls.append(n)
        return power(a, n)

    v2, w = VarPoly.var(field, "v", 2), VarPoly.var(field, "w")
    x_inv = VarPoly.var(field, "x", -1)
    a = v2 + v2 * x_inv + v2 * w + w
    images = {"v": VarPoly.var(field, "v") + x_inv,
              "w": w + VarPoly.const(field, field.one())}
    monkeypatch.setattr(VarPoly, "__pow__", counting)
    out = a.subst(images)
    monkeypatch.undo()
    assert sorted(calls) == [1, 2]
    assert out == subst_per_monomial(field, a,
                                     {**images, "x": VarPoly.var(field, "x")})


@pytest.mark.parametrize("shift", [0, 1])
def test_subst_refuses_a_negative_power_of_a_mapped_variable(shift):
    # v -> v is refused too: no image map holds a variable it fixes
    field = F2
    img = VarPoly.var(field, "v") + VarPoly.const(field, field.from_index(shift))
    with pytest.raises(DomainError):
        VarPoly.var(field, "v", -1).subst({"v": img})
    # an unmapped variable keeps its negative power
    x_inv = VarPoly.var(field, "x", -1)
    assert x_inv.subst({"v": img}) == x_inv


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_varpoly_frobenius_hash_and_generator_keys(data):
    # termwise Frobenius is the p-th power; equal polynomials hash equal
    # however their terms were ordered; and two elements' keys are equal
    # exactly when their images' terms are, which the sift's commutation
    # test and the per-coset chart images rely on
    field = data.draw(st.sampled_from([F2, field_create(3, 1), F4]))
    polys = var_polys(field, 0, 2)
    a = data.draw(polys)
    assert a.frobenius_power(1) == a ** field.p
    rebuilt = VarPoly(field, reversed(list(a.terms.items())))
    assert rebuilt == a and hash(rebuilt) == hash(a)
    pool = [data.draw(polys) for _ in range(2)]

    def element():
        images = {var: data.draw(st.sampled_from(pool)) for var in "vw"}
        # a copy with its own term order, built apart from the pool's
        return tower_module.GeneratorAction._raw(None, {
            var: VarPoly(field, reversed(list(img.terms.items())))
            for var, img in images.items()})
    g, h = element(), element()
    same = all(g.images[var].terms == h.images[var].terms for var in "vw")
    assert (g.key() == h.key()) == same
    assert len({g.key(), h.key()}) == (1 if same else 2)


# -- uniformizer images, once per coset ------------------------------------------

def quaternion_f4_fiber():
    a1, a2, a3 = (F4.from_index(i) for i in (2, 3, 2))
    assert evaluate_quaternion_fiber(a1, a2, a3).connected
    return quaternion_tower(F4, a1, a2, a3)


def elementary_2_cubed_tower():
    # v^2 - v = x^-1, w^2 - w = x^-3, y^2 - y = x^-7 with (Z/2)^3 generated
    # by the shifts by 1
    field = F2
    tower = TowerSpec(field, 1, tuple(
        TowerStep(var, VarPoly.var(field, "x", -j))
        for var, j in (("v", 1), ("w", 3), ("y", 7))))
    one = VarPoly.const(field, field.one())
    return tower, [GeneratorAction(tower, {var: one}, var) for var in "vwy"]


IMAGE_TOWERS = ([pytest.param(*ea2_tower(*shape), id=f"ea2-{shape}")
                 for shape in EA2_SHAPES]
                + [pytest.param(*quaternion_f4_fiber(), id="quaternion-F4"),
                   pytest.param(*elementary_2_cubed_tower(), id="(Z/2)^3")])


@pytest.mark.parametrize("tower,gens", IMAGE_TOWERS)
def test_shared_images_equal_the_per_element_walk(tower, gens):
    # every element's g(T) is what a chart walk per element gives, at the
    # precision the oracle answers at, and the filtration the sift reads
    # off a few of them is the one the jumps of all of them give
    run = oracle_run(tower, gens, precision=256)
    group = chart_walk.enumerate_group(tower, gens)
    env, charts = tower_module._expand_tower(tower, run.precision)
    prec = min(s.prec for s in env.values())
    images = {}
    shared = [tower_module._uniformizer_image(g, env, charts, prec, images)
              for g in group]
    reference = chart_walk.element_images(tower, group, run.precision)
    assert [(s.val, s.data, s.prec) for s in shared] == \
        [(s.val, s.data, s.prec) for s in reference]
    assert run.filtration == chart_walk.lower_filtration(tower, gens,
                                                         run.precision)


@pytest.mark.parametrize("tower,gens", IMAGE_TOWERS)
def test_an_attempt_skips_the_identity_in_its_sequence(tower, gens):
    # an attempt's lead gives the identity no level, so the sift passes it
    # over and the filtration is the one without it
    pcgs = close_group(tower, gens)
    ident = tower_module._identity(tower)
    plain = tower_module._oracle_attempt(tower, pcgs, 256)
    padded = tower_module._oracle_attempt(tower, [ident] + pcgs, 256)
    assert padded.filtration == plain.filtration


def counted_chart_evaluations(monkeypatch):
    """A one-element list counting the chart evaluations (VarPoly.eval
    calls inside _uniformizer_image) from now on."""
    count, depth = [0], [0]
    image, evaluate = tower_module._uniformizer_image, VarPoly.eval

    def counted_image(*args):
        depth[0] += 1
        try:
            return image(*args)
        finally:
            depth[0] -= 1

    def counted_eval(*args):
        count[0] += depth[0] > 0
        return evaluate(*args)
    monkeypatch.setattr(tower_module, "_uniformizer_image", counted_image)
    monkeypatch.setattr(VarPoly, "eval", counted_eval)
    return count


@pytest.mark.parametrize("tower,gens", IMAGE_TOWERS)
def test_an_attempt_evaluates_each_chart_once_per_coset(monkeypatch, tower,
                                                        gens):
    # the sift evaluates the identity and one element per step, none of
    # them needing a reduction here, and each chart once per coset of K_k
    # among them: the shift of the top variable shares the identity's lower
    # charts.  That is 2 + 2 + 1 = 5 for (Z/p)^2 at every p, and 3 + 3 +
    # 2 + 1 = 9 for the three-step towers, where a walk over the cosets of
    # every element took p + ... + p^n and one per element n p^n
    n = len(tower.steps)
    count = counted_chart_evaluations(monkeypatch)
    tower_module._oracle_attempt(tower, close_group(tower, gens), 256)
    assert count[0] == {2: 5, 3: 9}[n]


def test_chart_images_are_not_kept_across_runs(monkeypatch):
    # the shared images live for one attempt: a second run of the same tower
    # evaluates every chart again
    tower, gens = quaternion_tower(F4)
    count = counted_chart_evaluations(monkeypatch)
    first = oracle_run(tower, gens, precision=200)
    assert first.precision == 32 and count[0] == 9
    second = oracle_run(tower, gens, precision=200)
    assert second == first and count[0] == 18


def budget_towers():
    """v^p - v = x^-j1, w^p - w = x^-j2 on the workload's shapes, and the
    first F_4 and F_16 quaternion fibers with a1, a2 nonzero of each top
    jump (F_4 has none of top jump 5), with a3 = a1."""
    for p, j1, j2 in EA2_SHAPES:
        field = field_create(p, 1)
        tower = TowerSpec(field, 1, (
            TowerStep("v", VarPoly.var(field, "x", -j1)),
            TowerStep("w", VarPoly.var(field, "x", -j2))))
        one = VarPoly.const(field, field.one())
        yield tower, [GeneratorAction(tower, {"v": one}, "s"),
                      GeneratorAction(tower, {"w": one}, "t")]
    for field, i1, i2, top in [(F4, 2, 3, 3), (F16, 2, 3, 3), (F16, 2, 1, 5)]:
        a1, a2 = field.from_index(i1), field.from_index(i2)
        assert evaluate_quaternion_fiber(a1, a2, a1).top_jump == top
        yield quaternion_tower(field, a1, a2, a1)


def test_oracle_kernel_products_stay_within_budget(monkeypatch):
    # operation count, not time: the oracle at precision 256 on the towers
    # above takes 1881 kernel products, 3146 when every Newton iteration of
    # the series kernel started from one coefficient rather than the prefix
    # it knows exactly.  Every big-integer product of two packed series is
    # formed through series._product, which counts them all
    calls = [0]
    product = series_module._product

    def counting(u, v):
        calls[0] += 1
        return product(u, v)
    monkeypatch.setattr(series_module, "_product", counting)
    for tower, gens in budget_towers():
        oracle_run(tower, gens, precision=256)
    assert calls[0] <= 2036


@pytest.mark.parametrize("tower,gens", [
    pytest.param(*ea2_tower(*shape), id=f"ea2-{shape}") for shape in EA2_SHAPES]
    + [pytest.param(*elementary_2_cubed_tower(), id="(Z/2)^3")])
def test_a_sift_its_elements_fill_forms_no_power(monkeypatch, tower, gens):
    # one generator per step, each moving its own step first and with its
    # own lower jump: both sifts keep every element as it comes and stop
    # there, so neither composes, nor forms a p-th power of a kept element
    composed, powers = [], []
    compose, power = tower_module._compose, tower_module.power
    monkeypatch.setattr(tower_module, "_compose",
                        lambda *args: composed.append(args) or compose(*args))
    monkeypatch.setattr(tower_module, "power",
                        lambda *args: powers.append(args) or power(*args))
    oracle_run(tower, gens, precision=256)
    assert powers == [] and composed == []


# -- the sift against the whole group --------------------------------------------

@st.composite
def elementary_abelian_towers(draw, padded=False):
    """(Z/p)^n, n = 2 or 3, in changed coordinates, and a drawn generator
    set, redundant, dependent or short of the group.  With padded, the
    same elements follow, each shift of a later variable plus a drawn
    c x^k v^i (v^p - v - rhs_v), which is 0 in the function field.

    The plain tower V_i^p - V_i = c_i x^-j_i, with distinct j_i prime to p,
    is a field with the shifts V -> V + e for e in F_p^n.  Its coordinates
    v_i = V_i + P_i, for polynomials P_i in the earlier v, satisfy
    v_i^p - v_i = c_i x^-j_i + P_i^p - P_i, and e acts by
    v_i -> v_i + e_i + P_i(g(v)) - P_i(v): a polynomial shift."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.sampled_from([2, 3]))
    field = field_create(p, 1)
    names = "vwy"[:n]
    top = 8 if n == 2 else 4
    js = draw(st.lists(st.integers(1, top).filter(lambda j: j % p),
                       min_size=n, max_size=n, unique=True))
    unit = st.integers(1, p - 1).map(field.element)
    changes, steps = [], []
    for i, var in enumerate(names):
        change = VarPoly.zero(field)
        for _ in range(draw(st.integers(0, 2)) if i else 0):
            k = [(draw(st.sampled_from(names[:i])), draw(st.integers(1, 2)))]
            k += [("x", 1)] * draw(st.integers(0, 1))
            change += VarPoly(field, {tuple(k): draw(unit)})
        rhs = (VarPoly.var(field, "x", -js[i]).scale(draw(unit))
               + change.frobenius_power(1) - change)
        changes.append(change)
        steps.append(TowerStep(var, rhs))
    tower = TowerSpec(field, 1, tuple(steps))

    def action(e, name, pad=None):
        shifts, images = {}, {}
        for var, change, e_i in zip(names, changes, e):
            shifts[var] = (VarPoly.const(field, field.element(e_i))
                           + change.subst(images) - change)
            images[var] = VarPoly.var(field, var) + shifts[var]
        for var, zero in (pad or {}).items():
            shifts[var] += zero
        return GeneratorAction(tower, shifts, name)
    digit = st.integers(0, p - 1)
    vectors = draw(st.lists(st.lists(digit, min_size=n, max_size=n),
                            min_size=0 if draw(st.booleans()) else 1,
                            max_size=3))
    if not vectors or draw(st.booleans()):
        # the rows of a unitriangular matrix span F_p^n
        basis = [[int(i == k) if k <= i else draw(digit) for k in range(n)]
                 for i in range(n)]
        vectors = draw(st.permutations(basis + vectors))
    gens = [action(e, f"g{i}") for i, e in enumerate(vectors)]
    if not padded:
        return tower, gens, _rank_mod_p(vectors, p)
    v = VarPoly.var(field, names[0])
    zero = v ** p - v - steps[0].rhs
    same = []
    for i, e in enumerate(vectors):
        pad = {var: VarPoly(field, {
            ((names[0], draw(st.integers(0, p + 1))),
             ("x", draw(st.integers(js[0], js[0] + 2)))):
            field.element(draw(digit))}) * zero for var in names[1:]}
        same.append(action(e, f"g{i}", pad))
    return tower, gens, _rank_mod_p(vectors, p), same


def _rank_mod_p(rows, p):
    rows, rank = [list(r) for r in rows], 0
    for col in range(len(rows[0])):
        i = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if i is None:
            continue
        rows[rank], rows[i] = rows[i], rows[rank]
        pivot = rows[rank]
        inv = pow(pivot[col], -1, p)
        for r in rows[rank + 1:]:
            f = r[col] * inv % p
            r[:] = [(x - f * y) % p for x, y in zip(r, pivot)]
        rank += 1
    return rank


@st.composite
def quaternion_towers(draw):
    """A connected fiber of the quaternion family over F_4 or F_16, with
    generators drawn from mu, tau and their products."""
    field = draw(st.sampled_from([F4, F16]))
    element = st.integers(0, field.q - 1).map(field.from_index)
    params = draw(st.tuples(element, element, element).filter(
        lambda a: evaluate_quaternion_fiber(*a).connected))
    tower, (mu, tau) = quaternion_tower(field, *params)
    pool = [mu, tau, tower_module._compose(mu, tau),
            tower_module._compose(tau, mu), tower_module._compose(mu, mu)]
    gens = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    order = len(chart_walk.closure(tower, gens))
    return tower, gens, order.bit_length() - 1


def assert_sift_matches_the_whole_group(tower, gens, rank):
    p, n = tower.field.p, len(tower.steps)
    calls = []
    expand = tower_module._expand_tower

    def counting(*args):
        calls.append(args)
        return expand(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tower_module, "_expand_tower", counting)
        if rank < n:
            with pytest.raises(DomainError, match=(
                    f"generators produce a group of order {p ** rank}, "
                    f"expected {p ** n}$")):
                oracle_run(tower, gens, precision=1024)
            assert calls == []
            return
        run = oracle_run(tower, gens, precision=1024)
    assert run.filtration == chart_walk.lower_filtration(tower, gens,
                                                         run.precision)
    assert jumps_with_multiplicity(run.filtration) == \
        herbrand_lower_jumps(p, run.pole_orders)
    return run


@settings(max_examples=60, deadline=None)
@given(elementary_abelian_towers())
def test_sifted_filtration_equals_the_whole_group_on_abelian_towers(case):
    # the filtration read off a sifted sequence is the one the jumps of
    # every element give, at the precision the oracle answers at; a set
    # short of the group is refused before the tower is expanded.  An
    # answer's upper jumps are integers (Hasse-Arf)
    run = assert_sift_matches_the_whole_group(*case)
    if run is not None:
        assert validate(run.filtration, abelian=True) == []


def test_hasse_arf_refuses_the_quaternion_filtration():
    # lower jumps 1, 1, 3 have the upper jump 3/2: the check above is not
    # vacuous on a non-abelian answer
    run = oracle_run(*quaternion_tower(F4), precision=1024)
    assert jumps_with_multiplicity(run.filtration) == [1, 1, 3]
    assert validate(run.filtration, abelian=True) == [
        "abelian filtration has non-integral upper jump 3/2"]


def witt_tower(p, a, b):
    """The cyclic Z/p^2 tower F(v, w) - (v, w) = (x^-a, x^-b) in the Witt
    vectors of length 2, for p = 2 and 3, in components: v^p - v = x^-a, and
    w^p - w = x^-b plus the carry terms of the Witt difference.  Its
    generator adds (1, 0): v -> v + 1, and w -> w plus the carry of that
    sum."""
    field = field_create(p, 1)
    x_a, x_b = VarPoly.var(field, "x", -a), VarPoly.var(field, "x", -b)
    v = VarPoly.var(field, "v")
    if p == 2:
        rhs, carry = x_b + x_a * v, v
    else:
        rhs = x_b - v * v * x_a - v * x_a * x_a
        carry = -(v * v) - v
    tower = TowerSpec(field, 1, (TowerStep("v", x_a), TowerStep("w", rhs)))
    shift = GeneratorAction(tower, {"v": VarPoly.const(field, field.one()),
                                    "w": carry}, "s")
    return tower, [shift]


WITT_SHAPES = ([(2, a, b) for a in (1, 3, 5) for b in range(1, 14, 2)]
               + [(3, a, b) for a in (1, 2, 4)
                  for b in (1, 2, 4, 5, 7, 8, 13)])


@pytest.mark.parametrize("p,a,b", WITT_SHAPES)
def test_cyclic_witt_towers_have_schmids_upper_jumps(p, a, b):
    # Schmid: the upper jumps of the cyclic Z/p^2 extension of the Witt
    # vector (x^-a, x^-b), p prime to a and b, are a and max(p a, b)
    run = oracle_run(*witt_tower(p, a, b), 1024)
    upper = lower_to_upper(run.filtration)
    assert jumps_with_multiplicity(upper) == [a, max(p * a, b)]
    assert validate(run.filtration, cyclic=True) == []
    assert herbrand_lower_jumps(p, run.pole_orders) == \
        jumps_with_multiplicity(run.filtration)


@settings(max_examples=25, deadline=None)
@given(quaternion_towers())
def test_sifted_filtration_equals_the_whole_group_on_quaternion_towers(case):
    assert_sift_matches_the_whole_group(*case)


# -- the normal form -------------------------------------------------------------

def in_normal_form(tower, g):
    """Every step variable of g's images to an exponent below p."""
    return all(e < tower.field.p for img in g.images.values()
               for k in img.terms for var, e in k if var != "x")


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_shift_is_reduced_when_its_element_is_built(k):
    # over F_5 with v^5 = v + x^-3, v^(5^k) = v + x^-3 + x^-15 + ... +
    # x^-(3*5^(k-1)): the element keeps that normal form as its image
    tower, _ = ea2_tower(5, 3, 8)
    field = tower.field
    g = GeneratorAction(tower, {"w": VarPoly.var(field, "v", 5 ** k)}, "g")
    expected = VarPoly.var(field, "w") + VarPoly.var(field, "v")
    for i in range(k):
        expected += VarPoly.var(field, "x", -3 * 5 ** i)
    assert g.images["w"] == expected
    assert in_normal_form(tower, g)
    big = GeneratorAction(tower, {"w": VarPoly.var(field, "v",
                                                   STEP_EXPONENT_CAP)})
    assert in_normal_form(tower, big)


def oracle_outcome(tower, gens):
    try:
        return oracle_run(tower, gens, precision=1024)
    except DomainError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None)
@given(elementary_abelian_towers(padded=True))
def test_drawn_generators_are_in_normal_form(case):
    # shifts that differ by 0 in the function field give one element: the
    # same images, in normal form, and the same answer or refusal
    tower, gens, _, padded = case
    for g, same in zip(gens, padded):
        assert in_normal_form(tower, same)
        assert same.images == g.images
    assert oracle_outcome(tower, padded) == oracle_outcome(tower, gens)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_shift_plus_zero_in_the_field_is_the_same_element(data):
    # c x^k v^i (v^p - v - rhs_v) is 0 in the function field: added to a
    # shift of w, it changes neither the element's images nor the oracle's
    # filtration, answering precision and pole orders
    p, j1, j2 = data.draw(st.sampled_from(EA2_SHAPES))
    tower, gens = ea2_tower(p, j1, j2)
    field = tower.field
    v = VarPoly.var(field, "v")
    c = field.element(data.draw(st.integers(1, p - 1)))
    k, i = data.draw(st.integers(j1, j1 + 3)), data.draw(st.integers(0, 12))
    zero = (VarPoly(field, {(("v", i), ("x", k)): c})
            * (v ** p - v - tower.steps[0].rhs))
    one = VarPoly.const(field, field.one())
    shifts = [{"v": one, "w": zero}, {"w": one + zero}]
    at = data.draw(st.sampled_from([0, 1]))
    changed = list(gens)
    changed[at] = GeneratorAction(tower, shifts[at], gens[at].name)
    assert changed[at].images == gens[at].images
    assert in_normal_form(tower, changed[at])
    assert oracle_run(tower, changed, precision=256) == \
        oracle_run(tower, gens, precision=256)


def test_the_generator_check_reduces_no_frobenius_image_of_a_high_power(
        monkeypatch):
    # a count, not a timing: the shift v^500 over F_5 is reduced when its
    # element is built, so the check reduces s^p - s - ... for s in normal
    # form, step exponents below p^2.  Reduced in the check alone, it handed
    # v^2500 to the reduction, which steps down one exponent at a time
    tower, _ = ea2_tower(5, 3, 8)
    g = GeneratorAction(tower, {"w": VarPoly.var(tower.field, "v", 500)}, "g")
    seen = []
    reduce = TowerSpec.reduce

    def recording(self, a):
        seen.append(max((e for k in a.terms for var, e in k if var != "x"),
                        default=0))
        return reduce(self, a)
    monkeypatch.setattr(TowerSpec, "reduce", recording)
    with pytest.raises(DomainError, match="generator g does not preserve the "
                                          "equation of step w"):
        tower_module._check_generators(tower, [g])
    assert seen and max(seen) < 5 ** 2


def heisenberg_tower(p, a, b):
    """v^p - v = x^-a, w^p - w = x^-b, y^p - y = v x^-b, with s: v -> v + 1,
    y -> y + w and t: w -> w + 1.  s^p = t^p = 1, and st and ts differ on y
    by 1: the group is the Heisenberg group of order p^3 (the dihedral group
    of order 8 at p = 2), and s and t fill a sequence of it only through
    their commutator."""
    field = field_create(p, 1)
    rhs = {"v": VarPoly.var(field, "x", -a), "w": VarPoly.var(field, "x", -b),
           "y": VarPoly.var(field, "v") * VarPoly.var(field, "x", -b)}
    tower = TowerSpec(field, 1, tuple(TowerStep(var, rhs[var])
                                      for var in "vwy"))
    one = VarPoly.const(field, field.one())
    s = GeneratorAction(tower, {"v": one, "y": VarPoly.var(field, "w")}, "s")
    return tower, [s, GeneratorAction(tower, {"w": one}, "t")]


@pytest.mark.parametrize("p,a,b,jumps", [
    (2, 1, 3, [1, 5, 9]), (3, 1, 2, [1, 4, 13]), (5, 1, 2, [1, 6, 31]),
    (3, 2, 1, [1, 4, 13]), (2, 3, 5, [3, 7, 19])])
def test_sift_fills_a_nonabelian_group_through_a_commutator(monkeypatch, p, a,
                                                           b, jumps):
    # the sift keeps s and t, their p-th powers sift to 1, and only the
    # commutator, the one word it forms with an inverse, fills the sequence
    tower, gens = heisenberg_tower(p, a, b)
    inverted = []
    inverse = tower_module._inverse
    monkeypatch.setattr(tower_module, "_inverse",
                        lambda *args: inverted.append(args) or inverse(*args))
    run = oracle_run(tower, gens, precision=256)
    assert inverted
    assert jumps_with_multiplicity(run.filtration) == jumps == \
        herbrand_lower_jumps(p, run.pole_orders)
    assert run.filtration == chart_walk.lower_filtration(tower, gens,
                                                         run.precision)


def test_oracle_precision_cap_exhausted():
    tower, gens = single_step_tower(2, 31)
    with pytest.raises(DomainError, match="precision cap"):
        oracle_run(tower, gens, 16)


def first_call_corrupted(monkeypatch, name, corrupt):
    """Replace tower.<name> by a wrapper that hands its first result through
    corrupt: the first oracle attempt sees it, and later ones do not."""
    real, calls = getattr(tower_module, name), []

    def wrapper(*args):
        out = real(*args)
        calls.append(name)
        return corrupt(out, *args) if len(calls) == 1 else out

    monkeypatch.setattr(tower_module, name, wrapper)
    return calls


@pytest.mark.parametrize("name,corrupt,message", [
    # the first step's uniformizer built from (alpha + 1, beta): T^(p+1)
    ("_uniformizer_exponents", lambda ab, p, j: (ab[0] + 1, ab[1]),
     "uniformizer relation failed to close"),
    # the identity's image of T off by T^2
    ("_uniformizer_image",
     lambda t, g, *rest: t + TruncatedSeries.monomial(t.field, 2, t.prec),
     "identity does not reproduce the uniformizer"),
], ids=["relation", "identity"])
def test_an_attempt_that_fails_its_consistency_check_is_retried(
        monkeypatch, name, corrupt, message):
    """Each consistency check of an oracle attempt is a PrecisionError: the
    doubling retries it, and the next attempt answers what an untouched run
    answers; at a cap the first attempt already reaches, the run is refused
    with the check's message."""
    tower, gens = ea2_tower(3, 1, 2)
    clean = oracle_run(tower, gens, precision=64)
    assert clean.precision == 32
    calls = first_call_corrupted(monkeypatch, name, corrupt)
    run = oracle_run(tower, gens, precision=64)
    assert calls and (run.filtration, run.precision) == (clean.filtration, 64)
    calls.clear()
    with pytest.raises(DomainError,
                       match=f"oracle precision cap 32 exhausted: {message}"):
        oracle_run(tower, gens, precision=32)


def test_rh_consistency_oracle_vs_analytic():
    # genus from the oracle filtration equals genus from the filtration
    # reconstructed out of Herbrand's jumps from the step conductors
    towers = [single_step_tower(2, 5), single_step_tower(3, 4),
              quaternion_tower(F4)]
    for tower, gens in towers:
        p = tower.field.p
        run = oracle_run(tower, gens, precision=200)
        steps = herbrand_lower_jumps(p, run.pole_orders)
        breaks = tuple(
            (Fraction(j), p ** sum(1 for x in steps if x >= j))
            for j in sorted(set(steps)))
        rebuilt = RamFiltration(tower.total_order, tower.m, "lower", breaks)
        assert rebuilt == run.filtration
        assert genus_rh(tower.total_order, rebuilt) == \
            genus_rh(tower.total_order, run.filtration)


def test_quaternion_oracle_jumps_helper():
    assert quaternion_pipeline.oracle_jumps(F4) == [1, 1, 3]


def test_quaternion_defining_relation():
    # mu * tau = [-1] * tau * mu, composed as automorphisms
    from ramify.tower import _compose
    tower, (mu, tau) = quaternion_tower(F4)
    minus_one = _compose(mu, mu)
    lhs = _compose(mu, tau)
    rhs = _compose(minus_one, _compose(tau, mu))
    assert lhs.key() == rhs.key()
    assert lhs.key() != _compose(tau, mu).key()  # genuinely non-abelian


def test_quaternion_fibers_construct_few_checked_polynomials(monkeypatch):
    # a fiber's report is read off the closed form: neither the public nor
    # the trusted constructor of LaurentPoly runs on the fiber path
    calls = [0]
    init, make = LaurentPoly.__init__, LaurentPoly._make.__func__

    def counted_init(self, *args):
        calls[0] += 1
        init(self, *args)

    def counted_make(cls, *args):
        calls[0] += 1
        return make(cls, *args)
    monkeypatch.setattr(LaurentPoly, "__init__", counted_init)
    monkeypatch.setattr(LaurentPoly, "_make", classmethod(counted_make))
    a2 = F16.from_index(5)
    for a1 in F16.elements():
        for a3 in F16.elements():
            evaluate_quaternion_fiber(a1, a2, a3)
    assert calls[0] == 0


@pytest.mark.parametrize("field", [F4, F16], ids=["F4", "F16"])
def test_fiber_closed_form_matches_pipeline(field):
    # every fiber over the field: the closed form against the Laurent
    # normalization pipeline it summarizes
    elements = list(field.elements())
    for a1 in elements:
        for a2 in elements:
            for a3 in elements:
                rep = evaluate_quaternion_fiber(a1, a2, a3)
                stage, top, leading = quaternion_pipeline.fiber(a1, a2, a3)
                assert rep.connected == (stage is None)
                assert rep.stage == stage
                assert rep.top_jump == top
                assert rep.leading == leading


@pytest.mark.parametrize("p,a", [(2, 1), (2, 4), (3, 2)])
def test_a_bare_variable_evaluates_to_its_own_series(p, a):
    """v at env is env["v"] itself: v^1 is the series and a multiple by one
    returns it, so the inverse and powers it keeps come along."""
    field = field_create(p, a)
    v = TruncatedSeries(field, {-1: field.from_index(field.q - 1),
                                2: field.one()}, 12)
    env = {"v": v, "x": TruncatedSeries.monomial(field, 1, 12)}
    assert VarPoly.var(field, "v").eval(env, 12) is v
    assert v.scale(field.one()) is v
    if field.q > 2:
        assert v.scale(field.from_index(field.q - 1)) is not v
