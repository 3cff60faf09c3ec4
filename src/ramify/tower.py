"""Towers of degree-p steps over a tame base, and their invariants.

The heart of the module is an oracle for lower jumps: it builds a uniformizer
at the top of the tower step by step, re-expands every variable as a truncated
series in it, and reads the lower filtration off the valuations of g(T) - T
for a few group elements.  The group is never listed.  The generators are
sifted twice into a polycyclic generating sequence (Holt, Eick and O'Brien,
Handbook of Computational Group Theory, ch. 8): once exactly, by the first
step each element moves, which gives |G| = p^n for n steps and n elements;
then, in each attempt, by the lower filtration itself, whose quotients
G_i/G_(i+1) embed in (k, +) through the leading coefficient of g(T) - T
(Serre, Local Fields IV §2).  |G_i| is p to the number of elements the
second sift keeps at level >= i, and it stops at n of them.  g(T) is built
chart by chart, through the uniformizer of each field K_k of the tower; K_k
is stable under the group, so that image depends only on g's restriction to
K_k and the elements of one attempt share it.  Building the uniformizer
finds each step's conductor, the reduced pole order of its right-hand side
in the uniformizer below it, and herbrand_lower_jumps turns those
conductors alone into the lower jumps of the whole group (Herbrand's
theorem, Serre, Local Fields IV): a second route that uses no generator, no
sift and no g(T) - T.

Per step with (reduced) pole order j prime to p, the new uniformizer is
T_new = T_old^alpha * y^beta where alpha*p - beta*j = 1 and alpha is the
minimal nonnegative solution.  Writing tau = T^p s^beta and eta = T^-j s^-alpha
for one unknown unit s turns the step equation eta^p - eta = f(tau) into the
fixed-point form

    s = lead(f)^-1 * (1 - T^(j(p-1)) s^(alpha(p-1)) - T^(jp) s^(alpha p) f_tail(tau))

whose right side is a T-adic contraction in s, so the unit has a unique
truncation at every precision; it is found by Newton iteration, doubling the
known coefficients per pass, with no root extractions.  Steps whose right-hand
side has a p-divisible pole are first reduced by subtracting d^p - d for
monomial d (exact, since the coefficient field is perfect).

Genus comes from the Riemann-Hurwitz formula for a one-point totally ramified
cover of a genus-0 base; the p-rank from the Deuring-Shafarevich count in the
variant gamma - 1 = |P|(gamma_base - 1) + sum_b (|P| - |P|/e_b), pinned by its
gamma = 0 test cases.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import (Checked, DomainError, PrecisionError, json_int, json_str,
                     reading)
from .gf import (Field, FieldElement, check_field, check_tame, field_create,
                 json_element, power, root_of_unity)
from .laurent import SparsePoly, accumulate
from .ramfilt import LOWER, RamFiltration, check_numbering
from .series import TruncatedSeries, compose

# The largest |exponent| of a step variable in a right-hand side or a shift,
# a desk-scale bound on what the normal form and the generator check
# expand.  At p = 2, 3, 5 and e = 500, `verify` (precision 200 and 4096,
# worst of 3 runs on a 2-vCPU host) answered or refused in at most 0.26 s
# on: a shift by v^e; v^e in a right-hand side; the shift v^(e-p) (x v^p -
# x v - 1), zero in the field, with and without + 1; and the shift (v+1)^k -
# v^k that w^p - w = v^(kp) - v^k + x^-7 needs (e = kp).  The last is the
# slowest, about half of it in the generator check, which reduces the
# right-hand side at the images, of degree kp in v, one exponent at a time;
# a shift by v^e is reduced once, when its element is built (0.02 s over
# F_5).  At e = 1000 the worst took 0.8 s.
STEP_EXPONENT_CAP = 500


class VarPoly(SparsePoly):
    """A multivariate Laurent polynomial in x and the tower's step
    variables; immutable.  A monomial key is a sorted tuple of (variable,
    nonzero exponent) pairs, () for 1."""

    __slots__ = ()
    ONE = ()

    @staticmethod
    def _key(k):
        return tuple(sorted((var, e) for var, e in k if e))

    @staticmethod
    def _mono_mul(k1, k2):
        exps = dict(k1)
        for var, e in k2:
            e2 = exps.get(var, 0) + e
            if e2:
                exps[var] = e2
            else:
                exps.pop(var, None)
        return tuple(sorted(exps.items()))

    @staticmethod
    def _mono_pow(k, n):
        return tuple((var, e * n) for var, e in k)

    @classmethod
    def const(cls, field: Field, c: FieldElement) -> "VarPoly":
        return cls(field, {(): c})

    @classmethod
    def var(cls, field: Field, name: str, exp: int = 1) -> "VarPoly":
        return cls._make(field, {((name, exp),): field.one()})

    def variables(self) -> set[str]:
        return {var for k in self.terms for var, _ in k}

    def subst(self, images: dict[str, "VarPoly"]) -> "VarPoly":
        """Substitute images for the variables they map; other variables
        stay.  Each power of an image is computed once per call, and a
        mapped variable needs a nonnegative exponent."""
        out = {}
        powers = {}
        for k, c in self.terms.items():
            term = self._make(self.field, {
                tuple(item for item in k if item[0] not in images): c})
            for item in k:
                var, e = item
                if var in images:
                    if item not in powers:
                        powers[item] = images[var] ** e
                    term = term * powers[item]
            accumulate(out, term.terms.items())
        return self._make(self.field, out)

    def eval(self, env: dict[str, TruncatedSeries],
             prec: int) -> TruncatedSeries:
        """self at the series of env.  A monomial is the product of its
        powers times its exact coefficient, so it keeps all the precision
        they have, and an exact constant term joins the sum at the sum's
        precision; only a bare constant, or the zero polynomial, takes
        prec."""
        out = None
        for k, c in self.terms.items():
            if k:
                term = None
                for var, e in k:
                    if var not in env:
                        raise DomainError(f"unknown variable {var}")
                    factor = env[var] ** e
                    term = factor if term is None else term * factor
                term = term.scale(c)
                out = term if out is None else out + term
        const = self.terms.get(())
        if out is None:
            out = TruncatedSeries.zero(self.field, prec)
        if const:
            out = out + TruncatedSeries.monomial(self.field, 0, out.prec, const)
        return out

    @classmethod
    def from_json(cls, field: Field, expr) -> "VarPoly":
        terms = {}
        with reading("malformed expression: "):
            for coeffs, exps in expr:
                c = json_element(field, coeffs)
                k = cls._key((str(v), json_int(e)) for v, e in exps.items())
                accumulate(terms, [(k, c)])
        return cls._make(field, terms)


def _check_step_exponents(a: VarPoly, where: str):
    for k in a.terms:
        for var, e in k:
            if var != "x" and abs(e) > STEP_EXPONENT_CAP:
                raise DomainError(
                    f"{where}: exponent {e} of {var} exceeds the limit "
                    f"{STEP_EXPONENT_CAP}")


def _names(names) -> str:
    """A set's repr with its names sorted: the same bytes on every run."""
    return "{%s}" % ", ".join(map(repr, sorted(names)))


# ---------------------------------------------------------------------------
# Tower data.

class TowerStep(namedtuple("TowerStep", "var rhs")):
    """The step var^p - var = rhs: var a str, rhs a VarPoly."""

    __slots__ = ()


class TowerSpec(Checked, namedtuple("TowerSpec", "field m steps")):
    """Degree-p steps over the germ coordinate x (tame base step u = x^m):
    field a Field, m an int and steps a tuple of TowerStep."""

    __slots__ = ()

    def __new__(cls, field, m, steps):
        check_tame(m, field.p)
        known = {"x"}
        for step in steps:
            if step.var in known:
                raise DomainError(f"duplicate variable {step.var}")
            if step.rhs.field is not field:
                check_field(field, step.rhs.field)
            _check_step_exponents(step.rhs, f"step {step.var}")
            extra = step.rhs.variables() - known
            if extra:
                raise DomainError(f"step {step.var} uses undeclared {_names(extra)}")
            negative = next((var for k in step.rhs.terms for var, e in k
                             if var != "x" and e < 0), None)
            if negative is not None:  # reduce needs nonnegative powers
                raise DomainError(f"step {step.var} has a negative power of "
                                  f"the step variable {negative}")
            known.add(step.var)
        return super().__new__(cls, field, m, steps)

    @property
    def wild_order(self) -> int:
        return self.field.p ** len(self.steps)

    @property
    def total_order(self) -> int:
        return self.m * self.wild_order

    def reduce(self, a: VarPoly) -> VarPoly:
        """The normal form of a: every step variable to an exponent below p,
        by var^p = var + rhs from the top variable down.  An rhs holds only
        earlier variables, so reducing one variable never raises a later
        one.  The result is a sum of Laurent polynomials in x times products
        of step variables with exponents in [0, p), and those products are a
        basis of the tower's function field over that of x, since every step
        is monic of degree p: two polynomials with nonnegative step powers
        are equal in the field iff their normal forms are."""
        field, p = self.field, self.field.p
        if all(e < p for k in a.terms for var, e in k if var != "x"):
            return a
        zero, mono_mul = VarPoly.zero(field), VarPoly._mono_mul
        for step in reversed(self.steps):
            parts = _split(a, step.var)
            for e in range(max(parts, default=0), p - 1, -1):
                c = parts.pop(e, None)
                if c:  # var^e = var^(e-p+1) + var^(e-p) rhs
                    parts[e - p + 1] = parts.get(e - p + 1, zero) + c
                    parts[e - p] = parts.get(e - p, zero) + c * step.rhs
            a = VarPoly._make(field, {
                mono_mul(k, ((step.var, e),)): co
                for e, c in parts.items() for k, co in c.terms.items()})
        return a


class GeneratorAction:
    """An automorphism given by var -> var + shift, shifts in earlier variables.

    images maps the step variables, in tower order, to their images in the
    tower's normal form (TowerSpec.reduce); the base coordinate x is fixed
    and has none."""

    def __init__(self, tower: TowerSpec, shifts: dict[str, VarPoly],
                 name: str = ""):
        self.name = name
        self.tower = tower
        field = tower.field
        order = ["x"] + [s.var for s in tower.steps]
        images = {}
        for i, var in enumerate(order[1:], start=1):
            sh = shifts.get(var) or VarPoly.zero(field)
            _check_step_exponents(sh, f"shift of {var}")
            allowed = set(order[:i])
            extra = sh.variables() - allowed
            if extra:
                raise DomainError(f"shift of {var} uses later variables {_names(extra)}")
            for k in sh.terms:
                if any(e < 0 for _, e in k):
                    raise DomainError("shifts must be polynomial (exponents >= 0)")
            images[var] = VarPoly.var(field, var) + sh
        if "x" in shifts and shifts["x"]:
            raise DomainError("the base coordinate cannot be shifted")
        unknown = set(shifts) - set(order)
        if unknown:
            raise DomainError(f"shifts for undeclared variables {_names(unknown)}")
        self.images = {var: tower.reduce(img) for var, img in images.items()}

    @classmethod
    def _raw(cls, tower, images, name=""):
        obj = cls.__new__(cls)
        obj.tower = tower
        obj.images = images
        obj.name = name
        return obj

    def key(self):
        """The images in tower order, so key()[:k] keys the restriction to
        the first k step variables; normal forms, so two elements are equal
        in the function field iff their keys are."""
        return tuple(self.images.values())


def _compose(g: GeneratorAction, h: GeneratorAction) -> GeneratorAction:
    """(g o h)(var) = g(h(var)), in normal form."""
    images = {var: g.tower.reduce(img.subst(g.images))
              for var, img in h.images.items()}
    return GeneratorAction._raw(g.tower, images, name=f"{g.name}*{h.name}")


def _identity(tower: TowerSpec) -> GeneratorAction:
    images = {s.var: VarPoly.var(tower.field, s.var) for s in tower.steps}
    return GeneratorAction._raw(tower, images, name="1")


def _inverse(g: GeneratorAction) -> GeneratorAction:
    """g^-1, exact and triangular: g maps var to var + s with s in earlier
    variables, so g^-1(var) = var - g^-1(s), reduced, from the images of the
    earlier variables already inverted."""
    tower = g.tower
    images = {}
    for var, img in g.images.items():
        v = VarPoly.var(tower.field, var)
        images[var] = tower.reduce(v - (img - v).subst(images))
    return GeneratorAction._raw(tower, images, name=f"{g.name}^-1")


def _sift(tower: TowerSpec, elements, lead) -> list[tuple[int, GeneratorAction]]:
    """A polycyclic generating sequence of the group the elements generate,
    refining the series that lead names, as (level, element) pairs.

    lead(g) is None for the identity and otherwise (level, vector over F_p):
    g lies in the level-th group of a central series and the vector is its
    image in that group's quotient by the next, an elementary abelian group.
    Each element is sifted: while its vector depends on those kept at its
    level, it is composed with powers of their inverses, which moves it a
    level down; an element left with a new vector is kept.  Once every
    element, every kept p-th power and every commutator of two kept
    elements sifts to the identity, the normal words in the kept elements
    make up the whole group, |G| = p^(number kept), and the kept elements
    at level >= l generate the level-l group (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, ch. 8).  Commutators are formed
    only for kept elements that do not commute, by their keys.  The p-th
    powers and commutators are formed only when the given elements leave
    the sequence short of one element per step, and the sift stops at that
    many: the group has order at most p^(#steps) (see close_group).
    """
    p, n = tower.field.p, len(tower.steps)
    # level -> [(column, vector, kept q)]
    rows: dict[int, list] = {}
    kept = []

    def words():
        yield from elements
        for i, (_, q) in enumerate(kept):  # kept grows while this runs
            yield power(q, p, _compose)
            for _, r in kept[:i]:
                qr, rq = _compose(q, r), _compose(r, q)
                if qr.key() != rq.key():
                    yield _compose(qr, _inverse(rq))

    for g in words():
        found = lead(g)
        while found is not None:
            level, vec = found
            at_level = rows.setdefault(level, [])
            for col, row, q in at_level:
                a = vec[col] * pow(row[col], -1, p) % p
                if a:
                    g = _compose(g, power(_inverse(q), a, _compose))
                    vec = tuple((x - a * y) % p for x, y in zip(vec, row))
            if any(vec):
                col = next(i for i, x in enumerate(vec) if x)
                at_level.append((col, vec, g))
                kept.append((level, g))
                break
            found = lead(g)
        if len(kept) == n:  # before words() forms another
            break
    return kept


def _step_lead(g: GeneratorAction):
    """The first step g moves and its shift there, for the sift by steps.

    g fixes the variables below var and maps var to var + s, so s^p - s =
    rhs(g vars) - rhs = 0: s is in F_p when the steps below var form a
    field, and a non-constant s shows they do not."""
    for level, (var, img) in enumerate(g.images.items()):
        shift = img - VarPoly.var(g.tower.field, var)
        if shift:
            c = shift.terms.get(())
            if len(shift.terms) > 1 or c is None or any(c.coeffs[1:]):
                raise DomainError(
                    f"a group element moves {var} by a shift outside F_p, so "
                    f"the steps below {var} do not form a field")
            return level, c.coeffs[:1]
    return None


def close_group(tower: TowerSpec, generators) -> list[GeneratorAction]:
    """A polycyclic generating sequence of the group, one element per step;
    the generators must make a group of order p^(#steps) exactly.

    The series sifted by is that of the fixers of the fields of the tower:
    level k holds the elements that fix the first k step variables, and the
    lead of such an element is its shift of the next one, a constant in F_p
    (see _step_lead).  Each quotient is at most F_p, so the sequence has at
    most one element per step and |G| <= p^(#steps); a shorter one is a
    smaller group, refused.  Elements are compared on their images in
    normal form, so a composition that is the identity in the function
    field counts as the identity."""
    seq = _sift(tower, generators, _step_lead)
    if len(seq) != len(tower.steps):
        raise DomainError(
            f"generators produce a group of order {tower.field.p ** len(seq)}, "
            f"expected {tower.wild_order}")
    return [g for _, g in seq]


# ---------------------------------------------------------------------------
# Series expansion of the tower.

def _peel(f: TruncatedSeries, p: int, var: str, work: int):
    """Reduce p-divisible pole orders of step var by subtracting d^p - d for
    monomials d.

    Returns (reduced series with p-free pole, the terms (exponent,
    coefficient) of the d in increasing exponent).  Each d is exact, even
    where it lies past the precision of f.  Raises DomainError when no pole
    survives (the step is not totally ramified) and PrecisionError, naming
    the working precision work, when nothing is left to see: a right-hand
    side in the image of d -> d^p - d vanishes so at every precision, and
    some others only below a precision the doubling reaches.
    """
    field = f.field
    peel = []
    while True:
        if f.is_zero_to_precision():
            raise PrecisionError(
                f"step {var}: right-hand side vanished after the peel at "
                f"working precision {work}")
        v = f.valuation()
        if v >= 0:
            raise DomainError(
                "step is not totally ramified: right-hand side has no pole "
                "after reduction")
        if (-v) % p != 0:
            return f, tuple(peel)
        c = f.leading()
        root = c.pth_root()
        peel.append((v // p, root))
        d = TruncatedSeries.monomial(field, v // p, f.prec, coeff=root)
        d_p = TruncatedSeries.monomial(field, v, f.prec, coeff=c)
        f = f - d_p + d


def _uniformizer_exponents(p: int, j: int) -> tuple[int, int]:
    """alpha = p^-1 mod j in [0, j) (0 at j = 1); beta = (alpha*p - 1)/j."""
    alpha = pow(p, -1, j)
    return alpha, (alpha * p - 1) // j


def _solve_unit(f: TruncatedSeries, j: int, alpha: int, beta: int,
                prec: int) -> TruncatedSeries:
    """The unit s making tau = T^p s^beta, eta = T^-j s^-alpha solve the step.

    The truncation of f contributes an error of O(T^(p*prec(f) + jp)) to the
    fixed-point equation, which bounds the honest precision of s.

    With c the leading coefficient of f (at t^-j), g(t) = t^j f(t) - c, a
    polynomial of positive valuation, and alpha*p - beta*j = 1, the
    fixed-point form reads

        s = c^-1 (1 - T^(j(p-1)) s^(alpha(p-1)) - s g(T^p s^beta)),

    whose root TruncatedSeries.step_unit finds by Newton iteration, doubling
    the known coefficients of s per pass.  The right side is a T-adic
    contraction, so its fixed point mod T^cap is unique and its accuracy is
    limited only by the truncation of f, not by how precision rules compound
    across passes.
    """
    p = f.field.p
    # cap >= 1: _peel leaves val(f) = -j < f.prec, so p f.prec + jp >= p, and
    # a working precision below 1 is refused before, by eval or _peel
    return f.step_unit(alpha, beta, min(prec, p * f.prec + j * p))


class _StepChart(namedtuple("_StepChart", "var pole_order alpha beta peel")):
    """How one step's uniformizer was built: T_new = T_old^alpha * y'^beta
    with y' = y - D(T_old) for the exact peel correction D (empty when no
    pole was peeled), held in peel as ((exponent, coefficient), ...) in
    T_old units."""

    __slots__ = ()


def _expand_tower(tower: TowerSpec, prec: int):
    """Expansions of all tower variables in the top uniformizer.

    Returns (env, charts) where charts records, step by step, how the top
    uniformizer is assembled from the tower variables.

    No inverse here needs Newton iteration.  The unit s keeps 1/s (see
    TruncatedSeries.step_unit); tau = T^p s^beta keeps 1/tau = T^-p s^-beta,
    which compose's tau^v for v < 0 and the peel's tau^e read, and so does
    the next step's x^-1, since x there is compose(T, tau) = tau itself.
    For j = 1 (alpha = 0, beta = -1) eta = T^-1 keeps 1/eta = T s^0, which
    t_check reads.  Both are powers of s at the relative precision of tau
    and eta, so exact (see TruncatedSeries.keep_inverse).
    """
    field = tower.field
    p = field.p
    env = {"x": TruncatedSeries.monomial(field, 1, prec)}
    charts = []
    for step in tower.steps:
        f = step.rhs.eval(env, prec)
        f, peel = _peel(f, p, step.var, prec)
        j = -f.valuation()
        alpha, beta = _uniformizer_exponents(p, j)
        s = _solve_unit(f, j, alpha, beta, prec)
        tau = (s ** beta).shift(p).keep_inverse((s ** -beta).shift(-p))
        eta = (s ** -alpha).shift(-j)
        if beta < 0:
            eta.keep_inverse((s ** alpha).shift(j))
        # consistency: the defining monomial of the new uniformizer is T itself
        t_check = tau ** alpha * eta ** beta
        if not (t_check - TruncatedSeries.monomial(field, 1, t_check.prec)
                ).is_zero_to_precision():
            raise PrecisionError("uniformizer relation failed to close")
        new_env = {name: compose(ser, tau) for name, ser in env.items()}
        # y = eta + D(tau) for the exact peel correction D
        y_series = eta
        for e, c in peel:
            y_series = y_series + (tau ** e).scale(c)
        new_env[step.var] = y_series
        env = new_env
        charts.append(_StepChart(step.var, j, alpha, beta, peel))
    return env, charts


def _uniformizer_image(g: GeneratorAction, env, charts, prec: int,
                       images: dict) -> TruncatedSeries:
    """The series of g(T) for the top uniformizer T, following the charts.

    Chart k builds T_k^g, the image of the uniformizer of the field K_k of
    the first k step variables.  K_k is stable under the group (a shift
    uses only earlier variables), so T_k^g depends only on g's reduced
    images of those variables, g.key()[:k], its coset modulo the fixer of
    K_k.  images maps them to T_k^g for the elements one attempt sifts:
    each chart is evaluated once per coset among them, and an element that
    fixes the lower variables, as the deeper ones of the sequence do,
    shares the identity's lower charts and the powers they keep.  A chart
    with j = 1 (alpha = 0, beta = -1) makes T_k^g = 1/y', so it keeps y',
    cut to the relative precision of T_k^g, as its inverse, and the next
    chart's peel reads it."""
    cur = env["x"]
    key = g.key()
    for k, chart in enumerate(charts, start=1):
        known = images.get(key[:k])
        if known is None:
            y_ser = g.images[chart.var].eval(env, prec)
            for e, c in chart.peel:
                y_ser = y_ser - (cur ** e).scale(c)
            known = images[key[:k]] = cur ** chart.alpha * y_ser ** chart.beta
            if not chart.alpha:
                known.keep_inverse(y_ser.truncate(known.prec - 2 * known.val))
        cur = known
    return cur


def _split(a: VarPoly, var: str) -> dict[int, VarPoly]:
    """a as {exponent of var: coefficient free of var}."""
    out: dict[int, dict] = {}
    for k, c in a.terms.items():
        e = dict(k).get(var, 0)
        rest = tuple(item for item in k if item[0] != var)
        out.setdefault(e, {})[rest] = c
    return {e: VarPoly._make(a.field, terms) for e, terms in out.items()}


def _check_generators(tower: TowerSpec, generators):
    """Each generator must preserve every step equation, exactly.

    g maps var to var + s, so g(var)^p - g(var) = rhs + s^p - s, and g
    preserves var^p - var = rhs iff D = s^p - s - (rhs(g vars) - rhs) is 0
    in the function field of the tower, that is iff D's normal form is 0
    (see TowerSpec.reduce).  s^p is the Frobenius of s, term by term; s is
    in normal form, so the step exponents of s^p stay below p^2.
    """
    for g in generators:
        for step in tower.steps:
            shift = g.images[step.var] - VarPoly.var(tower.field, step.var)
            d = (shift.frobenius_power(1) + step.rhs
                 - (shift + step.rhs.subst(g.images)))
            if tower.reduce(d):
                raise DomainError(
                    f"generator {g.name or '?'} does not preserve the "
                    f"equation of step {step.var}")


class OracleRun(namedtuple("OracleRun", "filtration precision pole_orders")):
    """The oracle's RamFiltration, the working precision that answered, and
    pole_orders, the step conductors, bottom step first."""

    __slots__ = ()


def oracle_run(tower: TowerSpec, generators, precision: int = 200) -> OracleRun:
    """Lower jumps by direct valuation of g(T) - T on a filtered generating
    sequence of the group.

    Starts with a small working precision and doubles on PrecisionError up to
    the given cap; the precision of the result is the first working
    precision that answered.  The exact generator check and the sift by
    steps (close_group), which fixes |G| = p^(#steps), do not depend on the
    precision: they run once, before any series work, so a generator that
    breaks a step equation, or a group of the wrong order, is refused before
    the tower is expanded.
    """
    gens = list(generators)
    if not tower.steps:
        filt = RamFiltration(tower.m, tower.m, LOWER, ())
        return OracleRun(filt, 0, ())
    if not gens:
        raise DomainError("wild steps declared but no generators supplied")
    _check_generators(tower, gens)
    pcgs = close_group(tower, gens)
    work = min(32, precision)
    while True:
        try:
            return _oracle_attempt(tower, pcgs, work)
        except PrecisionError as exc:
            if work >= precision:
                raise DomainError(
                    f"oracle precision cap {precision} exhausted: {exc}") from exc
            work = min(2 * work, precision)


def _oracle_attempt(tower, pcgs, work):
    """One oracle pass at working precision work: the sift of the sequence
    pcgs by the lower filtration.

    The lead of g != 1 is (i, a) for val(g(T) - T) = i + 1 and a the
    coefficient there, read as a vector over F_p: g -> g(T)/T mod T^(i+1)
    embeds G_i/G_(i+1) in (k, +) for i >= 1, and [G, G_i] lies in G_(i+1)
    (Serre, Local Fields IV §2, Prop. 7 and 10).  So |G_i| = p^(number of
    kept elements at level >= i) gives the breaks.  The sift stops at
    #steps elements, which close_group showed is log_p |G|: the ranks it
    finds at the levels can only be at most the true ones, so they are the
    true ones."""
    field = tower.field
    env, charts = _expand_tower(tower, work)
    pole_orders = tuple(c.pole_order for c in charts)
    work_prec = min(s.prec for s in env.values())
    ident = _identity(tower)
    ident_key = ident.key()
    images = {}  # T_k^g per coset of K_k, for this attempt only
    t_series = _uniformizer_image(ident, env, charts, work_prec, images)
    check = t_series - TruncatedSeries.monomial(field, 1, t_series.prec)
    if not check.is_zero_to_precision():
        raise PrecisionError("identity does not reproduce the uniformizer")

    def lead(g):
        if g.key() == ident_key:
            return None
        diff = _uniformizer_image(g, env, charts, work_prec, images) - t_series
        v = diff.valuation()
        if v is None:
            raise PrecisionError(
                f"val(g(T) - T) not determined for {g.name or 'an element'}")
        # v >= 2: close_group showed G is a p-group and every step is totally
        # ramified, so G = G_1 (Serre, Local Fields IV §2).  A level <= 0
        # would still be refused, as a jump <= 0, by RamFiltration.
        return v - 1, diff.leading().coeffs

    levels = [level for level, _ in _sift(tower, pcgs, lead)]
    breaks = tuple((Fraction(j), field.p ** sum(1 for x in levels if x >= j))
                   for j in sorted(set(levels)))
    filt = RamFiltration(tower.total_order, tower.m, LOWER, breaks)
    return OracleRun(filt, work, pole_orders)


def herbrand_lower_jumps(p: int, conductors) -> list[int]:
    """Lower jumps, with multiplicity, of a tower with these step conductors.

    Every field of the tower is stable under the group G (a shift uses only
    earlier variables), so H = Gal(K_n/K_(n-1)) is normal, of order p, with
    the top conductor d as its jump.  Lower numbering passes to H and, by
    Herbrand's theorem, to G/H through phi_H: |G_u| = |(G/H)_phi_H(u)| |H_u|.
    So a jump b of G/H stays at b when b <= d and moves to d + p (b - d)
    past it, and d joins the list.
    """
    jumps = []
    for d in conductors:
        jumps = sorted([b if b <= d else d + p * (b - d) for b in jumps] + [d])
    return jumps


# ---------------------------------------------------------------------------
# Genus and p-rank.

def genus_rh(total_order: int, filt: RamFiltration) -> int:
    """Riemann-Hurwitz genus of a one-point totally ramified cover of a
    genus-0 germ: 2g - 2 = -2|I| + sum_{i>=0} (|I_i| - 1)."""
    check_numbering(filt, LOWER)
    if total_order != filt.total_order:
        raise DomainError("group order disagrees with the filtration")
    acc = total_order - 1
    prev = Fraction(0)
    for j, o in filt.breaks:
        if j.denominator != 1:
            raise DomainError("lower jumps must be integers")
        acc += (int(j) - int(prev)) * (o - 1)
        prev = j
    rhs = -2 * total_order + acc
    if rhs % 2 != 0 or rhs < -2:
        raise DomainError(f"inconsistent filtration: 2g - 2 = {rhs}")
    return (rhs + 2) // 2


def p_rank_ds(p_part_order: int, base_p_rank: int,
              branch_wild_orders) -> int:
    """Deuring-Shafarevich p-rank for a p-group cover.

    Variant adopted: gamma - 1 = |P| (gamma_base - 1) + sum over branch
    points of (|P| - |P|/e_b), where e_b is the wild inertia order at b.
    For one totally ramified point on a rational base this yields gamma = 0,
    the pinned test value.
    """
    if p_part_order < 1:
        raise DomainError("group order must be positive")
    acc = p_part_order * (base_p_rank - 1)
    for e in branch_wild_orders:
        if e < 1 or p_part_order % e != 0:
            raise DomainError(f"inertia order {e} does not divide |P| = {p_part_order}")
        acc += p_part_order - p_part_order // e
    gamma = acc + 1
    if gamma < 0:
        raise DomainError(f"inconsistent data: negative p-rank {gamma}")
    return gamma


# ---------------------------------------------------------------------------
# The order-8 quaternion family in characteristic 2.

class FiberReport(namedtuple(
        "FiberReport", "params connected stage top_jump jumps genus leading",
        defaults=(None,) * 5)):
    """One fiber of the quaternion family: its parameters (a tuple), whether
    it is connected, and else None: the stage where it splits (a str), its
    top jump and genus (ints), its jumps and its leading coefficients
    (tuples)."""

    __slots__ = ()

    def to_json(self):
        return {
            "a": [list(a.coeffs) for a in self.params],
            "connected": self.connected,
            "disconnected_at": self.stage,
            "top_jump": self.top_jump,
            "jumps": list(self.jumps) if self.jumps else None,
            "genus": self.genus,
        }


def quaternion_tower(field: Field, a1=None, a2=None, a3=None):
    """The three-step tower v^2-v = (1+a1)/x; w^2-w = v + a2/x; y^2-y = w^3 + a3/x
    with its two standard order-4 generators.  Needs a cube root of unity in
    the coefficient field."""
    if field.p != 2:
        raise DomainError("the quaternion family lives in characteristic 2")
    zero = field.zero()
    a1 = zero if a1 is None else a1
    a2 = zero if a2 is None else a2
    a3 = zero if a3 is None else a3
    zeta3 = root_of_unity(field, 3)
    one = field.one()
    x_inv, w = VarPoly.var(field, "x", -1), VarPoly.var(field, "w")
    steps = (
        TowerStep("v", x_inv.scale(one + a1)),
        TowerStep("w", VarPoly.var(field, "v") + x_inv.scale(a2)),
        TowerStep("y", VarPoly.var(field, "w", 3) + x_inv.scale(a3)),
    )
    tower = TowerSpec(field, 1, steps)
    one_c, zeta3_c = VarPoly.const(field, one), VarPoly.const(field, zeta3)
    mu = GeneratorAction(tower, {"w": one_c, "y": w + zeta3_c}, name="mu")
    tau = GeneratorAction(tower, {
        "v": one_c,
        "w": zeta3_c,
        "y": w.scale(zeta3 + one) + zeta3_c,
    }, name="tau")
    return tower, [mu, tau]


def quaternion_fiber_ratio(a1: FieldElement, a2: FieldElement):
    """The class of the fiber at (a1, a2, -): None when a1 = 1, where the
    first step is disconnected, and a2/(a1+1) = c1^2 otherwise.  A fiber's
    report depends on its parameters only through this value, apart from
    `params`: fibers with the same ratio share stage, jumps, genus and
    leading coefficients, so over F_q the q^3 fibers fall into q + 1
    classes."""
    field = a1.field
    if field.p != 2:
        raise DomainError("characteristic 2 required")
    a1_plus_1 = a1 + field.one()
    if not a1_plus_1:
        return None
    return a2 / a1_plus_1


def quaternion_fiber_shape(ratio) -> tuple:
    """(stage, top jump) of every fiber whose `quaternion_fiber_ratio` is
    `ratio`: ("V", None) when ratio is None, ("W", None) when
    ratio^2 + ratio + 1 = 0, else (None, 3) when ratio is 0 or 1 and
    (None, 5) otherwise.  The rest of a fiber's report apart from `params`
    and `leading` follows from these two.  In the closed form of
    `evaluate_quaternion_fiber`, c1^2 = ratio and squaring is a field
    automorphism in characteristic 2, so c2 = 1 + c1 + c1^2 vanishes iff
    ratio^2 + ratio + 1 does, and the pole-order-5 coefficient c3^2 c4
    vanishes iff c1 = 0 (c3 = 0) or c1 = c2 (c4 = 0, that is c1^2 = 1).
    So there are at most four shapes: two over F_2, three over F_4 and
    four over F_16."""
    if ratio is None:
        return "V", None
    one = ratio.field.one()
    if not ratio * ratio + ratio + one:
        return "W", None
    return None, 3 if not ratio or ratio == one else 5


def evaluate_quaternion_fiber(a1: FieldElement, a2: FieldElement,
                              a3: FieldElement) -> FiberReport:
    """Connectedness, top jump and genus of one fiber of the family.

    Computed from the closed form of the normalization pipeline: the first
    step is disconnected iff a1 = 1 (char 2); with c1^2 = a2/(a1+1) and
    c2 = 1 + c1 + c1^2 the second step is disconnected iff c2 = 0; otherwise,
    with c3 = c1/c2 and c4 = 1 + c3, the top equation rewritten in the
    uniformizer of the normalized middle step has a standard form whose
    leading terms sit at pole orders 5 and 3 with coefficients c3^2 c4 and
    c4^3 + c3^(3/2), so the top jump is 5 when c3 c4 != 0 and 3 otherwise.
    The stage and the top jump are read off the ratio by
    `quaternion_fiber_shape`, which holds that rule.  No step of this reads
    a3, and a1 and a2 are read only through `quaternion_fiber_ratio(a1,
    a2)`: the report depends on its parameters only through that value,
    apart from `params`.
    The pipeline itself (Laurent polynomials reduced to standard form) is the
    test oracle in tests/quaternion_pipeline.py.
    """
    field = a1.field
    check_field(field, a2.field)
    check_field(field, a3.field)
    params = (a1, a2, a3)
    ratio = quaternion_fiber_ratio(a1, a2)
    stage, top = quaternion_fiber_shape(ratio)
    if stage is not None:
        return FiberReport(params, connected=False, stage=stage)
    one = field.one()
    c1 = ratio.sqrt()
    c3 = c1 / (one + c1 + c1 * c1)
    c4 = one + c3
    lead5 = c3 * c3 * c4
    lead3 = c4 ** 3 + (c3 ** 3).sqrt()
    filt = RamFiltration(8, 1, LOWER, ((Fraction(1), 8), (Fraction(top), 2)))
    genus = genus_rh(8, filt)
    return FiberReport(params, connected=True, top_jump=top,
                       jumps=(1, 1, top), genus=genus,
                       leading=(lead5, lead3))


# ---------------------------------------------------------------------------
# JSON ingestion.

def tower_from_json(obj) -> tuple[TowerSpec, list[GeneratorAction]]:
    with reading("malformed tower document: "):
        field = field_create(json_int(obj["field"]["p"]),
                             json_int(obj["field"]["a"]))
        steps = tuple(TowerStep(json_str(s["var"]), VarPoly.from_json(field, s["rhs"]))
                      for s in obj["steps"])
        tower = TowerSpec(field, json_int(obj.get("m", 1)), steps)
        gens = []
        for i, g in enumerate(obj.get("generators", [])):
            shifts = {str(v): VarPoly.from_json(field, ex)
                      for v, ex in g.get("shifts", {}).items()}
            gens.append(GeneratorAction(tower, shifts,
                                        name=json_str(g.get("name", f"g{i}"))))
        return tower, gens
