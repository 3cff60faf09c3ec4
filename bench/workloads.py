"""Seeded documents for the four workloads, each with its reference check.

A workload is one pass: a fixed list of strata, each contributing a fixed
number of documents, so every seed costs about the same.  The seed only
draws the values inside a stratum (coefficients, generator bases, fiber
parameters, jumps, sigma) and the order of the pass.

Every document carries a `check(code, text)` that returns
(verdict, reason): verdict is "ok", "refused" (the program declined to
answer, e.g. analytic_jumps = null) or "failed".  A failure is an unexpected
exit code or exception, or an output that differs from the reference.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from reference import (GF, filtration_json, genus_from_lower, herbrand_upper,
                       n_count_closed, p_free_part,
                       with_multiplicity)

WORKLOADS = ("oracle-towers", "family-sweep", "desk-docs", "moduli-count")


@dataclass(frozen=True)
class Doc:
    family: str          # what the document is; known failures name it
    stratum: str         # the stratum it was drawn from
    argv: tuple
    text: str            # standard input
    check: Callable[[object, str], tuple[str, str]]


@dataclass(frozen=True)
class Workload:
    name: str
    docs: tuple
    fields: tuple        # (p, a) of every field the documents use
    tail_per_mille: int  # percentile that doc_tail_ref reports


# The tail percentile of each workload is fixed, so that every run and every
# commit report the same one: the highest of p99.9/p99/p95/p90/p75/p50 that
# leaves at least 10 samples beyond it in a 12-second run and that two sets
# of runs of the same code reproduce.  desk-docs stops at p99 because p99.9
# sits on rare pauses of the interpreter and the host.  A run goes on until
# it has enough samples, so family-sweep always runs 20 documents.
TAIL_PER_MILLE = {"oracle-towers": 750, "family-sweep": 500, "desk-docs": 990,
                  "moduli-count": 750}


def build(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "oracle-towers":
        docs, fields = _oracle_towers(rng)
    elif name == "family-sweep":
        docs, fields = _family_sweep()
    elif name == "desk-docs":
        docs, fields = _desk_docs(rng)
    elif name == "moduli-count":
        docs, fields = _moduli_count(rng)
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(docs)
    return Workload(name, tuple(docs), tuple(sorted(fields)), TAIL_PER_MILLE[name])


# ---------------------------------------------------------------------------
# Shared checking helpers.

def _parse(code, text, want_code=0):
    """The output object, or a failure reason.  `code` is the exit code, or
    None when the program raised instead of returning one."""
    if code is None:
        return None, "traceback"
    if code != want_code:
        return None, f"exit:{code}"
    try:
        out = json.loads(text)
    except ValueError:
        return None, "output:not-json"
    if not isinstance(out, dict):
        return None, "output:not-object"
    return out, None


def _equal_check(expected: dict):
    def check(code, text):
        out, why = _parse(code, text)
        if why:
            return "failed", why
        if out != expected:
            return "failed", "output:mismatch"
        return "ok", ""
    return check


# ---------------------------------------------------------------------------
# oracle-towers: `verify` on two-step (Z/p)^2 towers and quaternion fibers.

# One document per tower shape (p, j1, j2): the shapes span p = 2, 3, 5 and
# the working precisions 32 to 256 that the oracle doubles to.  Within a
# shape the seed draws the coefficients, which moves the cost by a few
# percent, not by the tenfold spread between shapes.
TOWER_SHAPES = (
    (2, 1, 3), (2, 3, 7), (2, 5, 9), (2, 7, 11),
    (3, 1, 2), (3, 2, 5), (3, 1, 7), (3, 4, 11), (3, 1, 10),
    (5, 2, 3), (5, 1, 6), (5, 3, 8), (5, 8, 9),
)
# (field degree a over F_2, top jump, a2 = 1?) -> documents per pass.  Every
# parameter is nonzero: a zero a1 or a3 makes the series sparser and the
# fiber up to twice as cheap, which would make the cost depend on the seed.
# With the towers that makes 21 documents a pass: two passes give the 40
# samples of p75, and the median document is the (3, 1, 10) tower, alone in
# the cost gap between the F_4 and the F_16 top-3 fibers, rather than one of
# a cluster of near-equal documents whose order the seed decides.
QUATERNION_STRATA = (
    ((2, 3, False), 3),
    ((4, 3, False), 2),
    ((4, 5, False), 2),
    ((4, 5, True), 1),
)
VERIFY_ARGV = ("verify", "--precision", "256")


def _verify_check(p, expected_jumps, breaks, total):
    expected_filt = filtration_json(total, 1, "lower", breaks)
    genus = genus_from_lower(p, expected_jumps)

    def check(code, text):
        out, why = _parse(code, text)
        if why:
            return "failed", why
        if out.get("oracle_jumps") != expected_jumps:
            return "failed", "oracle_wrong"
        rest = {"filtration": expected_filt, "genus": genus, "p_rank": 0}
        if any(out.get(k) != v for k, v in rest.items()):
            return "failed", "output:mismatch"
        if out.get("precision_used") not in (32, 64, 128, 256):
            return "failed", "output:precision"
        analytic = out.get("analytic_jumps")
        if out.get("agree") != (analytic == expected_jumps):
            return "failed", "output:agree"
        if analytic is None:
            return "refused", "analytic_null"
        if analytic != expected_jumps:
            return "failed", "analytic_wrong"
        return "ok", ""
    return check


def _ea2_tower(rng, p, j1, j2):
    """v^p - v = c1 x^-j1, w^p - w = c2 x^-j2 with (Z/p)^2 generated by
    v -> v + 1 and w -> w + 1.  Upper jumps j1 < j2 (the conductors of the
    F_p-span of the right-hand sides), so Herbrand gives lower jumps j1 and
    j1 + p(j2 - j1)."""
    c1, c2 = rng.randrange(1, p), rng.randrange(1, p)
    doc = {"field": {"p": p, "a": 1}, "m": 1,
           "steps": [{"var": "v", "rhs": [[[c1], {"x": -j1}]]},
                     {"var": "w", "rhs": [[[c2], {"x": -j2}]]}],
           "generators": [{"name": "s", "shifts": {"v": [[[1], {}]]}},
                          {"name": "t", "shifts": {"w": [[[1], {}]]}}]}
    lower2 = j1 + p * (j2 - j1)
    check = _verify_check(p, [j1, lower2],
                          [(j1, p * p), (lower2, p)], p * p)
    return Doc("ea2-tower", f"p={p} j=({j1},{j2})", VERIFY_ARGV, json.dumps(doc),
               check)


def _cube_root_of_unity(F):
    return next(x for x in (F.from_index(i) for i in range(2, F.q))
                if F.add(F.add(F.mul(x, x), x), F.one()) == F.zero())


def quaternion_fiber_class(F, a1, a2):
    """(connected, disconnecting stage, top jump) of the fiber (a1, a2, *).

    Stage V: a1 = 1.  Stage W: a2/(a1+1) is a primitive cube root of unity.
    Otherwise the top jump is 3 when a2 is 0 or a1 + 1, and 5 otherwise.
    """
    one = F.one()
    if a1 == one:
        return False, "V", None
    u = F.add(a1, one)
    r = F.div(a2, u)
    if F.add(F.add(F.mul(r, r), r), one) == F.zero():
        return False, "W", None
    return True, None, 3 if a2 in (F.zero(), u) else 5


def _quaternion_doc(F, a1, a2, a3):
    one = list(F.one())
    zeta = _cube_root_of_unity(F)
    return {"field": {"p": 2, "a": F.a}, "m": 1,
            "steps": [{"var": "v", "rhs": [[list(F.add(F.one(), a1)), {"x": -1}]]},
                      {"var": "w", "rhs": [[one, {"v": 1}], [list(a2), {"x": -1}]]},
                      {"var": "y", "rhs": [[one, {"w": 3}], [list(a3), {"x": -1}]]}],
            "generators": [
                {"name": "mu", "shifts": {"w": [[one, {}]],
                                          "y": [[one, {"w": 1}], [list(zeta), {}]]}},
                {"name": "tau", "shifts": {"v": [[one, {}]],
                                           "w": [[list(zeta), {}]],
                                           "y": [[list(F.add(zeta, F.one())), {"w": 1}],
                                                 [list(zeta), {}]]}}]}


def _quaternion_fiber(rng, a, top, a2_is_one):
    F = GF(2, a)
    while True:
        a1, a2, a3 = (F.from_index(rng.randrange(1, F.q)) for _ in range(3))
        if a2_is_one:
            a2 = F.one()
        connected, _, t = quaternion_fiber_class(F, a1, a2)
        if connected and t == top and (a2 == F.one()) == a2_is_one:
            break
    jumps = [1, 1, top]
    family = f"quaternion-top{top}" + ("-a2=1" if a2_is_one else "")
    check = _verify_check(2, jumps, [(1, 8), (top, 2)], 8)
    return Doc(family, f"F_{F.q} top {top}", VERIFY_ARGV,
               json.dumps(_quaternion_doc(F, a1, a2, a3)), check)


def _oracle_towers(rng):
    docs = [_ea2_tower(rng, *shape) for shape in TOWER_SHAPES]
    for (a, top, a2_is_one), count in QUATERNION_STRATA:
        docs.extend(_quaternion_fiber(rng, a, top, a2_is_one)
                    for _ in range(count))
    fields = {(p, 1) for p, _, _ in TOWER_SHAPES}
    fields |= {(2, a) for (a, _, _), _ in QUATERNION_STRATA}
    return docs, fields


# ---------------------------------------------------------------------------
# family-sweep: the fixed document `quaternion-demo --field-size 16 --sweep`.

def _family_sweep():
    F = GF(2, 4)
    q = F.q
    rows = []
    for i1 in range(q):
        for i2 in range(q):
            a1, a2 = F.from_index(i1), F.from_index(i2)
            connected, stage, top = quaternion_fiber_class(F, a1, a2)
            for i3 in range(q):
                a = [list(a1), list(a2), list(F.from_index(i3))]
                if connected:
                    rows.append({"a": a, "connected": True, "disconnected_at": None,
                                 "top_jump": top, "jumps": [1, 1, top],
                                 "genus": genus_from_lower(2, [1, 1, top])})
                else:
                    rows.append({"a": a, "connected": False, "disconnected_at": stage,
                                 "top_jump": None, "jumps": None, "genus": None})
    # closed forms for F_q with 3 | q - 1 (a primitive cube root exists)
    disconnected = q * q + 2 * q * (q - 1)
    genus1 = 2 * q * (q - 1)
    expected = {"field": q, "count": q ** 3, "fibers": rows,
                "strata": {"disconnected": disconnected, "genus1": genus1,
                           "genus2": q ** 3 - disconnected - genus1},
                "family": {"size": q * (q - 1), "all_jumps_1_1_3": True,
                           "pairwise_distinct": True}}
    assert sum(not r["connected"] for r in rows) == disconnected
    assert sum(r["genus"] == 1 for r in rows) == genus1
    doc = Doc("quaternion-demo", "F_16 sweep",
              ("quaternion-demo", "--field-size", "16", "--sweep"), "",
              _equal_check(expected))
    return [doc], {(2, 4)}


# ---------------------------------------------------------------------------
# desk-docs: small standard-form, jumps and dimension documents plus a fixed
# share of malformed ones.

# (p, a, q) of standard-form documents; q must divide the field order.
SF_STRATA = ((2, 1, 2), (2, 2, 2), (2, 2, 4), (3, 1, 3), (3, 2, 9), (5, 1, 5))
SF_PER_STRATUM = 5       # the last one of each stratum is a zero standard form
PRIMES = (2, 3, 5)       # jumps and dimension-zp documents cycle through these
JUMPS_PER_DIRECTION = 25
DIM_ZP = 6               # m = 1, q = p: n = sigma - floor(sigma/p)
# (piece orders, tame degree m) of the other dimension documents, one each.
# Their sigmas lie in [18, 20], so the n_count enumeration of each, (q/p) m
# sigma integers per piece, costs the same whatever the seed.
DIM_STRATA = (((2,), 7), ((4, 8), 3), ((3,), 5), ((3, 9), 2), ((5,), 4),
              ((2, 4, 8), 1))


def _unit(rng, F):
    return F.from_index(rng.randrange(1, F.q))


def _standard_form_doc(rng, p, a, q, zero):
    """r = sf + d^q - d: standard-form reduction must give back sf exactly."""
    F = GF(p, a)
    sf = {}
    if not zero:
        exps = [e for e in range(-20, 0) if e % q]
        for e in rng.sample(exps, rng.randint(1, 3)):
            sf[e] = _unit(rng, F)
    r = dict(sf)

    def add(e, c):
        s = F.add(r.get(e, F.zero()), c)
        if any(s):
            r[e] = s
        else:
            r.pop(e, None)
    for e in rng.sample(range(-5, 3), rng.randint(1, 2)):
        d = _unit(rng, F)
        add(q * e, F.pow(d, q))
        add(e, F.sub(F.zero(), d))
    doc = {"field": {"p": p, "a": a}, "q": q, "m": 1, "z": None,
           "r": {"terms": [[e, list(c)] for e, c in sorted(r.items())]}}
    expected = {"standard_form":
                    {"terms": [[e, list(c)] for e, c in sorted(sf.items())]},
                "conductor": max((p_free_part(-e, p) for e in sf), default=None)}
    if q == p:
        expected["connected"] = bool(sf)
    family = "standard-form-zero" if zero else "standard-form"
    return Doc(family, f"F_{F.q} q={q}", ("standard-form",), json.dumps(doc),
               _equal_check(expected))


def _lower_filtration(rng, p):
    """(m, |I|, breaks) of a valid lower filtration: |I| = m p^e, integral
    jumps prime to p, orders p^e > ... > p."""
    e = rng.randint(1, 3)
    m = rng.choice([k for k in range(1, 8) if k % p])
    nbreaks = rng.randint(1, e)
    cuts = sorted(rng.sample(range(1, e), nbreaks - 1))
    orders = [p ** (e - c) for c in [0] + cuts]
    jumps = sorted(rng.sample([j for j in range(1, 30) if j % p], nbreaks))
    return m, m * p ** e, list(zip(jumps, orders))


def _jumps_doc(rng, direction, p):
    m, total, lower = _lower_filtration(rng, p)
    upper = herbrand_upper(total, lower)
    if direction == "to-upper":
        doc = filtration_json(total, m, "lower", lower)
        want, numbering = upper, "upper"
    else:
        doc = filtration_json(total, m, "upper", upper)
        want, numbering = lower, "lower"
    expected = {"filtration": filtration_json(total, m, numbering, want),
                "jumps_with_multiplicity":
                    [[Fraction(j).numerator, Fraction(j).denominator]
                     for j in with_multiplicity(want, p)],
                "violations": []}
    return Doc(f"jumps-{direction}", f"p={p}",
               ("jumps", "--direction", direction), json.dumps(doc),
               _equal_check(expected))


def _dimension_zp_doc(rng, p):
    d = rng.randint(1, 3)
    sigma = Fraction(rng.randint(d, 20 * d), d)
    pieces = [(p, sigma, 1)]
    ns = [int(sigma) - int(sigma / p)]
    return _pieces_doc("dimension-zp", f"p={p}", 1, pieces, ns)


def _dimension_doc(rng, qs, m):
    sigmas = sorted(Fraction(rng.randint(18 * d, 20 * d), d)
                    for d in (rng.randint(1, 3) for _ in qs))
    pieces = [(q, s, rng.randint(1, m)) for q, s in zip(qs, sigmas)]
    ns = [n_count_closed(q, m, si, s) for q, s, si in pieces]
    return _pieces_doc("dimension", f"q={'/'.join(map(str, qs))} m={m}", m,
                       pieces, ns)


def _pieces_doc(family, stratum, m, pieces, ns):
    """A `dimension` document and its report: bounds [n_last, sum n]."""
    doc = {"tame": m, "pieces": [{"q": q, "sigma": [s.numerator, s.denominator],
                                  "s_iota": si} for q, s, si in pieces]}
    expected = {"n": ns, "lower": ns[-1], "upper": sum(ns), "exact": None,
                "rule": None}
    return Doc(family, stratum, ("dimension",), json.dumps(doc),
               _equal_check(expected))


def _schema_error_check(code, text):
    out, why = _parse(code, text, want_code=2)
    if why:
        return "failed", why
    err = out.get("error")
    if (not isinstance(err, dict) or err.get("code") != 2
            or err.get("type") != "schema" or not err.get("message")):
        return "failed", "output:error-object"
    return "ok", ""


def _malformed_docs(rng):
    """Documents that must give exit 2 and a schema error object.  The first
    four shapes raise tracebacks in the seed-era program."""
    m, total, lower = _lower_filtration(rng, rng.choice(PRIMES))
    filt = filtration_json(total, m, "lower", lower)
    k = rng.randrange(len(lower))
    num, _, order = filt["breaks"][k]
    zero_den = json.loads(json.dumps(filt))
    zero_den["breaks"][k] = [num, 0, order]
    bad_order = dict(filt, total_order="x")
    short_break = json.loads(json.dumps(filt))
    short_break["breaks"][k] = [num, order]
    missing_key = {key: v for key, v in filt.items() if key != "total_order"}
    cover = {"field": {"p": 2, "a": 1}, "q": 2, "m": 1, "z": None,
             "r": {"terms": [[-rng.choice((1, 3, 5)), ["a"]]]}}
    no_r = {"field": {"p": 3, "a": 1}, "q": 3, "m": 1, "z": None}
    no_s_iota = {"tame": 1, "pieces": [{"q": 2, "sigma": [rng.randint(1, 20), 1]}]}
    jumps = ("jumps", "--direction", "to-upper")
    shapes = (
        ("zero-denominator", jumps, json.dumps(zero_den)),
        ("total-order-string", jumps, json.dumps(bad_order)),
        ("two-element-break", jumps, json.dumps(short_break)),
        ("string-coefficient", ("standard-form",), json.dumps(cover)),
        ("missing-key", jumps, json.dumps(missing_key)),
        ("invalid-json", jumps, json.dumps(filt)[:-1]),
        ("missing-r", ("standard-form",), json.dumps(no_r)),
        ("missing-s-iota", ("dimension",), json.dumps(no_s_iota)),
    )
    return [Doc(f"malformed-{name}", "malformed", argv, text, _schema_error_check)
            for name, argv, text in shapes]


def _desk_docs(rng):
    docs = []
    for p, a, q in SF_STRATA:
        docs.extend(_standard_form_doc(rng, p, a, q, zero=i == SF_PER_STRATUM - 1)
                    for i in range(SF_PER_STRATUM))
    for direction in ("to-upper", "to-lower"):
        docs.extend(_jumps_doc(rng, direction, PRIMES[i % 3])
                    for i in range(JUMPS_PER_DIRECTION))
    docs.extend(_dimension_zp_doc(rng, PRIMES[i % 3]) for i in range(DIM_ZP))
    docs.extend(_dimension_doc(rng, qs, m) for qs, m in DIM_STRATA)
    docs.extend(_malformed_docs(rng))
    return docs, {(p, a) for p, a, _ in SF_STRATA}


# ---------------------------------------------------------------------------
# moduli-count: `dimension` documents whose n_count enumeration is large.

# (piece orders, tame degree m, sigma base): one document each.  The
# enumeration walks (q/p) m sigma integers per piece, so each stratum fixes
# m and a sigma band [base, 1.01 base) to keep a pass's cost seed-independent.
MODULI_STRATA = (
    ((2,), 1, 9000), ((4,), 3, 6000), ((8,), 7, 2000), ((2, 4), 5, 4000),
    ((2, 4, 8), 11, 1500),
    ((3,), 2, 8000), ((9,), 4, 5000), ((3, 9), 8, 2500), ((3, 3, 9), 10, 2000),
    ((5,), 12, 3000), ((5, 5), 6, 7000), ((5, 5, 5), 9, 8000),
)


def _moduli_doc(rng, qs, m, base):
    sigmas = sorted(Fraction(rng.randrange(base * d, (base + base // 100) * d), d)
                    for d in (rng.randint(1, 3) for _ in qs))
    pieces = [(q, s, rng.randint(1, m)) for q, s in zip(qs, sigmas)]
    ns = [n_count_closed(q, m, si, s) for q, s, si in pieces]
    return _pieces_doc("moduli", f"q={'/'.join(map(str, qs))} m={m}", m,
                       pieces, ns)


def _moduli_count(rng):
    return [_moduli_doc(rng, *s) for s in MODULI_STRATA], set()
