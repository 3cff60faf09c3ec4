"""End-to-end CLI behaviour: documents in, reports out, exit codes."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramify import ascover, cli, moduli, ramfilt, tower
from ramify.cli import main
from ramify.errors import SchemaError, json_int
from ramify.gf import field_create
from ramify.laurent import LaurentPoly

import quaternion_pipeline
from helpers import EA2_SHAPES, index_of

QUATERNION_TOWER = {
    "field": {"p": 2, "a": 2},
    "m": 1,
    "steps": [
        {"var": "v", "rhs": [[[1], {"x": -1}]]},
        {"var": "w", "rhs": [[[1], {"v": 1}]]},
        {"var": "y", "rhs": [[[1], {"w": 3}]]},
    ],
    "generators": [
        {"name": "mu", "shifts": {"w": [[[1], {}]],
                                  "y": [[[1], {"w": 1}], [[0, 1], {}]]}},
        {"name": "tau", "shifts": {"v": [[[1], {}]],
                                   "w": [[[0, 1], {}]],
                                   "y": [[[1, 1], {"w": 1}], [[0, 1], {}]]}},
    ],
}


def run(tmp_path, args, doc=None):
    argv = list(args)
    if doc is not None:
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps(doc))
        argv += ["--input", str(inp)]
    out = tmp_path / "out.json"
    argv += ["--output", str(out)]
    code = main(argv)
    return code, json.loads(out.read_text())


def test_standard_form_quaternion_v_step(tmp_path):
    doc = {"field": {"p": 2, "a": 1}, "q": 2, "m": 1, "z": None,
           "r": {"terms": [[-1, [1]]]}}
    code, res = run(tmp_path, ["standard-form"], doc)
    assert code == 0
    assert res["conductor"] == 1
    assert res["connected"] is True


def test_standard_form_zero_r(tmp_path):
    doc = {"field": {"p": 2, "a": 1}, "q": 2, "m": 1, "z": None,
           "r": {"terms": [[2, [1]]]}}
    code, res = run(tmp_path, ["standard-form"], doc)
    assert code == 0
    assert res["connected"] is False
    assert res["conductor"] is None


def test_standard_form_mixed_poles(tmp_path):
    doc = {"field": {"p": 2, "a": 1}, "q": 2, "m": 1, "z": None,
           "r": {"terms": [[-2, [1]], [-12, [1]]]}}
    code, res = run(tmp_path, ["standard-form"], doc)
    assert code == 0
    assert res["conductor"] == 3


def test_jumps_quaternion_to_upper(tmp_path):
    doc = {"total_order": 8, "tame": 1, "numbering": "lower",
           "breaks": [[1, 1, 8], [3, 1, 2]]}
    code, res = run(tmp_path, ["jumps", "--direction", "to-upper"], doc)
    assert code == 0
    assert res["filtration"]["breaks"] == [[1, 1, 8], [3, 2, 2]]
    assert res["jumps_with_multiplicity"] == [[1, 1], [1, 1], [3, 2]]
    assert res["violations"] == []


def test_jumps_factors_the_wild_part_once(tmp_path, monkeypatch):
    # residue_char (through jumps_with_multiplicity) and validate both read
    # the one factorization of the wild part that the filtration keeps; each
    # factored it before, 0.4 s for this document where one factorization
    # of 1048573^65 takes about 0.18 s
    wild = 1048573 ** 65
    doc = {"total_order": wild, "tame": 1, "numbering": "lower",
           "breaks": [[1, 1, wild]]}
    calls = []
    prime_factors = ramfilt.prime_factors
    monkeypatch.setattr(ramfilt, "prime_factors",
                        lambda n: calls.append(n) or prime_factors(n))
    code, res = run(tmp_path, ["jumps", "--direction", "to-upper"], doc)
    assert code == 0
    assert calls.count(wild) == 1
    assert res == {"filtration": {"total_order": wild, "tame": 1,
                                  "numbering": "upper",
                                  "breaks": [[1, 1, wild]]},
                   "jumps_with_multiplicity": [[1, 1]] * 65,
                   "violations": []}
    # the bytes written before the factorization had one owner
    assert hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest() \
        == "377e2ee1e9204453d967acb53d53488344ef7677357a76f04260a04d3773b959"


def test_jumps_empty(tmp_path):
    doc = {"total_order": 3, "tame": 3, "numbering": "lower", "breaks": []}
    code, res = run(tmp_path, ["jumps", "--direction", "to-upper"], doc)
    assert code == 0
    assert res["filtration"]["breaks"] == []


def test_jumps_roundtrip_identity(tmp_path):
    doc = {"total_order": 12, "tame": 3, "numbering": "lower",
           "breaks": [[2, 1, 4], [5, 1, 2]]}
    code, up = run(tmp_path, ["jumps", "--direction", "to-upper"], doc)
    assert code == 0
    code, back = run(tmp_path, ["jumps", "--direction", "to-lower"],
                     up["filtration"])
    assert code == 0
    assert back["filtration"] == doc


def test_dimension_quaternion(tmp_path):
    doc = {"tame": 1, "pieces": [
        {"q": 2, "sigma": [1, 1], "s_iota": 1},
        {"q": 2, "sigma": [1, 1], "s_iota": 1},
        {"q": 2, "sigma": [3, 2], "s_iota": 1},
    ]}
    code, res = run(tmp_path, ["dimension"], doc)
    assert code == 0
    assert res["n"] == [1, 1, 1]
    assert (res["lower"], res["upper"]) == (1, 3)
    assert res["exact"] is None


def test_dimension_single_piece(tmp_path):
    doc = {"tame": 1, "pieces": [{"q": 2, "sigma": [7, 1], "s_iota": 1}]}
    code, res = run(tmp_path, ["dimension"], doc)
    assert code == 0
    assert res["lower"] == res["upper"]


def test_dimension_abelian_minimal(tmp_path):
    doc = {"structure": {"kind": "abelian", "p": 2, "factors": [[1, 2, 4]]}}
    code, res = run(tmp_path, ["dimension"], doc)
    assert code == 0
    assert res["exact"] == 4 and res["rule"] == "abelian"


def abelian_doc(p, factors, tame, sigmas, q=None):
    return {"structure": {"kind": "abelian", "p": p, "factors": factors},
            "tame": tame, "pieces": [{"q": q or p, "sigma": [s, 1],
                                      "s_iota": 1} for s in sigmas]}


@pytest.mark.parametrize("doc", [
    abelian_doc(3, [[1, 4]], 1, [1, 7], q=2),  # order-2 pieces under Z/9
    abelian_doc(2, [[1, 3]], 1, [1, 5]),  # a jump 5 where the factor has 3
    abelian_doc(2, [[1]], 3, [1]),  # tame part 3
], ids=["z9-over-order-2-pieces", "z4-jump-5-for-3", "tame-3"])
def test_dimension_refuses_pieces_the_abelian_factors_do_not_fix(tmp_path,
                                                                 doc):
    code, res = run(tmp_path, ["dimension"], doc)
    assert code == 1
    p = doc["structure"]["p"]
    assert res == {"error": {"code": 1, "type": "domain", "message":
                             "the pieces disagree with the abelian factors, "
                             "which fix tame part 1 and one piece "
                             f"(q = {p}, s_iota = 1) per jump"}}


def test_dimension_abelian_with_its_own_pieces_keeps_its_bytes(tmp_path):
    # listing the pieces the factors fix changes nothing
    expected = ('{\n  "exact": 3,\n  "lower": 2,\n  "n": [\n    1,\n    2\n'
                '  ],\n  "rule": "abelian",\n  "upper": 3\n}\n')
    for doc in (abelian_doc(2, [[1, 3]], 1, [1, 3]),
                {"structure": {"kind": "abelian", "p": 2,
                               "factors": [[1, 3]]}}):
        code, _ = run(tmp_path, ["dimension"], doc)
        assert code == 0
        assert (tmp_path / "out.json").read_text() == expected


def test_dimension_ordinary(tmp_path):
    doc = {"tame": 3, "structure": {"kind": "ordinary"},
           "pieces": [{"q": 4, "sigma": [1, 3], "s_iota": 1}]}
    code, res = run(tmp_path, ["dimension"], doc)
    assert code == 0
    assert res["exact"] == 1 and res["rule"] == "ordinary"


@pytest.mark.parametrize("kind,pieces", [
    ("reducible", [{"q": 2, "sigma": [1, 1], "s_iota": 1},
                   {"q": 2, "sigma": [3, 1], "s_iota": 1},
                   {"q": 2, "sigma": [7, 1], "s_iota": 1}]),
    ("ordinary", [{"q": 4, "sigma": [1, 3], "s_iota": 1}]),
])
def test_dimension_counts_each_piece_once(tmp_path, monkeypatch, kind, pieces):
    calls = []
    n_count = moduli.n_count
    monkeypatch.setattr(moduli, "n_count",
                        lambda *args: calls.append(args) or n_count(*args))
    tame = 1 if kind == "reducible" else 3
    doc = {"tame": tame, "structure": {"kind": kind}, "pieces": pieces}
    code, res = run(tmp_path, ["dimension"], doc)
    assert code == 0 and res["rule"] == kind
    assert res["exact"] == res["upper"]
    assert len(calls) == len(pieces)


def test_verify_single_step(tmp_path):
    doc = {"field": {"p": 2, "a": 1}, "m": 1,
           "steps": [{"var": "v", "rhs": [[[1], {"x": -3}]]}],
           "generators": [{"name": "t", "shifts": {"v": [[[1], {}]]}}]}
    code, res = run(tmp_path, ["verify"], doc)
    assert code == 0
    assert res["agree"] is True
    assert res["oracle_jumps"] == [3] == res["analytic_jumps"]
    assert res["genus"] == 1
    assert res["p_rank"] == 0


def test_verify_precision_above_the_limit_is_a_schema_error(tmp_path):
    doc = {"field": {"p": 2, "a": 1}, "m": 1,
           "steps": [{"var": "v", "rhs": [[[1], {"x": -3}]]}],
           "generators": [{"name": "t", "shifts": {"v": [[[1], {}]]}}]}
    for precision in ("4097", "0", "-1"):
        code, res = run(tmp_path, ["verify", "--precision", precision], doc)
        assert code == 2
        assert res["error"]["type"] == "schema"
        assert "4096" in res["error"]["message"]
    code, res = run(tmp_path, ["verify", "--precision", "4096"], doc)
    assert code == 0
    assert res["oracle_jumps"] == [3]


def test_verify_tame_only(tmp_path):
    doc = {"field": {"p": 2, "a": 1}, "m": 3, "steps": [], "generators": []}
    code, res = run(tmp_path, ["verify"], doc)
    assert code == 0
    assert res["agree"] is True
    assert res["oracle_jumps"] == []


def test_verify_quaternion(tmp_path):
    code, res = run(tmp_path, ["verify", "--precision", "200"],
                    QUATERNION_TOWER)
    assert code == 0
    assert res["oracle_jumps"] == [1, 1, 3]
    assert res["agree"] is True
    assert res["genus"] == 1
    assert res["p_rank"] == 0


def ea2_doc(p, rhs_w, t_shift):
    """v^p - v = 1/x, w^p - w = rhs_w, generators v -> v + 1 and t."""
    return {"field": {"p": p, "a": 1}, "m": 1,
            "steps": [{"var": "v", "rhs": [[[1], {"x": -1}]]},
                      {"var": "w", "rhs": rhs_w}],
            "generators": [{"name": "s", "shifts": {"v": [[[1], {}]]}},
                           {"name": "t", "shifts": {"w": t_shift}}]}


@pytest.mark.parametrize("p,c", [(2, 1), (5, 2)])
def test_verify_refuses_a_shift_that_breaks_its_step(tmp_path, p, c):
    # w -> w + c x does not preserve w^p - w = x^-3: (c x)^p - c x is not 0.
    # A check on truncated series once passed this vacuously and reported
    # jumps [1, 9] (p = 2) and [1, 36] (p = 5).
    doc = ea2_doc(p, [[[1], {"x": -3}]], [[[c], {"x": 1}]])
    code, res = run(tmp_path, ["verify", "--precision", "256"], doc)
    assert code == 1
    assert "does not preserve" in res["error"]["message"]


def test_verify_refuses_a_step_exponent_past_the_limit_at_once(tmp_path):
    # the refusal comes before any work: without the limit, this document
    # with a shift by v^e over F_5 is refused in 0.007 s at e = 124 and
    # 0.37 s at e = 3124 (2-vCPU host), nearly all of it in reducing v^e to
    # the normal form once, when its element is built
    doc = ea2_doc(5, [[[1], {"x": -3}]], [[[1], {"v": 3124}]])
    t0 = time.perf_counter()
    code, res = run(tmp_path, ["verify", "--precision", "256"], doc)
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert "exceeds the limit 500" in res["error"]["message"]


def test_verify_refuses_a_generator_that_is_the_identity_at_once(tmp_path):
    # w -> w + x v^2 + x v + 1 is the identity, as v^2 = v + x^-1 (p = 2);
    # keyed on unreduced images it counted as a new group element and the
    # oracle ran to the precision cap before refusing
    doc = ea2_doc(2, [[[1], {"x": -3}]],
                  [[[1], {"x": 1, "v": 2}], [[1], {"x": 1, "v": 1}],
                   [[1], {}]])
    t0 = time.perf_counter()
    code, res = run(tmp_path, ["verify", "--precision", "4096"], doc)
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert "group of order 2, expected 4" in res["error"]["message"]


def test_verify_checks_the_generators_before_the_series(tmp_path, capsys):
    # v^2 - v = x is not totally ramified, and v -> v + x breaks it; the
    # exact generator check runs before the tower is expanded, so the
    # generator is named rather than the unramified step
    doc = {"field": {"p": 2, "a": 1},
           "steps": [{"var": "v", "rhs": [[[1], {"x": 1}]]}],
           "generators": [{"shifts": {"v": [[[1], {"x": 1}]]}}]}
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(doc))
    code = main(["verify", "--input", str(inp)])
    out, err = capsys.readouterr()
    assert code == 1
    assert json.loads(out)["error"] == {
        "code": 1, "type": "domain",
        "message": "generator g0 does not preserve the equation of step v"}
    assert err == ""


def test_verify_names_a_step_whose_rhs_peels_to_zero(tmp_path, capsys):
    # w^3 - w = x^-1 = v^3 - v: the peel leaves nothing at any precision,
    # so the error names the step instead of only a precision shortfall
    doc = ea2_doc(3, [[[1], {"x": -1}]], [[[1], {}]])
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(doc))
    code = main(["verify", "--precision", "4096", "--input", str(inp)])
    out, err = capsys.readouterr()
    assert code == 1
    message = json.loads(out)["error"]["message"]
    assert message.startswith("oracle precision cap 4096 exhausted: step w:")
    assert "vanished after the peel" in message
    assert err == ""


def test_verify_names_the_working_precision_a_peel_ran_out_at(tmp_path):
    # over F_2, w^2 - w = v^250 - v^125 + x^-7 and v^250 - v^125 = d^2 - d
    # for d = v^125, which the peel takes off one monomial in T at a time;
    # at working precision 200 the series ends before x^-7 shows, at 512 it
    # does not, so the refusal names what was seen and a higher cap answers
    shift_w = [[[1], {"v": k}] for k in range(125) if comb(125, k) % 2]
    doc = ea2_doc(2, [[[1], {"v": 250}], [[1], {"v": 125}], [[1], {"x": -7}]],
                  ONE)
    doc["generators"][0]["shifts"]["w"] = shift_w  # (v + 1)^125 - v^125
    code, res = run(tmp_path, ["verify", "--precision", "200"], doc)
    assert code == 1
    assert res["error"]["message"] == (
        "oracle precision cap 200 exhausted: step w: right-hand side "
        "vanished after the peel at working precision 200")
    code, res = run(tmp_path, ["verify", "--precision", "4096"], doc)
    assert code == 0
    assert res["oracle_jumps"] == [1, 13] == res["analytic_jumps"]
    assert res["precision_used"] == 512


@pytest.mark.parametrize("first,second", [(1, 3), (3, 1)])
def test_verify_herbrand_route_in_both_step_orders(tmp_path, first, second):
    # x^-1 and x^-3 span the same (Z/2)^2 extension in either order, with
    # lower jumps 1 and 5; the step conductors are (1, 5) and (3, 1)
    doc = {"field": {"p": 2, "a": 1}, "m": 1,
           "steps": [{"var": "v", "rhs": [[[1], {"x": -first}]]},
                     {"var": "w", "rhs": [[[1], {"x": -second}]]}],
           "generators": [{"name": "s", "shifts": {"v": [[[1], {}]]}},
                          {"name": "t", "shifts": {"w": [[[1], {}]]}}]}
    code, res = run(tmp_path, ["verify"], doc)
    assert code == 0
    assert res["oracle_jumps"] == [1, 5] == res["analytic_jumps"]
    assert res["agree"] is True


@pytest.mark.parametrize("p,j1,j2", EA2_SHAPES)
def test_abelian_chain_through_the_commands_attains_the_upper_bound(
        tmp_path, p, j1, j2):
    # the paper's last claim on a filtration `verify` computed: the (Z/p)^2
    # tower v^p - v = x^-j1, w^p - w = -x^-j2 has integral upper jumps u
    # (Hasse-Arf), its abelian dimension is the upper bound
    # sum (u - floor(u/p)), and it counts as its pieces of order p do
    doc = {"field": {"p": p, "a": 1}, "m": 1,
           "steps": [{"var": "v", "rhs": [[[1], {"x": -j1}]]},
                     {"var": "w", "rhs": [[[p - 1], {"x": -j2}]]}],
           "generators": [{"name": "s", "shifts": {"v": [[[1], {}]]}},
                          {"name": "t", "shifts": {"w": [[[1], {}]]}}]}
    code, verified = run(tmp_path, ["verify", "--precision", "1024"], doc)
    assert code == 0 and verified["agree"] is True
    code, converted = run(tmp_path, ["jumps", "--direction", "to-upper"],
                          verified["filtration"])
    assert code == 0 and converted["violations"] == []
    assert all(d == 1 for _, d in converted["jumps_with_multiplicity"])
    upper = [u for u, _ in converted["jumps_with_multiplicity"]]
    code, abelian = run(tmp_path, ["dimension"], {"structure": {
        "kind": "abelian", "p": p, "factors": [[u] for u in upper]}})
    assert code == 0 and abelian["exact"] == sum(u - u // p for u in upper)
    code, pieces = run(tmp_path, ["dimension"], {"tame": 1, "pieces": [
        {"q": p, "sigma": [u, 1], "s_iota": 1} for u in upper]})
    assert code == 0 and pieces["n"] == abelian["n"]


def test_verify_herbrand_route_on_a_top5_quaternion_fiber(tmp_path):
    # the F_16 fiber a1 = z, a2 = 1, a3 = z + 1, whose top right-hand side
    # cancels at leading order when folded by valuations alone
    doc = json.loads(json.dumps(GOLDEN_F16_QUATERNION[0]))
    doc["steps"][1]["rhs"][1][0] = [1, 0, 0, 0]  # a2 = 1
    doc["steps"][2]["rhs"][1][0] = [1, 1, 0, 0]  # a3 = z + 1
    code, res = run(tmp_path, ["verify"], doc)
    assert code == 0
    assert res["oracle_jumps"] == [1, 1, 5] == res["analytic_jumps"]
    assert res["agree"] is True


def test_quaternion_demo_f2(tmp_path):
    code, res = run(tmp_path, ["quaternion-demo", "--field-size", "2",
                               "--sweep"])
    assert code == 0
    assert res["count"] == 8
    assert res["strata"]["disconnected"] == 4  # a1 = 1 half of the cube
    assert res["family"]["all_jumps_1_1_3"] is True
    assert res["family"]["pairwise_distinct"] is True
    assert res["family"]["size"] == 2  # a1 in {0}, a3 in {0, 1} ... a1 != 1


def test_quaternion_demo_f4_zeta_disconnected(tmp_path):
    code, res = run(tmp_path, ["quaternion-demo", "--field-size", "4",
                               "--sweep"])
    assert code == 0
    # a1 = 0, a2 = zeta_3 (index 2) must be disconnected at W
    rows = [r for r in res["fibers"]
            if r["a"][0] == [0, 0] and r["a"][1] == [0, 1]]
    assert rows and all(not r["connected"] and r["disconnected_at"] == "W"
                        for r in rows)


def test_exit_code_parse_error(tmp_path):
    inp = tmp_path / "bad.json"
    inp.write_text("{not json")
    out = tmp_path / "out.json"
    code = main(["standard-form", "--input", str(inp), "--output", str(out)])
    assert code == 2
    assert json.loads(out.read_text())["error"]["code"] == 2


def test_integer_literal_past_the_digit_limit_is_a_parse_error(tmp_path):
    # Python refuses to read an integer of more than 4300 digits; that was a
    # ValueError traceback, not an error object
    inp = tmp_path / "big.json"
    inp.write_text('{"total_order": ' + "9" * 5000 + "}")
    out = tmp_path / "out.json"
    code = main(["jumps", "--direction", "to-upper", "--input", str(inp),
                 "--output", str(out)])
    assert code == 2
    assert "4300 digits" in json.loads(out.read_text())["error"]["message"]


def test_exit_code_schema_error(tmp_path):
    code, res = run(tmp_path, ["standard-form"], {"nonsense": 1})
    assert code == 2


FILTRATION = {"total_order": 8, "tame": 1, "numbering": "lower",
              "breaks": [[1, 1, 8], [3, 1, 2]]}
COVER = {"field": {"p": 2, "a": 1}, "q": 2, "m": 1, "z": None,
         "r": {"terms": [[-1, [1]]]}}
PIECES = {"tame": 1, "pieces": [{"q": 2, "sigma": [1, 1], "s_iota": 1}]}
TOWER = {"field": {"p": 2, "a": 1}, "m": 1,
         "steps": [{"var": "v", "rhs": [[[1], {"x": -3}]]}],
         "generators": [{"name": "t", "shifts": {"v": [[[1], {}]]}}]}


@pytest.mark.parametrize("args,doc", [
    (["jumps", "--direction", "to-upper"],
     dict(FILTRATION, breaks=[[1, 0, 8], [3, 1, 2]])),
    (["jumps", "--direction", "to-upper"], dict(FILTRATION, total_order="x")),
    (["jumps", "--direction", "to-upper"],
     dict(FILTRATION, breaks=[[1, 8], [3, 1, 2]])),
    (["standard-form"], dict(COVER, r={"terms": [[-1, ["a"]]]})),
    (["dimension"],
     dict(PIECES, pieces=[{"q": 2, "sigma": [1, 0], "s_iota": 1}])),
    (["dimension"],
     dict(PIECES, pieces=[{"q": 2, "sigma": ["a", 1], "s_iota": 1}])),
    (["dimension"],
     dict(PIECES, pieces=[{"q": 2, "sigma": [1, 2, 3], "s_iota": 1}])),
    (["dimension"], dict(PIECES, pieces=[{"q": 2, "sigma": 3, "s_iota": 1}])),
    (["dimension"], dict(PIECES, tame="x")),
    (["dimension"], [PIECES]),
    (["dimension"], dict(PIECES, structure="abelian")),
    (["verify"], dict(TOWER, m="x")),
    (["verify"], dict(TOWER, generators=[{"name": "t", "shifts": [1]}])),
    # a float or a bool where an integer belongs is refused, not truncated:
    # int() would read -2.9 as -2, 1.5 as 1 and true as 1 and answer
    (["standard-form"], dict(COVER, r={"terms": [[-2.9, [1.7]]]})),
    (["standard-form"], dict(COVER, r={"terms": [[-1, [True]]]})),
    (["jumps", "--direction", "to-upper"],
     dict(FILTRATION, breaks=[[1.5, 1, 8], [3, 1, 2]])),
    (["verify"], dict(TOWER, steps=[{"var": "v", "rhs": [[[1], {"x": -1.5}]]}])),
    (["jumps", "--direction", "to-upper"], dict(FILTRATION, tame=True)),
    (["dimension"], dict(PIECES, tame=True)),
    # a number where a name belongs is refused, not read as its str()
    (["jumps", "--direction", "to-upper"], dict(FILTRATION, numbering=7)),
    (["verify"], dict(TOWER, steps=[{"var": 5, "rhs": [[[1], {"x": -3}]]}])),
    (["verify"], dict(TOWER, generators=[{"name": 5,
                                           "shifts": {"v": [[[1], {}]]}}])),
], ids=["zero-denominator", "total-order-string", "two-element-break",
        "string-coefficient", "dimension-zero-denominator",
        "dimension-string-sigma", "dimension-three-element-sigma",
        "dimension-int-sigma",
        "dimension-string-tame", "dimension-top-level-list",
        "dimension-string-structure", "verify-string-m", "verify-list-shifts",
        "float-term", "bool-coefficient", "float-jump", "float-exponent",
        "bool-tame", "dimension-bool-tame", "int-numbering", "verify-int-var",
        "verify-int-name"])
def test_malformed_field_is_a_schema_error(tmp_path, capsys, args, doc):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(doc))
    code = main(args + ["--input", str(inp)])
    out, err = capsys.readouterr()
    assert code == 2
    error = json.loads(out)["error"]
    assert error["code"] == 2 and error["type"] == "schema" and error["message"]
    assert err == ""


@pytest.mark.parametrize("args,doc,message", [
    (["standard-form"], {k: v for k, v in COVER.items() if k != "r"},
     "malformed cover document: 'r'"),
    (["verify"], {k: v for k, v in TOWER.items() if k != "steps"},
     "malformed tower document: 'steps'"),
    (["verify"], dict(TOWER, steps=[{"var": "v", "rhs": [[[1], 5]]}]),
     "malformed tower document: malformed expression: "
     "'int' object has no attribute 'items'"),
    (["jumps", "--direction", "to-upper"],
     dict(FILTRATION, breaks=[[1, 8], [3, 1, 2]]),
     "malformed filtration document: "
     "not enough values to unpack (expected 3, got 2)"),
    (["dimension"], dict(PIECES, pieces=[{"q": 2, "sigma": [1, 1]}]),
     "malformed reduced filtration: 's_iota'"),
    (["dimension"], dict(PIECES, structure={"kind": "abelian", "p": 2}),
     "abelian structure needs p and factors: 'factors'"),
    (["dimension"],
     dict(PIECES, pieces=[{"q": 2, "sigma": [1, 0], "s_iota": 1}]),
     "malformed reduced filtration: Fraction(1, 0)"),
], ids=["cover", "tower", "expression", "filtration", "reduced-filtration",
        "abelian-structure", "zero-denominator"])
def test_each_reader_names_what_is_malformed(tmp_path, args, doc, message):
    # the reader's prefix, then the message of what the shape raised; a
    # nested reader's prefix follows its outer one
    code, res = run(tmp_path, args, doc)
    assert code == 2
    assert res == {"error": {"code": 2, "type": "schema", "message": message}}


def test_json_int_accepts_only_integers():
    assert json_int(-3) == -3
    for x in (1.0, 1.5, True, False, "1", None, [1]):
        with pytest.raises(SchemaError):
            json_int(x)


@pytest.mark.parametrize("args,doc", [
    (["jumps", "--direction", "to-upper"],
     dict(FILTRATION, breaks=[[3, 1, 2], [1, 1, 8]])),
    (["standard-form"], dict(COVER, r={"terms": [[-1, [1, 1]]]})),
    (["verify"], dict(TOWER, steps=[{"var": "v", "rhs": [[[1, 1], {"x": -3}]]}])),
    # 10/4 is no power of 2, so no jump count fits these break orders
    (["jumps", "--direction", "to-upper"],
     {"total_order": 10, "tame": 5, "numbering": "lower",
      "breaks": [[1, 1, 10], [3, 1, 4]]}),
    # the first break order 4 is not the wild part 10/5 = 2, so the two
    # jumps it would count do not make up a group of order 2
    (["jumps", "--direction", "to-lower"],
     {"total_order": 10, "tame": 5, "numbering": "upper",
      "breaks": [[1, 1, 4], [3, 1, 2]]}),
], ids=["descending-jumps", "coefficient-vector-too-long",
        "tower-coefficient-vector-too-long", "break-order-quotient-not-p-power",
        "first-break-order-not-wild-part"])
def test_invalid_content_stays_a_domain_error(tmp_path, args, doc):
    code, res = run(tmp_path, args, doc)
    assert code == 1
    assert res["error"]["type"] == "domain"


def test_exit_code_domain_error(tmp_path):
    # conductor of a disconnected cover is a domain error at the dimension
    # level: ordinary structure that is not ordinary
    doc = {"tame": 3, "structure": {"kind": "ordinary"},
           "pieces": [{"q": 4, "sigma": [2, 1], "s_iota": 2}]}
    code, res = run(tmp_path, ["dimension"], doc)
    assert code == 1
    assert res["error"]["code"] == 1


ONE = [[[1], {}]]
STEP_V = {"var": "v", "rhs": [[[1], {"x": -1}]]}
STEP_W = {"var": "w", "rhs": [[[1], {"x": -3}]]}


def two_step_tower(shifts):
    return {"field": {"p": 2, "a": 1}, "m": 1, "steps": [STEP_V, STEP_W],
            "generators": [{"name": "s", "shifts": shifts}]}


def f4_cover(q, z):
    return {"field": {"p": 2, "a": 2}, "q": q, "m": 3, "z": z,
            "r": {"terms": [[-1, [1]]]}}


@pytest.mark.parametrize("args,doc,message", [
    (["standard-form"], f4_cover(4, None),
     "m > 1 requires the action scalar z"),
    (["standard-form"], f4_cover(2, [0, 1]), "z must lie in F_q^*"),
    (["standard-form"], f4_cover(4, [1, 0]),
     "action not irreducible: [F_p(z):F_p] != a"),
    (["verify"], dict(TOWER, steps=[STEP_V, STEP_V]), "duplicate variable v"),
    (["verify"], dict(TOWER, steps=[{"var": "v", "rhs": [[[1], {"w": 1}]]}]),
     "step v uses undeclared {'w'}"),
    (["verify"], two_step_tower({"v": [[[1], {"w": 1}]]}),
     "shift of v uses later variables {'w'}"),
    (["verify"], two_step_tower({"w": [[[1], {"v": -1}]]}),
     "shifts must be polynomial (exponents >= 0)"),
    (["verify"], two_step_tower({"x": ONE}),
     "the base coordinate cannot be shifted"),
    (["verify"], two_step_tower({"u": ONE}),
     "shifts for undeclared variables {'u'}"),
    (["verify"], dict(TOWER, m=4), "tame degree 4 must be positive and prime "
                                   "to 2"),
    # refused when the tower is read, before generators are looked for
    (["verify"], {"field": {"p": 2, "a": 1}, "m": 1, "steps": [
        STEP_V, {"var": "w", "rhs": [[[1], {"x": -3}], [[1], {"v": -1}]]}]},
     "step w has a negative power of the step variable v"),
    # the only route into VarPoly.eval's bare-constant branch
    (["verify"], dict(TOWER, steps=[{"var": "v", "rhs": ONE}]),
     "step is not totally ramified: right-hand side has no pole after "
     "reduction"),
    (["verify"], {k: v for k, v in TOWER.items() if k != "generators"},
     "wild steps declared but no generators supplied"),
], ids=["null-z-with-tame-part", "z-outside-f-q", "z-not-generating-f-q",
        "duplicate-step-variable", "undeclared-rhs-variable",
        "shift-uses-later-variable", "negative-shift-exponent", "shift-of-x",
        "shift-of-undeclared-variable", "tame-degree-divisible-by-p",
        "negative-step-power-without-generators", "constant-rhs",
        "steps-without-generators"])
def test_refusals_name_their_cause(tmp_path, capsys, args, doc, message):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(doc))
    code = main(args + ["--input", str(inp)])
    out, err = capsys.readouterr()
    assert code == 1
    assert json.loads(out)["error"] == {"code": 1, "type": "domain",
                                        "message": message}
    assert err == ""


def schema_error(capsys, argv) -> str:
    """The message of the schema error main answers argv with."""
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    error = json.loads(out)["error"]
    assert error["code"] == 2 and error["type"] == "schema"
    return error["message"]


def test_an_unreadable_input_is_a_schema_error(tmp_path, capsys):
    missing = str(tmp_path / "missing" / "x.json")
    message = schema_error(capsys, ["verify", "--input", missing])
    assert message.startswith("cannot read input: ") and missing in message


def test_quaternion_demo_refuses_an_unsupported_field_size(capsys):
    assert schema_error(capsys, ["quaternion-demo", "--field-size", "3"]) \
        == "field size must be one of 2, 4, 16"


def test_name_sets_print_the_same_under_every_hash_seed(tmp_path):
    # a set's repr follows string hashing, which differs between runs
    abcd = {n: [[[1], {"x": -1}]] for n in "abcd"}
    docs = [
        (dict(TOWER, steps=[{"var": "v", "rhs": [
            [[1], {n: 1 for n in "abcd"}]]}]),
         "step v uses undeclared {'a', 'b', 'c', 'd'}"),
        (dict(TOWER, steps=[STEP_V] + [{"var": n, "rhs": r}
                                       for n, r in abcd.items()],
              generators=[{"shifts": {"v": [[[1], {n: 1 for n in "abcd"}]]}}]),
         "shift of v uses later variables {'a', 'b', 'c', 'd'}"),
        (dict(TOWER, generators=[{"shifts": abcd}]),
         "shifts for undeclared variables {'a', 'b', 'c', 'd'}"),
    ]
    src = str(Path(cli.__file__).parents[1])
    for i, (doc, message) in enumerate(docs):
        inp = tmp_path / f"in{i}.json"
        inp.write_text(json.dumps(doc))
        outs = {subprocess.run(
            [sys.executable, "-m", "ramify.cli", "verify", "--input", str(inp)],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
            capture_output=True, check=False).stdout for seed in ("1", "2")}
        assert len(outs) == 1
        assert json.loads(outs.pop())["error"]["message"] == message


P61 = 2 ** 61 - 1  # a prime past the limit 2^20 on primes


@pytest.mark.parametrize("args,doc", [
    (["standard-form"], dict(COVER, field={"p": P61, "a": 1}, q=P61)),
    (["standard-form"], dict(COVER, field={"p": 3, "a": 10 ** 9}, q=3)),
    (["dimension"], dict(PIECES, pieces=[{"q": P61, "sigma": [1, 1],
                                          "s_iota": 1}])),
    (["dimension"], {"structure": {"kind": "abelian", "p": P61,
                                   "factors": [[1]]}}),
    (["jumps", "--direction", "to-upper"],
     {"total_order": P61, "tame": 1, "numbering": "lower",
      "breaks": [[1, 1, P61]]}),
    (["verify"], dict(TOWER, steps=[{"var": "v",
                                     "rhs": [[[1], {"x": -100000001}]]}])),
    (["dimension"], dict(PIECES, pieces=[{"q": 2, "sigma": [10 ** 8, 1],
                                          "s_iota": 1}])),
    (["dimension"], dict(PIECES, tame=1000000007,
                         structure={"kind": "ordinary"})),
    # the walk is short here, and the ordinary check must not search for the
    # order of 2 mod 10^9 + 7 either
    (["dimension"], {"tame": 1000000007, "structure": {"kind": "ordinary"},
                     "pieces": [{"q": 2, "sigma": [1, 10 ** 12],
                                 "s_iota": 1}]}),
], ids=["field-prime-past-limit", "field-degree-huge", "piece-prime-past-limit",
        "abelian-prime-past-limit", "wild-prime-past-limit", "pole-huge",
        "sigma-huge", "tame-huge", "ordinary-order-huge"])
def test_unbounded_documents_are_refused_at_once(tmp_path, args, doc):
    # each of these ran for more than 8 s before it was refused
    t0 = time.perf_counter()
    code, res = run(tmp_path, args, doc)
    assert time.perf_counter() - t0 < 2.0
    assert code == 1
    assert res["error"]["type"] == "domain" and res["error"]["message"]


# 8000 poles x^-2(2i+1) over F_2, each the square of a pole of odd order
SQUARE_POLES = dict(COVER, r={"terms": [[-2 * (2 * i + 1), [1]]
                                        for i in range(8000)]})
Q_BIG = 1048573 ** 2  # the square of the largest prime below 2^20


@pytest.mark.parametrize("args,doc,code,expected", [
    (["standard-form"], SQUARE_POLES, 0,
     {"conductor": 15999, "connected": True, "standard_form": {
         "terms": [[-(2 * i + 1), [1]] for i in reversed(range(8000))]}}),
    (["verify"], dict(TOWER, generators=[{"name": "t", "shifts": {
        "v": [[[1], {"x": k}] for k in range(32000)]}}]), 1,
     {"error": {"code": 1, "type": "domain", "message":
                "generator t does not preserve the equation of step v"}}),
    (["dimension"], dict(PIECES, pieces=[{"q": Q_BIG, "sigma": [1, 1],
                                          "s_iota": 1}] * 200), 1,
     {"error": {"code": 1, "type": "domain", "message":
                "the counts would walk past 500000 integers"}}),
    (["dimension"], dict(PIECES, pieces=[{"q": Q_BIG, "sigma": [1, 10 ** 12],
                                          "s_iota": 1}] * 400), 0,
     {"exact": None, "lower": 0, "n": [0] * 400, "rule": None, "upper": 0}),
], ids=["standard-form-8000-square-poles", "verify-shift-32000-terms",
        "dimension-200-pieces-of-a-large-prime-square",
        "dimension-400-pieces-counted-with-the-filtration-prime"])
def test_long_documents_take_one_pass(tmp_path, args, doc, code, expected):
    # each took 8 s or more when every item read re-scanned or re-derived
    # what came before it: the standard form rescanned its exponents, the
    # expression reader copied its sum per term, the reduced filtration
    # trial-divided every piece order, and n_count factored every piece
    # order again
    t0 = time.perf_counter()
    assert run(tmp_path, args, doc) == (code, expected)
    assert time.perf_counter() - t0 < 2.0


@pytest.mark.parametrize("p", [0, 1, -2, 4])
def test_dimension_abelian_p_must_be_prime(tmp_path, p):
    # p = 0 raised ZeroDivisionError, and p = 4 was refused as an exact
    # dimension outside the proven bounds
    doc = {"structure": {"kind": "abelian", "p": p, "factors": [[1]]}}
    code, res = run(tmp_path, ["dimension"], doc)
    assert code == 1
    assert res["error"]["message"] == f"abelian p = {p} is not prime"


def test_dimension_walk_limit_is_inclusive(tmp_path, monkeypatch):
    # (q/p) m sigma = 2 * 1 * 5 = 10 integers; at sigma = 10/3 the walk is
    # floor(20/3) = 6 integers, neither 7 nor 20/3
    for sigma, walk in [([5, 1], 10), ([10, 3], 6)]:
        doc = dict(PIECES, pieces=[{"q": 4, "sigma": sigma, "s_iota": 1}])
        monkeypatch.setattr(moduli, "WALK_CAP", walk)
        assert run(tmp_path, ["dimension"], doc)[0] == 0
        monkeypatch.setattr(moduli, "WALK_CAP", walk - 1)
        code, res = run(tmp_path, ["dimension"], doc)
        assert code == 1
        assert f"walk past {walk - 1} integers" in res["error"]["message"]


def test_jumps_document_past_the_integer_limit_is_refused(tmp_path, capsys):
    # converting this filtration multiplies a 4001-digit jump by 2^13999, an
    # integer Python refuses to print: that was a ValueError traceback
    doc = {"total_order": 2 ** 14000, "tame": 1, "numbering": "upper",
           "breaks": [[1, 1, 2 ** 14000], [10 ** 4000, 1, 2]]}
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(doc))
    code = main(["jumps", "--direction", "to-lower", "--input", str(inp)])
    out, err = capsys.readouterr()
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "domain"
    assert f"past the limit {cli.JUMPS_BITS_CAP}" in error["message"]
    assert err == ""


def test_jumps_document_at_the_integer_limit_answers(tmp_path):
    # 2^1000 and 1 + 2^2087 take 1001 and 2088 bits; with 1, 1, 1, 2^1000
    # and 1, 2 the document holds 4096 bits, and its top lower jump
    # 1 + (sigma - 1) 2^1000 / 2 is 1 + 2^3086
    k, sigma = 1000, 2 ** 2087 + 1
    doc = {"total_order": 2 ** k, "tame": 1, "numbering": "upper",
           "breaks": [[1, 1, 2 ** k], [sigma, 1, 2]]}
    assert cli.JUMPS_BITS_CAP == 4096
    code, res = run(tmp_path, ["jumps", "--direction", "to-lower"], doc)
    assert code == 0
    assert res["filtration"]["breaks"] == [[1, 1, 2 ** k],
                                           [1 + 2 ** 3086, 1, 2]]
    assert res["jumps_with_multiplicity"] == [[1, 1]] * (k - 1) + \
        [[1 + 2 ** 3086, 1]]
    assert res["violations"] == []
    # one bit more is refused
    doc["breaks"][1][0] = 2 * sigma
    code, res = run(tmp_path, ["jumps", "--direction", "to-lower"], doc)
    assert code == 1
    assert "4097 bits" in res["error"]["message"]


def test_jumps_total_order_without_small_factors_is_refused(tmp_path):
    # (2^31 - 1)^131 holds 4061 bits and has no prime factor below 2^20, so
    # the trial division runs to the limit before the refusal
    n = (2 ** 31 - 1) ** 131
    doc = {"total_order": n, "tame": 1, "numbering": "lower",
           "breaks": [[1, 1, 2]]}
    code, res = run(tmp_path, ["jumps", "--direction", "to-upper"], doc)
    assert code == 1
    assert res["error"] == {"code": 1, "type": "domain", "message":
                            f"{n} has a prime factor past the limit 2^20"}


def test_cli_idempotent(tmp_path):
    doc = {"total_order": 8, "tame": 1, "numbering": "lower",
           "breaks": [[1, 1, 8], [3, 1, 2]]}
    _, first = run(tmp_path, ["jumps", "--direction", "to-upper"], doc)
    _, second = run(tmp_path, ["jumps", "--direction", "to-upper"], doc)
    assert first == second


def test_standard_form_with_tame_scalar(tmp_path):
    doc = {"field": {"p": 3, "a": 1}, "q": 3, "m": 2, "z": [2],
           "r": {"terms": [[-1, [1]], [-5, [2]]]}}
    code, res = run(tmp_path, ["standard-form"], doc)
    assert code == 0
    assert res["conductor"] == 5


# `verify --precision 256` standard output, byte for byte, for three towers
# whose oracle runs end at working precision 64, 32 and 32.  The texts were
# produced by the dict-of-coefficients series code that the packed kernel
# replaced, with the precision used moved from 256 and 128 to 64 and 32 when
# the series precision rules became tight, and with analytic_jumps and agree
# moved to Herbrand's jumps from the step conductors when those replaced the
# per-step valuation fold; any change in a series coefficient that reaches a
# jump, a conductor, the precision used or the genus shows here.
GOLDEN_Z5_SQUARED = (
    {"field": {"p": 5, "a": 1},
     "m": 1,
     "steps": [{"var": "v", "rhs": [[[1], {"x": -8}]]},
               {"var": "w", "rhs": [[[2], {"x": -9}]]}],
     "generators": [{"name": "s", "shifts": {"v": [[[1], {}]]}},
                    {"name": "t", "shifts": {"w": [[[1], {}]]}}]},
    '{\n'
    '  "agree": true,\n'
    '  "analytic_jumps": [\n'
    '    8,\n'
    '    13\n'
    '  ],\n'
    '  "filtration": {\n'
    '    "breaks": [\n'
    '      [\n'
    '        8,\n'
    '        1,\n'
    '        25\n'
    '      ],\n'
    '      [\n'
    '        13,\n'
    '        1,\n'
    '        5\n'
    '      ]\n'
    '    ],\n'
    '    "numbering": "lower",\n'
    '    "tame": 1,\n'
    '    "total_order": 25\n'
    '  },\n'
    '  "genus": 94,\n'
    '  "oracle_jumps": [\n'
    '    8,\n'
    '    13\n'
    '  ],\n'
    '  "p_rank": 0,\n'
    '  "precision_used": 64\n'
    '}\n'
)
GOLDEN_Z2_SQUARED = (
    {"field": {"p": 2, "a": 1},
     "m": 1,
     "steps": [{"var": "v", "rhs": [[[1], {"x": -5}]]},
               {"var": "w", "rhs": [[[1], {"x": -9}]]}],
     "generators": [{"name": "s", "shifts": {"v": [[[1], {}]]}},
                    {"name": "t", "shifts": {"w": [[[1], {}]]}}]},
    '{\n'
    '  "agree": true,\n'
    '  "analytic_jumps": [\n'
    '    5,\n'
    '    13\n'
    '  ],\n'
    '  "filtration": {\n'
    '    "breaks": [\n'
    '      [\n'
    '        5,\n'
    '        1,\n'
    '        4\n'
    '      ],\n'
    '      [\n'
    '        13,\n'
    '        1,\n'
    '        2\n'
    '      ]\n'
    '    ],\n'
    '    "numbering": "lower",\n'
    '    "tame": 1,\n'
    '    "total_order": 4\n'
    '  },\n'
    '  "genus": 10,\n'
    '  "oracle_jumps": [\n'
    '    5,\n'
    '    13\n'
    '  ],\n'
    '  "p_rank": 0,\n'
    '  "precision_used": 32\n'
    '}\n'
)
GOLDEN_F16_QUATERNION = (
    {"field": {"p": 2, "a": 4},
     "m": 1,
     "steps": [{"var": "v", "rhs": [[[1, 1, 0, 0], {"x": -1}]]},
               {"var": "w",
                "rhs": [[[1, 0, 0, 0], {"v": 1}], [[0, 1, 0, 0], {"x": -1}]]},
               {"var": "y",
                "rhs": [[[1, 0, 0, 0], {"w": 3}],
                        [[1, 1, 1, 0], {"x": -1}]]}],
     "generators": [{"name": "mu",
                     "shifts": {"w": [[[1, 0, 0, 0], {}]],
                                "y": [[[1, 0, 0, 0], {"w": 1}],
                                      [[0, 1, 1, 0], {}]]}},
                    {"name": "tau",
                     "shifts": {"v": [[[1, 0, 0, 0], {}]],
                                "w": [[[0, 1, 1, 0], {}]],
                                "y": [[[1, 1, 1, 0], {"w": 1}],
                                      [[0, 1, 1, 0], {}]]}}]},
    '{\n'
    '  "agree": true,\n'
    '  "analytic_jumps": [\n'
    '    1,\n'
    '    1,\n'
    '    5\n'
    '  ],\n'
    '  "filtration": {\n'
    '    "breaks": [\n'
    '      [\n'
    '        1,\n'
    '        1,\n'
    '        8\n'
    '      ],\n'
    '      [\n'
    '        5,\n'
    '        1,\n'
    '        2\n'
    '      ]\n'
    '    ],\n'
    '    "numbering": "lower",\n'
    '    "tame": 1,\n'
    '    "total_order": 8\n'
    '  },\n'
    '  "genus": 2,\n'
    '  "oracle_jumps": [\n'
    '    1,\n'
    '    1,\n'
    '    5\n'
    '  ],\n'
    '  "p_rank": 0,\n'
    '  "precision_used": 32\n'
    '}\n'
)


@pytest.mark.parametrize("golden", [GOLDEN_Z5_SQUARED, GOLDEN_Z2_SQUARED,
                                    GOLDEN_F16_QUATERNION],
                         ids=["z5-squared", "z2-squared", "f16-quaternion"])
def test_verify_golden_stdout(tmp_path, capsys, golden):
    doc, expected = golden
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(doc))
    assert main(["verify", "--precision", "256", "--input", str(inp)]) == 0
    assert capsys.readouterr().out == expected


# sha256 of `quaternion-demo --field-size N [--sweep]` standard output.  The
# digests were taken from the program that built the rows on a process pool
# and checked distinctness with pairwise is_isomorphic calls.
QUATERNION_DEMO_SHA256 = {
    (2, False): "eb25b12554f4f8db16db70c140302f6d7b1c71615f67f7fd08f6160df9523e5a",
    (2, True): "61bc94c92560121c0aae0fc09f550cf47065b83332b465dcaef26e6e719a58f4",
    (4, False): "372b587489a5b5493713ef16876067171458a9a751ff84194ad169a7b70540a8",
    (4, True): "8f6db0f189b04f3694eb3335e818ee535ddf7d0a5b71fb0dae624ee1eb42b745",
    (16, False): "8ece81ede171e34675384f56a7ff8dc36535c3bbaa0b6896aae12c3a77ef4de1",
    (16, True): "61399fc120f361b705a2f42c58970f17c0c888cafc74e72133cf034e04a0f6ff",
}


@pytest.mark.parametrize("size,sweep", sorted(QUATERNION_DEMO_SHA256),
                         ids=[f"f{n}{'-sweep' if s else ''}"
                              for n, s in sorted(QUATERNION_DEMO_SHA256)])
def test_quaternion_demo_golden_stdout(tmp_path, capsys, size, sweep):
    argv = ["quaternion-demo", "--field-size", str(size)] + ["--sweep"] * sweep
    assert main(argv) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == QUATERNION_DEMO_SHA256[size, sweep]
    # the same bytes through --output FILE
    path = tmp_path / "out.json"
    assert main(argv + ["--output", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == QUATERNION_DEMO_SHA256[size, sweep])


def _count_calls(monkeypatch, calls, module, name):
    original = getattr(module, name)

    def wrapper(*args):
        calls[name] += 1
        return original(*args)
    monkeypatch.setattr(module, name, wrapper)


def test_family_check_takes_no_standard_form_or_isomorphism(monkeypatch):
    calls = {"standard_form": 0, "is_isomorphic": 0}
    _count_calls(monkeypatch, calls, ascover, "standard_form")
    _count_calls(monkeypatch, calls, ascover, "is_isomorphic")
    family = cli._equiramified_family_check(field_create(2, 4))
    assert family == {"size": 240, "all_jumps_1_1_3": True,
                      "pairwise_distinct": True}
    # the block is read off its closed form, not off the fibers' covers
    assert calls == {"standard_form": 0, "is_isomorphic": 0}


@pytest.mark.parametrize("size", [2, 4, 16])
def test_quaternion_sweep_evaluates_each_column_once(monkeypatch, size):
    calls = {"evaluate_quaternion_fiber": 0, "quaternion_fiber_shape": 0,
             "standard_form": 0}
    _count_calls(monkeypatch, calls, tower, "evaluate_quaternion_fiber")
    _count_calls(monkeypatch, calls, ascover, "standard_form")
    _count_calls(monkeypatch, calls, tower, "quaternion_fiber_shape")
    res = cli.cmd_quaternion_demo(size, True)
    assert res["count"] == size ** 3
    # one shape per ratio class a2/(a1 + 1) (one per ratio in F_q and the
    # a1 = 1 column) and one in each evaluation; the first fiber of each
    # shape is evaluated (V and top jump 3 over F_2, W too over F_4, top
    # jump 5 too over F_16); the family block reads the shape of ratio 0
    shapes = {2: 2, 4: 3, 16: 4}[size]
    assert calls == {"evaluate_quaternion_fiber": shapes,
                     "quaternion_fiber_shape": size + 1 + shapes + 1,
                     "standard_form": 0}


@pytest.mark.parametrize("a", [1, 2, 3, 4], ids=["f2", "f4", "f8", "f16"])
def test_sweep_ratio_keys_are_the_fiber_ratios(a):
    # the sweep's class key of (a1, a2) is the index of a2 times one inverse
    # per a1 column, found by index bits; it must be the index of the ratio
    # the fiber evaluation reads
    field = field_create(2, a)
    elements = list(field.elements())
    for a1 in elements:
        keys = cli._column_ratios(a1)
        ratios = [tower.quaternion_fiber_ratio(a1, a2) for a2 in elements]
        assert keys == [None if r is None else index_of(r) for r in ratios]
        assert all(key is None for key in keys) == (a1 == field.one())
        assert (None in keys) == (a1 == field.one())


@pytest.mark.parametrize("size", [2, 4, 16])
def test_quaternion_sweep_takes_one_ratio_per_column(monkeypatch, size):
    calls = {"quaternion_fiber_ratio": 0}
    _count_calls(monkeypatch, calls, tower, "quaternion_fiber_ratio")
    cli.cmd_quaternion_demo(size, True)
    # one per a1 column for its inverse, then one in the evaluation of the
    # first fiber of each shape
    shapes = {2: 2, 4: 3, 16: 4}[size]
    assert calls == {"quaternion_fiber_ratio": size + shapes}


@pytest.mark.parametrize("size,sweep", sorted(QUATERNION_DEMO_SHA256),
                         ids=[f"f{n}{'-sweep' if s else ''}"
                              for n, s in sorted(QUATERNION_DEMO_SHA256)])
def test_quaternion_demo_matches_fiber_by_fiber(tmp_path, size, sweep):
    field = field_create(2, size.bit_length() - 1)
    argv = ["quaternion-demo", "--field-size", str(size)] + ["--sweep"] * sweep
    code, res = run(tmp_path, argv)
    assert code == 0
    rows = quaternion_pipeline.demo_rows(field, sweep)
    assert res["fibers"] == rows
    assert res["count"] == len(rows)
    assert res["strata"] == {
        "disconnected": sum(1 for r in rows if not r["connected"]),
        "genus1": sum(1 for r in rows if r["genus"] == 1),
        "genus2": sum(1 for r in rows if r["genus"] == 2)}
    assert res["family"] == quaternion_pipeline.family_check(field)


def test_family_check_reports_isomorphic_fibers(monkeypatch):
    # with every standard form equal, all fibers of the oracle's enumeration
    # share one key
    field = field_create(2, 2)
    monkeypatch.setattr(ascover, "standard_form",
                        lambda cover: LaurentPoly.zero(field))
    assert quaternion_pipeline.family_check(field)["pairwise_distinct"] is False


# JSON values as the CLI could emit them, and more: keys that are empty,
# non-ASCII or need escapes, empty containers, tuples, ints of up to 4000
# digits, bools and None
_KEYS = st.one_of(st.text(), st.sampled_from(
    ["", "é", "Größe ✓", "\u2028", "😀", "\"\\\n\t\x00\x1f", "a b"]))
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-10 ** 4000 + 1, max_value=10 ** 4000 - 1),
    st.text(), _KEYS)
_JSON = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=5), st.lists(inner, max_size=5).map(tuple),
    st.dictionaries(_KEYS, inner, max_size=5)), max_leaves=40)


def encoded(obj) -> str:
    """The text of the pieces cli._encode appends for obj at depth 0."""
    out = []
    cli._encode(obj, "", out)
    return "".join(out)


@settings(max_examples=300, deadline=None)
@given(_JSON)
def test_encode_writes_what_json_dumps_writes(obj):
    assert encoded(obj) == json.dumps(obj, sort_keys=True, indent=2)


# documents that place the same int lists and tuples at several positions
# and depths, as a sweep's rows share their parameter lists
@st.composite
def _aliased_json(draw):
    ints = st.lists(st.integers(min_value=-10 ** 30, max_value=10 ** 30),
                    max_size=4)
    shared = draw(st.lists(st.one_of(ints, ints.map(tuple)), min_size=1,
                           max_size=4))
    node = st.one_of(st.sampled_from(shared), _LEAVES)
    tree = draw(st.recursive(node, lambda inner: st.one_of(
        st.lists(inner, max_size=5), st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=5)), max_leaves=40))
    return {"a": shared, "b": [tree, (tree, shared)], "c": tree}


@settings(max_examples=300, deadline=None)
@given(_aliased_json())
def test_encode_writes_shared_leaves_as_json_dumps_does(obj):
    assert encoded(obj) == json.dumps(obj, sort_keys=True, indent=2)


def test_encode_keeps_no_leaf_text_from_an_earlier_call():
    leaf = [1, 2]
    doc = {"a": leaf, "b": [leaf, {"c": leaf}], "d": (leaf, leaf)}
    assert encoded(doc) == json.dumps(doc, sort_keys=True, indent=2)
    leaf.append(3)
    assert encoded(doc) == json.dumps(doc, sort_keys=True, indent=2)
    assert encoded(doc).count("3") == 5


# a value from _JSON placed at a random depth among random siblings, once as
# it is and once as the text json.dumps writes for it at that depth, in
# pieces of one line each
@st.composite
def _placed_json(draw):
    plain = draw(_JSON)
    depth = draw(st.integers(min_value=0, max_value=4))
    text = json.dumps(plain, sort_keys=True, indent=2)
    pieces = cli._Encoded(text.replace("\n", "\n" + "  " * depth)
                          .splitlines(keepends=True))
    for _ in range(depth):
        siblings = draw(st.lists(_JSON, max_size=2))
        if draw(st.booleans()):
            i = draw(st.integers(min_value=0, max_value=len(siblings)))
            plain = siblings[:i] + [plain] + siblings[i:]
            pieces = siblings[:i] + [pieces] + siblings[i:]
        else:
            key = draw(_KEYS)
            others = dict(zip(draw(st.lists(_KEYS, max_size=2)), siblings))
            others.pop(key, None)
            plain = {**others, key: plain}
            pieces = {**others, key: pieces}
    return plain, pieces


@settings(max_examples=300, deadline=None)
@given(_placed_json())
def test_encode_writes_a_pre_encoded_value_as_is(docs):
    plain, pieces = docs
    assert encoded(pieces) == json.dumps(plain, sort_keys=True, indent=2)


def test_writing_the_sweep_peaks_below_half_its_length(tmp_path):
    path = tmp_path / "out.json"
    tracemalloc.start()
    try:
        assert main(["quaternion-demo", "--field-size", "16", "--sweep",
                     "--output", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the document is written piece by piece and never held as one string,
    # which alone would take its whole length
    assert peak <= 0.5 * path.stat().st_size


@pytest.mark.parametrize("obj", [Fraction(1, 2), 0.5, {1: 2}, {"a": [1, 0.5]},
                                 {"a": 1, 2: "b"}, [{True: 1}]],
                         ids=["fraction", "float", "int-key", "nested-float",
                              "mixed-keys", "bool-key"])
def test_encode_refuses_what_the_cli_never_emits(obj):
    with pytest.raises(TypeError):
        cli._encode(obj, "", [])


def test_a_document_that_cannot_be_encoded_writes_nothing(tmp_path, capsys):
    # the Fraction comes after pieces that encode, and still nothing of the
    # document is written, to standard output or to a file
    doc = {"a": list(range(100)), "b": [1, Fraction(1, 2)], "c": 3}
    with pytest.raises(TypeError):
        cli._write_document(doc, "-")
    assert capsys.readouterr().out == ""
    path = tmp_path / "out.json"
    with pytest.raises(TypeError):
        cli._write_document(doc, str(path))
    assert not path.exists()


def test_error_document_with_non_ascii_input_matches_json_dumps(tmp_path,
                                                                capsys):
    kind = "Größe ✓ 😀"
    doc = {"structure": {"kind": kind}, "pieces": []}
    expected = json.dumps(
        {"error": {"code": 2, "type": "schema",
                   "message": f"unknown structure kind {kind!r}"}},
        sort_keys=True, indent=2) + "\n"
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    assert main(["dimension", "--input", str(inp)]) == 2
    assert capsys.readouterr().out == expected
    out = tmp_path / "out.json"
    assert main(["dimension", "--input", str(inp), "--output", str(out)]) == 2
    assert out.read_bytes() == expected.encode("ascii")


@pytest.mark.parametrize("argv,stdin", [
    (["quaternion-demo", "--field-size", "2"], ""),
    (["dimension"], "{\"structure\": 1}"),
], ids=["result", "error"])
def test_an_unwritable_output_is_a_schema_error_on_stdout(tmp_path, capsys,
                                                          monkeypatch, argv,
                                                          stdin):
    path = tmp_path / "missing" / "out.json"
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert main(argv + ["--output", str(path)]) == 2
    out = capsys.readouterr().out
    error = json.loads(out)["error"]
    assert error["code"] == 2 and error["type"] == "schema"
    assert error["message"].startswith("cannot write output: ")
    assert str(path) in error["message"]
    assert out == json.dumps({"error": error}, sort_keys=True, indent=2) + "\n"
    assert not path.parent.exists()


def test_a_closed_standard_output_ends_quietly_with_exit_141():
    src = str(Path(cli.__file__).parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "ramify.cli", "quaternion-demo",
         "--field-size", "16", "--sweep"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src))
    # the reader takes one line of the 1.6 MB document and goes
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == cli.CLOSED_PIPE_EXIT == 141
    assert err == b""
