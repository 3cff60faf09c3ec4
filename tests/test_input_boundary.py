"""The input boundary of every command: whatever JSON comes in, the CLI
answers or refuses with an error object, never a traceback.

Integers are drawn either small or huge (|n| >= 10^12), so every documented
limit is crossed.  The band in between holds documents that are accepted
and cost up to the limits (a `dimension` walk of 500,000 integers takes
about 2 s); it is left out to keep the property fast, not because it fails.
"""

import contextlib
import io
import json
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from ramify.cli import main

SMALL = st.integers(-3, 24)
HUGE = st.integers(10 ** 12, 10 ** 40) | st.integers(-10 ** 40, -10 ** 12)
INTS = SMALL | HUGE
JUNK = (st.none() | st.booleans() | st.floats(allow_nan=False)
        | st.text(max_size=3) | st.just([]) | st.just({}))


def maybe(s):
    """s fifteen times in sixteen, otherwise any integer or a value of the
    wrong type, so that about half the documents are well formed."""
    return st.integers(0, 15).flatmap(lambda k: s if k else INTS | JUNK)


def small_lists(s, max_size=3):
    return maybe(st.lists(s, max_size=max_size))


PRIME = maybe(st.sampled_from([2, 3, 5]))
INT = maybe(st.integers(1, 4) | INTS)
COEFF = maybe(INTS | st.lists(INTS, max_size=3))
FIELD = maybe(st.fixed_dictionaries({"p": PRIME, "a": maybe(st.integers(1, 3))}))
PAIR = maybe(st.lists(INTS, min_size=2, max_size=2))

COVER = st.fixed_dictionaries({
    "field": FIELD, "q": INT, "m": INT,
    "z": maybe(st.none() | st.lists(INTS, max_size=2)),
    "r": maybe(st.fixed_dictionaries({
        "terms": small_lists(st.tuples(INT, COEFF).map(list))})),
})

FILTRATION = st.fixed_dictionaries({
    "total_order": INT, "tame": INT,
    "numbering": maybe(st.sampled_from(["lower", "upper"])),
    "breaks": small_lists(st.tuples(INT, INT, INT).map(list)),
})

DIMENSION = st.fixed_dictionaries({}, optional={
    "tame": INT,
    "structure": maybe(st.fixed_dictionaries(
        {"kind": maybe(st.sampled_from(
            ["general", "abelian", "reducible", "ordinary"]))},
        optional={"p": PRIME, "factors": small_lists(small_lists(INT))})),
    "pieces": small_lists(st.fixed_dictionaries(
        {"q": maybe(st.sampled_from([2, 3, 4, 8, 9])), "sigma": PAIR,
         "s_iota": INT})),
})

MONOMIAL = st.tuples(COEFF, maybe(st.dictionaries(
    st.sampled_from(["x", "v", "w"]), INT, max_size=2))).map(list)
POLY = small_lists(MONOMIAL)
TOWER = st.fixed_dictionaries({
    "field": FIELD, "m": INT,
    "steps": small_lists(st.fixed_dictionaries(
        {"var": maybe(st.sampled_from(["v", "w"])), "rhs": POLY}), 2),
    "generators": small_lists(st.fixed_dictionaries(
        {"shifts": maybe(st.dictionaries(
            st.sampled_from(["v", "w"]), POLY, max_size=2))},
        optional={"name": maybe(st.sampled_from(["s", "t"]))}), 2),
})

COMMANDS = [
    (["standard-form"], COVER),
    (["jumps", "--direction", "to-upper"], FILTRATION),
    (["jumps", "--direction", "to-lower"], FILTRATION),
    (["dimension"], DIMENSION),
    (["verify", "--precision", "32"], TOWER),
]


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_every_document_gets_an_answer_or_an_error_object(data):
    args, shape = data.draw(st.sampled_from(COMMANDS))
    doc = data.draw(maybe(shape))
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 2)
    result = json.loads(out.getvalue())
    assert isinstance(result, dict)
    assert ("error" in result) == (code != 0)
    assert err.getvalue() == ""
