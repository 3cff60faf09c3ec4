"""Command-line front end: JSON problem documents in, JSON reports out.

Commands: standard-form, jumps, dimension, verify, quaternion-demo.  Input is
a file or '-' (stdin); output likewise.  Every emitted number is exact --
rationals appear as [numerator, denominator] pairs.  Exit codes: 0 success,
1 domain error, 2 parse/schema error, 141 when the reader closes standard
output before the document is written; failures emit a machine-readable
error object on the output channel.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import ascover, moduli, ramfilt, tower
from .errors import DomainError, SchemaError, json_int, reading
from .gf import field_create, p_power_exponent
from .laurent import prime_to_p_degree
from .ramfilt import RamFiltration, ReducedFiltration

_escape = json.encoder.encode_basestring_ascii

PROG = "ramify"
# the exit code when the reader closes standard output early, the shell's
# status for a process that SIGPIPE ends
CLOSED_PIPE_EXIT = 141
# the largest --precision `verify` accepts: series longer than this are past
# desk scale, so the request is refused before the oracle starts
PRECISION_CAP = 4096
# the most bits a `jumps` document's integers may hold, summed.  A converted
# jump is a sum of one term per break over a common denominator (the jump
# denominators times the break orders, or times the total order), and that
# denominator and each term's numerator are products of distinct inputs, or
# a difference of two such products (one bit more).  A break holds at least
# 4 bits, so there are at most 2^10, and the sum adds at most 10 bits: every
# integer a conversion emits has at most JUMPS_BITS_CAP + 11 bits, about 1240
# decimal digits, inside Python's limit of 4300 digits on printing one.
JUMPS_BITS_CAP = 4096


def _read_document(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read input: {exc}") from exc
    try:
        return json.loads(text)
    except ValueError as exc:  # also an integer literal past 4300 digits
        raise SchemaError(f"invalid JSON: {exc}") from exc


class _Encoded(tuple):
    """JSON text that _encode writes as is: the pieces of a value's text,
    encoded at the depth where it is written."""


def _encode(obj, indent: str, out: list) -> None:
    """Append to `out` the pieces of the text json.dumps(obj,
    sort_keys=True, indent=2) writes for obj, each line after the first
    indented by `indent` more; json.dumps with an indent runs its
    pure-Python encoder.  The pieces of an _Encoded value are appended as
    they are.  A type besides that, dict (str keys), list, tuple, str, int,
    bool and None raises TypeError.  No container is joined: a piece is a
    scalar's text, or a bracket or separator with its line's indent (and,
    in an object, the next key's text), so a value's text is never copied
    into its container's.  The text is the pieces in order."""
    kind = type(obj)
    if kind is str:
        out.append(_escape(obj))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif kind is _Encoded:
        out += obj
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif kind is dict:
        inner = indent + "  "
        sep = "{\n" + inner
        for k in sorted(obj):
            out.append(sep + _escape(k) + ": ")
            _encode(obj[k], inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}" if obj else "{}")
    elif kind is list or kind is tuple:
        inner = indent + "  "
        sep = "[\n" + inner
        for v in obj:
            out.append(sep)
            _encode(v, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]" if obj else "[]")
    else:
        raise TypeError(
            f"Object of type {kind.__name__} is not JSON serializable")


def _write_document(obj, path: str) -> None:
    # every piece is made before the first write, so a value that cannot be
    # encoded writes nothing
    pieces = []
    _encode(obj, "", pieces)
    pieces.append("\n")
    if path == "-":
        sys.stdout.writelines(pieces)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise SchemaError(f"cannot write output: {exc}") from exc


def _error(code: int, kind: str, message: str) -> dict:
    return {"error": {"code": code, "type": kind, "message": message}}


def _frac(x: Fraction):
    return [x.numerator, x.denominator]


# ---------------------------------------------------------------------------
# Subcommands.

def cmd_standard_form(doc) -> dict:
    cover = ascover.cover_from_json(doc)
    # the conductor and connectedness are read off the one standard form
    sf = ascover.standard_form(cover)
    out = {"standard_form": sf.to_json(),
           "conductor": prime_to_p_degree(sf) if sf else None}
    if cover.q == cover.field.p:
        out["connected"] = bool(sf)
    return out


def cmd_jumps(doc, direction: str) -> dict:
    filt = RamFiltration.from_json(doc)
    bits = sum(x.bit_length() for x in (
        filt.total_order, filt.tame,
        *(x for j, o in filt.breaks for x in (j.numerator, j.denominator, o))))
    if bits > JUMPS_BITS_CAP:
        raise DomainError(f"the integers of the document hold {bits} bits, "
                          f"past the limit {JUMPS_BITS_CAP}")
    if direction == "to-upper":
        converted = ramfilt.lower_to_upper(filt)
    else:  # to-lower: --direction takes argparse choices of these two
        converted = ramfilt.upper_to_lower(filt)
    return {
        "filtration": converted.to_json(),
        "jumps_with_multiplicity":
            [_frac(j) for j in ramfilt.jumps_with_multiplicity(converted)],
        "violations": ramfilt.validate(converted),
    }


def cmd_dimension(doc) -> dict:
    if not isinstance(doc, dict):
        raise SchemaError("a dimension document is a JSON object")
    structure = doc.get("structure") or {}
    if not isinstance(structure, dict):
        raise SchemaError("structure must be a JSON object")
    kind = structure.get("kind", "general")
    if kind not in ("general", "abelian", "reducible", "ordinary"):
        raise SchemaError(f"unknown structure kind {kind!r}")
    reduced = ReducedFiltration.from_json(doc) if "pieces" in doc else None
    abelian = None
    if kind == "abelian":
        with reading("abelian structure needs p and factors: "):
            p = json_int(structure["p"])
            factors = [[json_int(j) for j in f] for f in structure["factors"]]
        abelian = (p, factors)
    elif reduced is None:
        raise SchemaError("dimension document needs pieces (or an abelian structure)")
    return moduli.dimension(kind, reduced, abelian).to_json()


def cmd_verify(doc, precision: int) -> dict:
    if not 1 <= precision <= PRECISION_CAP:
        raise SchemaError(
            f"precision {precision} is outside the range 1..{PRECISION_CAP}")
    tw, gens = tower.tower_from_json(doc)
    run = tower.oracle_run(tw, gens, precision)
    oracle_jumps = [int(j) for j in
                    ramfilt.jumps_with_multiplicity(run.filtration)]
    analytic = tower.herbrand_lower_jumps(tw.field.p, run.pole_orders)
    agree = analytic == oracle_jumps
    out = {
        "oracle_jumps": oracle_jumps,
        "analytic_jumps": analytic,
        "agree": agree,
        "filtration": run.filtration.to_json(),
        "precision_used": run.precision,
        "genus": None,
        "p_rank": None,
    }
    if tw.m == 1 and tw.steps:
        out["genus"] = tower.genus_rh(tw.total_order, run.filtration)
        out["p_rank"] = tower.p_rank_ds(tw.wild_order, 0, [tw.wild_order])
    return out


def cmd_quaternion_demo(field_size: int, sweep: bool) -> dict:
    if field_size not in (2, 4, 16):
        raise SchemaError("field size must be one of 2, 4, 16")
    field = field_create(2, p_power_exponent(field_size, 2))
    elements = [field.from_index(i) for i in range(field_size)]
    zero = elements[0]

    def text(obj, indent):
        out = []
        _encode(obj, indent, out)
        return "".join(out)

    # A row's report depends on (a1, a2) only through their ratio
    # (tower.quaternion_fiber_ratio, found by index for a whole a1 column,
    # see _column_ratios) and not on a3, and its shape, the report without
    # its parameters, follows from tower.quaternion_fiber_shape of that
    # ratio: one of at most four.  The first fiber of each shape is
    # evaluated, and its row is encoded once, at its depth in the document
    # (in "fibers"), with a NUL (which the writer's ASCII text never holds)
    # in each "a" place, and split there.  Each element's coefficient list
    # is encoded once at its own depth (in a row's "a").  The rows of one
    # (a1, a2) are pieces: the shape's text up to a3 with the a1 and a2
    # texts spliced in (the head), then each a3 text, with the shape's tail
    # and the head again between two rows, and the tail after the last.  No
    # row is a dict or a string of its own, and the fibers text is never
    # joined.
    texts = [text(list(e.coeffs), " " * 8) for e in elements]
    a3s = texts if sweep else texts[:1]
    rows = [None] * (2 * len(a3s))  # the pieces of one (a1, a2) but the tail
    rows[1::2] = a3s
    classes = {}  # ratio index -> its shape's (text pieces, strata flags)
    shapes = {}   # shape -> (text pieces, strata flags)
    pieces = []
    strata = {"disconnected": 0, "genus1": 0, "genus2": 0}
    for a1, a1_text in zip(elements, texts):
        for a2, a2_text, ratio in zip(elements, texts, _column_ratios(a1)):
            cls = classes.get(ratio)
            if cls is None:
                shape = tower.quaternion_fiber_shape(
                    None if ratio is None else field.from_index(ratio))
                cls = shapes.get(shape)
                if cls is None:
                    fiber = tower.evaluate_quaternion_fiber(a1, a2, zero)
                    row = fiber.to_json()
                    row["a"] = [_Encoded(("\0",))] * 3
                    cls = shapes[shape] = (
                        text(row, " " * 4).split("\0"),
                        (not fiber.connected, fiber.genus == 1,
                         fiber.genus == 2))
                classes[ratio] = cls
            (before, mid1, mid2, tail), (disconnected, genus1, genus2) = cls
            head = ",\n    " + before + a1_text + mid1 + a2_text + mid2
            rows[::2] = [head] + [tail + head] * (len(a3s) - 1)
            pieces += rows
            pieces.append(tail)
            strata["disconnected"] += len(a3s) * disconnected
            strata["genus1"] += len(a3s) * genus1
            strata["genus2"] += len(a3s) * genus2
    pieces[0] = "[" + pieces[0][1:]
    pieces.append("\n  ]")
    family = _equiramified_family_check(field)
    return {"field": field_size, "count": field_size ** 2 * len(a3s),
            "fibers": _Encoded(pieces), "strata": strata, "family": family}


def _column_ratios(a1) -> list:
    """The index of tower.quaternion_fiber_ratio(a1, a2) for the a2 of each
    index, or None for every a2 when a1 = 1.  The ratio is a2 c for c =
    1/(a1 + 1), F_2-linear in a2, whose index bits are its digits: the
    index of a2 c is the XOR of those of z^i c over the bits i of the index
    of a2, so the column takes one inverse and a products."""
    field = a1.field
    c = tower.quaternion_fiber_ratio(a1, field.one())
    if c is None:
        return [None] * field.q
    out = [0]
    for i in range(field.a):
        image = field.from_index(1 << i) * c
        bits = sum(d << k for k, d in enumerate(image.coeffs))
        out += [k ^ bits for k in out]
    return out


def _equiramified_family_check(field) -> dict:
    """The a2 = 0 family from its closed form: its (q - 1) q fibers (a1 = 1
    is the disconnected column) all have ratio 0 (tower.quaternion_fiber_ratio),
    so they share one shape.  The covers that vary, the first step y^2 - y =
    (1 + a1) x^-1 and the top-step modifier y^2 - y = a3 x^-1, have q = 2 and
    F_2^* = {1}, and each is its own standard form (pole order 1 is prime to
    2): fiber (a1, a3) has the key (1 + a1, a3), and no two keys are equal.
    The fiber-by-fiber enumeration is the test oracle in
    tests/quaternion_pipeline.py."""
    shape = tower.quaternion_fiber_shape(field.zero())
    return {"size": (field.q - 1) * field.q,
            "all_jumps_1_1_3": shape == (None, 3), "pairwise_distinct": True}


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog=PROG,
        description="Ramification invariants, normal forms and moduli "
                    "dimensions for wildly ramified covers of curve germs.")
    sub = p.add_subparsers(dest="cmd", required=True)

    def io_args(sp, needs_input=True):
        if needs_input:
            sp.add_argument("--input", default="-", help="JSON file or - for stdin")
        sp.add_argument("--output", default="-", help="JSON file or - for stdout")

    sp = sub.add_parser("standard-form",
                        help="normal form, conductor and connectedness of a cover")
    io_args(sp)

    sp = sub.add_parser("jumps", help="convert a filtration between numberings")
    sp.add_argument("--direction", choices=["to-upper", "to-lower"],
                    required=True)
    io_args(sp)

    sp = sub.add_parser("dimension",
                        help="moduli dimension bounds from a reduced filtration")
    io_args(sp)

    sp = sub.add_parser("verify",
                        help="series-valuation oracle vs Herbrand's jumps "
                             "from the step conductors")
    sp.add_argument("--precision", type=int, default=200,
                    help="series precision cap for the oracle, from 1 to "
                         f"{PRECISION_CAP}")
    io_args(sp)

    sp = sub.add_parser("quaternion-demo",
                        help="the order-8 family over F_2/F_4/F_16")
    sp.add_argument("--field-size", type=int, default=16)
    sp.add_argument("--sweep", action="store_true",
                    help="sweep all parameter triples (else a3 = 0 plane)")
    io_args(sp, needs_input=False)

    return p


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    output = ns.output  # every subcommand defines --output
    try:
        if ns.cmd == "standard-form":
            result = cmd_standard_form(_read_document(ns.input))
        elif ns.cmd == "jumps":
            result = cmd_jumps(_read_document(ns.input), ns.direction)
        elif ns.cmd == "dimension":
            result = cmd_dimension(_read_document(ns.input))
        elif ns.cmd == "verify":
            result = cmd_verify(_read_document(ns.input), ns.precision)
        else:  # quaternion-demo: argparse requires one of the five commands
            result = cmd_quaternion_demo(ns.field_size, ns.sweep)
    except SchemaError as exc:
        code, result = 2, _error(2, "schema", str(exc))
    except DomainError as exc:
        code, result = 1, _error(1, "domain", str(exc))
    else:
        code = 0
    try:
        try:
            _write_document(result, output)
        except SchemaError as exc:  # the output file cannot take the document
            _write_document(_error(2, "schema", str(exc)), "-")
            return 2
    except BrokenPipeError:
        # the reader is gone: what is left to flush, at exit too, goes to the
        # null device, so the process ends without a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return CLOSED_PIPE_EXIT
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
