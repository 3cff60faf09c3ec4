"""Spans and counters hooked onto the ramify modules from outside.

The traced run replaces functions and methods of the loaded ramify modules
with wrappers and restores them afterwards; nothing under src/ changes.  A
module-level function is replaced wherever it is bound, so names re-bound by
`from .x import y` (tower.compose, tower.standard_form_poly, the package
namespace) are hooked where they are looked up.

A span records calls, inclusive time and self time (its duration minus the
time its child spans cover), and, per exception type, how many calls raised
and how long they took.  The finite-field operations run 10^4 to 10^6 times
per document, so they get bare counters: timing each call would measure the
wrapper instead.  The multivariate vp_* helpers of tower are left unhooked
and run inside their callers' spans.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager

LAYERS = ("gf", "laurent", "ascover", "ramfilt", "moduli", "series", "tower",
          "cli")

# (module, class, methods, mode); class methods are hooked on the class.
METHODS = (
    ("gf", "FieldElement", ("__mul__", "__add__", "__sub__", "inverse"), "count"),
    ("gf", "Field", ("__eq__",), "count"),
    ("laurent", "LaurentPoly", ("__add__", "__sub__", "__neg__", "__mul__",
                                "__pow__", "scale", "frobenius_power"), "span"),
    ("series", "TruncatedSeries", ("__add__", "__sub__", "__neg__", "__mul__",
                                   "scale", "inverse", "__pow__"), "span"),
)
# Private helpers that get spans: the oracle phases and the CLI's I/O.
PRIVATE = {
    "tower": ("_oracle_attempt", "_expand_tower", "_peel", "_solve_unit",
              "_check_generators", "_uniformizer_image"),
    "cli": ("_read_document", "_write_document"),
}
UNHOOKED_PREFIX = "tower.vp_"


class Tracer:
    """Span and counter totals, kept in memory for one traced phase."""

    def __init__(self):
        self.spans: dict[str, list] = {}     # name -> [calls, total_s, self_s]
        self.errors: dict[tuple, list] = {}  # (name, exception) -> [calls, total_s]
        self.counts: dict[str, list] = {}    # name -> [calls]
        self._stack: list[float] = []        # child time of each open span

    def span(self, name, fn):
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        errors, stack, clock = self.errors, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                err = errors.setdefault((name, type(exc).__name__), [0, 0.0])
                err[0] += 1
                err[1] += clock() - t0
                raise
            finally:
                dt = clock() - t0
                child = stack.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                if stack:
                    stack[-1] += dt
        return wrapper

    def counter(self, name, fn):
        box = self.counts.setdefault(name, [0])

        def wrapper(*args):
            box[0] += 1
            return fn(*args)
        return wrapper

    # -- reading ---------------------------------------------------------------

    def calls(self, name) -> int:
        if name in self.counts:
            return self.counts[name][0]
        return self.spans.get(name, [0])[0]

    def self_time(self, name) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[2]

    def raised(self, name, exc_name) -> tuple[int, float]:
        return tuple(self.errors.get((name, exc_name), (0, 0.0)))

    def table(self) -> dict:
        """Every span and counter, for the run's detail line."""
        out = {name: {"calls": c, "total_s": t, "self_s": s}
               for name, (c, t, s) in sorted(self.spans.items())}
        out.update({name: {"calls": c} for name, (c,) in sorted(self.counts.items())})
        for (name, exc), (c, t) in sorted(self.errors.items()):
            out[name].setdefault("raised", {})[exc] = {"calls": c, "total_s": t}
        return out


def _targets():
    """(span name, owner, attribute, mode) for every hook."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"ramify.{layer}"]
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (not inspect.isfunction(obj) or obj.__module__ != mod.__name__
                    or name.startswith(UNHOOKED_PREFIX)
                    or attr.startswith("_") and attr not in PRIVATE.get(layer, ())):
                continue
            out.append((name, mod, attr, "span"))
    for layer, cls_name, methods, mode in METHODS:
        cls = getattr(sys.modules[f"ramify.{layer}"], cls_name)
        out.extend((f"{layer}.{cls_name}.{m}", cls, m, mode) for m in methods)
    return out


@contextmanager
def hooked(tracer: Tracer):
    """Install the tracer's wrappers on the loaded ramify modules."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "ramify" or name.startswith("ramify."))]
    patches = []
    try:
        for name, owner, attr, mode in _targets():
            original = getattr(owner, attr)
            make = tracer.span if mode == "span" else tracer.counter
            wrapper = make(name, original)
            if inspect.isclass(owner):
                patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, bound, original))
                        setattr(mod, bound, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics, normalised per traced document.

TRANSITIONS = ("ramfilt.herbrand_phi", "ramfilt.herbrand_psi",
               "ramfilt.lower_to_upper", "ramfilt.upper_to_lower")
COMMANDS = ("cli.cmd_standard_form", "cli.cmd_jumps", "cli.cmd_dimension",
            "cli.cmd_verify", "cli.cmd_quaternion_demo")
ATTEMPT = "tower._oracle_attempt"


def _attempt_ratio(t: Tracer) -> float:
    attempts = t.calls(ATTEMPT)
    failed = sum(c for (name, _), (c, _) in t.errors.items() if name == ATTEMPT)
    return (attempts - failed) / attempts if attempts else 0.0


# name -> (unit, total over the traced documents); reported per document
PER_DOC = {
    "tower.expand_s": ("s/doc", lambda t: t.self_time("tower._expand_tower")),
    "tower.unit_solve_s": ("s/doc", lambda t: t.self_time("tower._solve_unit")),
    "tower.check_generators_s": ("s/doc", lambda t: t.self_time("tower._check_generators")),
    "tower.close_group_s": ("s/doc", lambda t: t.self_time("tower.close_group")),
    "tower.uniformizer_images_s": ("s/doc", lambda t: t.self_time("tower._uniformizer_image")),
    "tower.oracle_attempts": ("attempts/doc", lambda t: t.calls(ATTEMPT)),
    "tower.precision_retries": ("retries/doc", lambda t: t.raised(ATTEMPT, "PrecisionError")[0]),
    "tower.wasted_attempt_s": ("s/doc", lambda t: t.raised(ATTEMPT, "PrecisionError")[1]),
    "tower.fiber_eval_s": ("s/doc", lambda t: t.self_time("tower.evaluate_quaternion_fiber")),
    "series.compose_calls": ("calls/doc", lambda t: t.calls("series.compose")),
    "series.compose_s": ("s/doc", lambda t: t.self_time("series.compose")),
    "series.mul_calls": ("calls/doc", lambda t: t.calls("series.TruncatedSeries.__mul__")),
    "series.mul_s": ("s/doc", lambda t: t.self_time("series.TruncatedSeries.__mul__")),
    "series.inverse_calls": ("calls/doc", lambda t: t.calls("series.TruncatedSeries.inverse")),
    "series.inverse_s": ("s/doc", lambda t: t.self_time("series.TruncatedSeries.inverse")),
    "gf.mul_calls": ("calls/doc", lambda t: t.calls("gf.FieldElement.__mul__")),
    "gf.add_calls": ("calls/doc", lambda t: t.calls("gf.FieldElement.__add__")
                     + t.calls("gf.FieldElement.__sub__")),
    "gf.inverse_calls": ("calls/doc", lambda t: t.calls("gf.FieldElement.inverse")),
    "gf.field_eq_calls": ("calls/doc", lambda t: t.calls("gf.Field.__eq__")),
    "laurent.mul_calls": ("calls/doc", lambda t: t.calls("laurent.LaurentPoly.__mul__")),
    "laurent.ops_s": ("s/doc", lambda t: sum(s for name, (_, _, s) in t.spans.items()
                                             if name.startswith("laurent."))),
    "ascover.standard_form_calls": ("calls/doc", lambda t: t.calls("ascover.standard_form_poly")),
    "ascover.standard_form_s": ("s/doc", lambda t: t.self_time("ascover.standard_form_poly")),
    "ascover.is_isomorphic_calls": ("calls/doc", lambda t: t.calls("ascover.is_isomorphic")),
    "ascover.is_isomorphic_s": ("s/doc", lambda t: t.self_time("ascover.is_isomorphic")),
    "ramfilt.transition_calls": ("calls/doc", lambda t: sum(t.calls(n) for n in TRANSITIONS)),
    "ramfilt.transition_s": ("s/doc", lambda t: sum(t.self_time(n) for n in TRANSITIONS)),
    "moduli.n_count_calls": ("calls/doc", lambda t: t.calls("moduli.n_count")),
    "moduli.n_count_s": ("s/doc", lambda t: t.self_time("moduli.n_count")),
    "cli.build_parser_s": ("s/doc", lambda t: t.self_time("cli.build_parser")),
    "cli.read_s": ("s/doc", lambda t: t.self_time("cli._read_document")),
    "cli.write_s": ("s/doc", lambda t: t.self_time("cli._write_document")),
    "cli.command_s": ("s/doc", lambda t: sum(t.self_time(n) for n in COMMANDS)),
}
RATIOS = ("tower.useful_attempt_ratio", "trace.overhead_ratio")
LAYER_METRICS = tuple(PER_DOC) + RATIOS


def layer_metrics(tracer: Tracer, docs: int, untraced_wall: float,
                  traced_wall: float) -> dict:
    """Every per-layer metric.  The attempt ratio is 0 when no oracle ran."""
    out = {name: {"value": total(tracer) / docs, "unit": unit}
           for name, (unit, total) in PER_DOC.items()}
    out["tower.useful_attempt_ratio"] = {"value": _attempt_ratio(tracer),
                                         "unit": "ratio"}
    out["trace.overhead_ratio"] = {"value": traced_wall / untraced_wall,
                                   "unit": "ratio"}
    return out
