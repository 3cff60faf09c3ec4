"""The benchmark's trace hooks name functions of the library by string:
every such name must resolve, or a rename would silently zero the metric
that reads it.  bench/spans.py is loaded from its file and not changed."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from ramify import field_create
from ramify.laurent import LaurentPoly
from ramify.tower import VarPoly

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    writes = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    for layer in module.LAYERS:
        importlib.import_module(f"ramify.{layer}")
    return module


def resolve(name):
    """The object a dotted span name "layer.attr[.attr]" names."""
    layer, *path = name.split(".")
    obj = sys.modules[f"ramify.{layer}"]
    for attr in path:
        obj = getattr(obj, attr)
    return obj


class _Names:
    """A stand-in tracer that records the span names a metric reads."""

    spans: dict = {}

    def __init__(self):
        self.seen = set()

    def calls(self, name):
        self.seen.add(name)
        return 0

    self_time = calls

    def raised(self, name, exc_name):
        self.seen.add(name)
        return 0, 0.0


def test_every_hooked_name_resolves(spans):
    names = [f"{layer}.{cls}.{m}" for layer, cls, methods, _ in spans.METHODS
             for m in methods]
    names += [f"{layer}.{attr}" for layer, attrs in spans.PRIVATE.items()
              for attr in attrs]
    names += [*spans.TRANSITIONS, *spans.COMMANDS, spans.ATTEMPT]
    reader = _Names()
    for _, total in spans.PER_DOC.values():
        total(reader)
    names += sorted(reader.seen)
    for name in names:
        assert callable(resolve(name)), name
    hooked = {name for name, *_ in spans._targets()}
    assert set(names) <= hooked


def test_laurent_hooks_count_laurent_polynomials_only(spans):
    # the polynomial kernel is shared, but the hooks on LaurentPoly see
    # only LaurentPoly: the tower's VarPoly is a sibling class
    field = field_create(3, 1)
    one = field.one()
    a = LaurentPoly(field, {-1: one, 2: one})
    v = VarPoly.var(field, "v") + VarPoly.const(field, one)
    tracer = spans.Tracer()
    with spans.hooked(tracer):
        assert a * a == a ** 2
        assert v * v == v ** 2
    assert tracer.calls("laurent.LaurentPoly.__mul__") == 2
    assert "__mul__" not in vars(VarPoly)
    assert a * a == a ** 2 and tracer.calls("laurent.LaurentPoly.__mul__") == 2
