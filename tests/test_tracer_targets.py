"""The benchmark tracer's targets exist in the program.

`perfbench/spans.py` wraps program functions by name: module globals
(`MODULE_TARGETS`) and family methods (`FAMILY_METHODS`, plus
`witness_rows`).  A refactor that renames or drops one breaks traced
benchmark runs (`perfbench/run.py --trace 1`) without failing anything
else, so each name is resolved here, and one instrumented run per family
must record spans of the family methods the engine calls.
"""

import importlib.util
import random
from itertools import combinations
from pathlib import Path

import pytest

from recolor.engine import EngineInput
from recolor.graphs import Graph
from recolor.planar import random_triangulation

from _util import FAMILY_CASES, assert_roundtrip

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("module, attr", [
    (module, attr) for module, attr, _, _ in spans.MODULE_TARGETS],
    ids=[f"{module.__name__}.{attr}" for module, attr, _, _ in spans.MODULE_TARGETS])
def test_module_targets_resolve(module, attr):
    assert callable(getattr(module, attr, None)), (module.__name__, attr)


@pytest.mark.parametrize("name", sorted(FAMILY_CASES))
def test_family_methods_resolve_and_trace(name):
    rng = random.Random(f"tracer {name}")
    host = random_triangulation(6, rng) if name.startswith("facial") \
        else Graph(5, combinations(range(1, 6), 2))
    fam = FAMILY_CASES[name][1](host, rng)
    methods = spans.FAMILY_METHODS + ("witness_rows",)
    for method in methods:
        assert callable(getattr(fam, method, None)), (name, method)
    tracer = spans.Tracer()
    tracer.instrument_family(fam)
    tracer.on = True
    with tracer.patched():
        assert_roundtrip(getattr(host, "graph", host), fam,
                         EngineInput(kappa=1, seed=1, budget=4 * fam.n_objects))
    # one color makes events fire; the engine keeps its own frontier, so
    # `next_uncolored` is not called
    called = {m for m in spans.FAMILY_METHODS if tracer.calls[f"families.{m}"]}
    assert {"detect", "uncolor_set", "rebuild_event"} <= called, (name, called)
