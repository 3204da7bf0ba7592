"""The public result and input types, pinned as values.

Eleven exported classes carry the library's results and inputs.  Each is
built positionally and by keyword with the same outcome, prints the exact
`repr` below (the preset digest in `test_bounds.py` hashes `repr` of
`RatioResult`), compares and hashes by value, survives `copy` and
`pickle`, and, except `RunResult`, refuses assignment to its fields.  The
three classes that check their fields raise the same `ValueError`s, also
from `_replace` and `_make`, which build through `__new__` as a call does.
"""

import copy
import math
import pickle

import pytest

from recolor.bounds import (
    CharacteristicSystem,
    ClosedTail,
    PresetBound,
    QPolynomial,
    RatioResult,
)
from recolor.engine import EngineInput, EventTypeMeta, Record, RunResult, RunStatus
from recolor.records import GrowthReport
from recolor.validators import CheckResult

TAIL = "ClosedTail(fn=<built-in function abs>, dfn=<built-in function abs>, radius=1.0)"
RATIO = "RatioResult(x=0.5, ratio=3.0, kappa=3, root_residual=0.0, boundary=False)"
POLY = "QPolynomial(terms=((2.0, 1), (3.5, 2)), tail=None)"


def ratio():
    return RatioResult(0.5, 3.0, 3, 0.0)


def poly():
    return QPolynomial(((2, 1), (3.5, 2)))


# name -> (positional build, keyword build, a different value, repr)
CASES = {
    "ClosedTail": (
        lambda: ClosedTail(abs, abs, 1.0),
        lambda: ClosedTail(fn=abs, dfn=abs, radius=1.0),
        lambda: ClosedTail(abs, abs, 2.0),
        TAIL),
    "QPolynomial": (
        poly,
        lambda: QPolynomial(terms=[(2.0, 1.0), (3.5, 2)], tail=None),
        lambda: QPolynomial((), ClosedTail(abs, abs, 1.0)),
        POLY),
    "RatioResult": (
        ratio,
        lambda: RatioResult(x=0.5, ratio=3.0, kappa=3, root_residual=0.0,
                            boundary=False),
        lambda: RatioResult(0.5, 3.0, 3, 0.0, True),
        RATIO),
    "CharacteristicSystem": (
        lambda: CharacteristicSystem(2, 0.25, 1.0, 0.5, 0.0),
        lambda: CharacteristicSystem(d=2, r=0.25, s=1.0, x=0.5, residual=0.0),
        lambda: CharacteristicSystem(1, 0.25, 1.0, 0.5, 0.0),
        "CharacteristicSystem(d=2, r=0.25, s=1.0, x=0.5, residual=0.0)"),
    "PresetBound": (
        lambda: PresetBound("star", ratio(), ratio(), poly()),
        lambda: PresetBound(problem="star", pinned=ratio(), optimized=ratio(),
                            q=poly(), literature={}, kappa_total=None),
        lambda: PresetBound("star", ratio(), ratio(), poly(), {"a": 1}, 4),
        f"PresetBound(problem='star', pinned={RATIO}, optimized={RATIO}, "
        f"q={POLY}, literature={{}}, kappa_total=None)"),
    "GrowthReport": (
        lambda: GrowthReport(True, 2.0, 3.0, (0.5,)),
        lambda: GrowthReport(ok=True, base=2.0, prefactor=3.0, trajectory=(0.5,)),
        lambda: GrowthReport(False, 2.0, 3.0, (0.5,)),
        "GrowthReport(ok=True, base=2.0, prefactor=3.0, trajectory=(0.5,))"),
    "EventTypeMeta": (
        lambda: EventTypeMeta(1, 2.0, 1),
        lambda: EventTypeMeta(type_id=1, cost=2.0, uncolor_size=1),
        lambda: EventTypeMeta(1, 2.0, 2),
        "EventTypeMeta(type_id=1, cost=2.0, uncolor_size=1)"),
    "Record": (
        lambda: Record(((1, 2), None)),
        lambda: Record(steps=((1, 2), None)),
        lambda: Record((None, (1, 2))),
        "Record(steps=((1, 2), None))"),
    "EngineInput": (
        lambda: EngineInput(3, [1, 2]),
        lambda: EngineInput(kappa=3, vector=(1, 2), budget=2),
        lambda: EngineInput(3, seed=1, budget=2),
        "EngineInput(kappa=3, vector=(1, 2), seed=None, budget=2, lists=None)"),
    "RunResult": (
        lambda: RunResult("phi", Record(()), RunStatus.COMPLETED, 0),
        lambda: RunResult(coloring="phi", record=Record(()),
                          status=RunStatus.COMPLETED, steps_used=0,
                          surviving_order=()),
        lambda: RunResult("phi", Record(()), RunStatus.COMPLETED, 0, (1,)),
        "RunResult(coloring='phi', record=Record(steps=()), "
        "status=<RunStatus.COMPLETED: 'Completed'>, steps_used=0, "
        "surviving_order=())"),
    "CheckResult": (
        lambda: CheckResult(False, (1, 2), "bad"),
        lambda: CheckResult(ok=False, witness=(1, 2), message="bad"),
        lambda: CheckResult(True, None, "ok"),
        "CheckResult(ok=False, witness=(1, 2), message='bad')"),
}

# a dict field makes these unhashable, as it always has
UNHASHABLE = {"PresetBound"}
MUTABLE = {"RunResult"}


@pytest.mark.parametrize("name", CASES)
def test_positional_and_keyword_builds_print_the_same_repr(name):
    build, by_keyword, _, text = CASES[name]
    assert repr(build()) == repr(by_keyword()) == text


@pytest.mark.parametrize("name", CASES)
def test_values_compare_and_hash_by_value(name):
    build, by_keyword, other, _ = CASES[name]
    assert build() == by_keyword() and not build() != by_keyword()
    assert build() != other() and not build() == other()
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(build())
    elif name not in MUTABLE:
        assert hash(build()) == hash(by_keyword())
        assert len({build(), by_keyword(), other()}) == 2


@pytest.mark.parametrize("name", CASES)
def test_copy_and_pickle_keep_the_value(name):
    build = CASES[name][0]
    value = build()
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("name", sorted(set(CASES) - MUTABLE))
def test_frozen_fields_refuse_assignment(name):
    value = CASES[name][0]()
    field = repr(value).split("(", 1)[1].split("=", 1)[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == CASES[name][3]


def test_defaults():
    assert ratio().boundary is False
    assert poly().tail is None
    bound = CASES["PresetBound"][0]()
    assert bound.literature == {} and bound.kappa_total is None
    # every bound owns its literature dict
    assert bound.literature is not CASES["PresetBound"][0]().literature
    seeded = EngineInput(2, seed=7, budget=0)
    assert (seeded.vector, seeded.lists) == (None, None)
    assert CASES["RunResult"][0]().surviving_order == ()


def test_normalized_fields():
    assert poly().terms == ((2.0, 1), (3.5, 2))
    assert [type(x) for term in poly().terms for x in term] == [float, int] * 2
    listed = EngineInput(3, vector=[1, 3, 2])
    assert listed.vector == (1, 3, 2) and listed.budget == 3
    assert listed.make_vector() == (1, 3, 2)


def test_record_length_is_its_step_count():
    assert len(Record(((1, 2), None, None))) == 3
    assert not Record(())
    assert Record((None,)).levels([EventTypeMeta(1, 2.0, 1)]) == (1,)


def test_check_result_truth_is_ok():
    assert not CheckResult(False, (1, 2), "bad")
    assert CheckResult(True, None, "ok")


@pytest.mark.parametrize("terms, tail, message", [
    (((0, 1),), None, "coefficients must be positive, got 0.0"),
    (((-2, 1),), None, "coefficients must be positive, got -2.0"),
    (((1.0, 0),), None, "sizes must be positive integers, got 0"),
    ((), None, "need at least one term or a tail"),
])
def test_qpolynomial_refusals(terms, tail, message):
    with pytest.raises(ValueError) as err:
        QPolynomial(terms, tail)
    assert str(err.value) == message


@pytest.mark.parametrize("args, message", [
    ((0, 2.0, 1), "type_id must be >= 1"),
    ((1, 0.5, 1), "cost must be >= 1"),
    ((1, math.nan, 1), "cost must be >= 1"),
    ((1, 2.0, 0), "uncolor_size must be >= 1"),
])
def test_event_type_meta_refusals(args, message):
    with pytest.raises(ValueError) as err:
        EventTypeMeta(*args)
    assert str(err.value) == message


@pytest.mark.parametrize("kwargs, message", [
    ({"kappa": 0, "seed": 1, "budget": 1}, "kappa must be >= 1"),
    ({"kappa": 2}, "supply exactly one of vector and seed"),
    ({"kappa": 2, "vector": (1,), "seed": 1},
     "supply exactly one of vector and seed"),
    ({"kappa": 2, "vector": [1, 3, 0, 5]},
     "vector entries outside 1..kappa: [3, 0, 5]"),
    ({"kappa": 2, "vector": (1, 2), "budget": 3},
     "budget and vector length disagree"),
    ({"kappa": 2, "seed": 1}, "seeded input needs a budget >= 0"),
    ({"kappa": 2, "seed": 1, "budget": -1}, "seeded input needs a budget >= 0"),
])
def test_engine_input_refusals(kwargs, message):
    with pytest.raises(ValueError) as err:
        EngineInput(**kwargs)
    assert str(err.value) == message


# `_replace` builds through `_make`; both must go through `__new__`
@pytest.mark.parametrize("build, change, message", [
    (lambda: EngineInput(3, seed=0, budget=5),
     {"lists": {1: (5, 5, 7)}, "kappa": 0}, "kappa must be >= 1"),
    (lambda: EngineInput(3, seed=0, budget=5),
     {"lists": {1: (5, 5, 7)}}, "list for object 1 holds color 5 twice"),
    (poly, {"terms": ((-1.0, 0),)}, "coefficients must be positive, got -1.0"),
    (lambda: EventTypeMeta(1, 2.0, 1), {"cost": 0.0}, "cost must be >= 1"),
], ids=["EngineInput-kappa", "EngineInput-lists", "QPolynomial",
        "EventTypeMeta"])
def test_replace_and_make_refuse_what_new_refuses(build, change, message):
    value = build()
    with pytest.raises(ValueError) as err:
        value._replace(**change)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        type(value)._make({**value._asdict(), **change}.values())
    assert str(err.value) == message


@pytest.mark.parametrize("name", [
    "EngineInput", "EventTypeMeta", "QPolynomial", "PresetBound"])
def test_replace_and_make_build_through_new(name):
    build, by_keyword, other, _ = CASES[name]
    value = build()
    assert type(value)._make(value) == value == by_keyword()
    assert type(type(value)._make(value)) is type(value)
    changed = value._replace(**other()._asdict())
    assert changed == other() and type(changed) is type(value)


def test_replace_gives_a_preset_bound_its_default_literature():
    bound = CASES["PresetBound"][2]()
    assert bound._replace(literature=None).literature == {}
    # `__new__` normalizes what `_make` gets, as it does a direct build
    assert QPolynomial._make([[(2, 1.0)], None]).terms == ((2.0, 1),)
