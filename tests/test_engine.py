"""Engine loop, record round-tripping, and the decode inverse.

The families here are deliberately tiny test doubles: a same-color-edge
family (uncolor size 1) and a distance-two-repeat family on paths whose
class index carries the middle color (uncolor size 2).  Real families get
their own test modules; these exist to pin the engine's contract.
"""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recolor.engine import (
    DecodeError,
    EngineInput,
    EventTypeMeta,
    FamilyContractError,
    PartialColoring,
    Record,
    RunStatus,
    allowedness_witness,
    decode,
    replay_colored_sets,
    run,
)
from recolor.graphs import Graph, load_graph

from _util import K3_TEXT, random_graph


class MonoEdgeFamily:
    """Bad event: the new color equals a neighbor's color; uncolor the anchor.

    The class index is the conflicting neighbor's rank in the anchor's
    index-sorted neighbor list, so rebuilding reads the surviving neighbor.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.name = "mono-edge"
        self.n_objects = g.n
        self.metas = (EventTypeMeta(1, max(1, g.max_degree), 1),)

    def next_uncolored(self, colored):
        for v in range(1, self.n_objects + 1):
            if v not in colored:
                return v
        return None

    def detect(self, coloring, v):
        for rank, u in enumerate(self.g.adj[v], start=1):
            if coloring.color_of(u) == coloring.color_of(v):
                return 1, rank
        return None

    def uncolor_set(self, j, v, colored, k):
        return (v,)

    def rebuild_event(self, j, v, colored, k, after):
        return {v: after.color_of(self.g.adj[v][k - 1])}


class DistanceTwoFamily:
    """On a path 1-2-...-n: coloring v with phi(v) == phi(v-2) while v-1 is
    colored uncolors {v-1, v}; the class index is phi(v-1), which is exactly
    what rebuilding needs (phi(v) is mirrored by the surviving v-2)."""

    def __init__(self, n: int, kappa: int):
        self.name = "distance-two"
        self.n_objects = n
        self.metas = (EventTypeMeta(1, kappa, 2),)

    def next_uncolored(self, colored):
        for v in range(1, self.n_objects + 1):
            if v not in colored:
                return v
        return None

    def detect(self, coloring, v):
        if v >= 3 and coloring.color_of(v - 1) and \
                coloring.color_of(v) == coloring.color_of(v - 2):
            return 1, coloring.color_of(v - 1)
        return None

    def uncolor_set(self, j, v, colored, k):
        return (v - 1, v)

    def rebuild_event(self, j, v, colored, k, after):
        return {v: after.color_of(v - 2), v - 1: k}


class RecordingFamily(DistanceTwoFamily):
    """`DistanceTwoFamily` logging (call, anchor, colored set) for every
    `uncolor_set` and `rebuild_event` call, and the set objects that
    `rebuild_event` received."""

    def __init__(self, n: int, kappa: int):
        super().__init__(n, kappa)
        self.calls = []
        self.rebuild_sets = []

    def uncolor_set(self, j, v, colored, k):
        self.calls.append(("uncolor", v, frozenset(colored)))
        return super().uncolor_set(j, v, colored, k)

    def rebuild_event(self, j, v, colored, k, after):
        self.calls.append(("rebuild", v, frozenset(colored)))
        self.rebuild_sets.append(colored)
        return super().rebuild_event(j, v, colored, k, after)


class OverreachingFamily(DistanceTwoFamily):
    """`DistanceTwoFamily` whose rebuild also colors the next object, which
    its event never uncolored."""

    def rebuild_event(self, j, v, colored, k, after):
        return {**super().rebuild_event(j, v, colored, k, after), v + 1: 1}


class ErasingFamily(DistanceTwoFamily):
    """`DistanceTwoFamily` whose rebuild also uncolors object 1 on the
    coloring it is handed, which it must only read."""

    def rebuild_event(self, j, v, colored, k, after):
        rebuilt = super().rebuild_event(j, v, colored, k, after)
        after.unassign(1)
        return rebuilt


class PlantingFamily(DistanceTwoFamily):
    """`DistanceTwoFamily` whose rebuild also colors the last object on the
    coloring it is handed, which it must only read."""

    def rebuild_event(self, j, v, colored, k, after):
        after.assign(self.n_objects, 1)
        return super().rebuild_event(j, v, colored, k, after)


K3 = load_graph(K3_TEXT)


class TestRunFixtures:
    def test_triangle_trace(self):
        res = run(K3, MonoEdgeFamily(K3), EngineInput(kappa=3, vector=(1, 1, 2, 2, 3)))
        assert res.status is RunStatus.COMPLETED
        assert res.steps_used == 5
        assert res.coloring.as_dict() == {1: 1, 2: 2, 3: 3}
        assert res.record.steps == (None, (1, 1), None, (1, 2), None)
        assert res.surviving_order == (1, 2, 3)

    def test_single_vertex(self):
        g = Graph(1, [])
        res = run(g, MonoEdgeFamily(g), EngineInput(kappa=1, vector=(1,)))
        assert res.status is RunStatus.COMPLETED
        assert res.record.steps == (None,)
        assert res.coloring.as_dict() == {1: 1}

    def test_one_color_on_an_edge_never_completes(self):
        g = Graph(2, [(1, 2)])
        res = run(g, MonoEdgeFamily(g), EngineInput(kappa=1, seed=0, budget=9))
        assert res.status is RunStatus.BUDGET_EXHAUSTED
        assert res.steps_used == 9
        assert res.record.steps == (None,) + ((1, 1),) * 8
        assert res.coloring.as_dict() == {1: 1}

    def test_zero_budget(self):
        res = run(K3, MonoEdgeFamily(K3), EngineInput(kappa=2, seed=5, budget=0))
        assert res.status is RunStatus.BUDGET_EXHAUSTED
        assert len(res.record) == 0
        assert decode(K3, MonoEdgeFamily(K3), res.coloring, res.record) == []

    def test_distance_two_descent(self):
        fam = DistanceTwoFamily(3, 2)
        res = run(None, fam, EngineInput(kappa=2, vector=(1, 2, 1, 2, 2)))
        assert res.record.steps == (None, None, (1, 2), None, None)
        assert res.coloring.as_dict() == {1: 1, 2: 2, 3: 2}
        assert res.status is RunStatus.COMPLETED
        assert res.surviving_order == (1, 2, 3)

    def test_levels_track_colored_set_size(self):
        fam = DistanceTwoFamily(3, 2)
        res = run(None, fam, EngineInput(kappa=2, vector=(1, 2, 1, 2, 2)))
        assert res.record.levels(fam.metas) == (1, 2, 1, 2, 3)

    def test_completion_checked_after_last_step(self):
        # the budget is exactly consumed and the target is reached: Completed
        res = run(K3, MonoEdgeFamily(K3), EngineInput(kappa=3, vector=(1, 2, 3)))
        assert res.status is RunStatus.COMPLETED
        assert res.steps_used == 3


class TestReplayAndDecode:
    def test_triangle_colored_sets(self):
        fam = MonoEdgeFamily(K3)
        res = run(K3, fam, EngineInput(kappa=3, vector=(1, 1, 2, 2, 3)))
        pairs = replay_colored_sets(fam, res.record)
        assert pairs == [(1, ()), (2, (2,)), (2, ()), (3, (3,)), (3, ())]
        colored, sets = set(), []
        for v, target in pairs:
            colored.add(v)
            colored.difference_update(target)
            sets.append(sorted(colored))
        assert sets == [[1], [1], [1, 2], [1, 2], [1, 2, 3]]

    def test_empty_record(self):
        assert replay_colored_sets(MonoEdgeFamily(K3), Record(())) == []

    def test_single_color_on_k1(self):
        g = Graph(1, [])
        pairs = replay_colored_sets(MonoEdgeFamily(g), Record((None,)))
        assert pairs == [(1, ())]

    def test_triangle_decode(self):
        fam = MonoEdgeFamily(K3)
        res = run(K3, fam, EngineInput(kappa=3, vector=(1, 1, 2, 2, 3)))
        assert decode(K3, fam, res.coloring, res.record) == [1, 1, 2, 2, 3]

    def test_distance_two_decode(self):
        fam = DistanceTwoFamily(3, 2)
        res = run(None, fam, EngineInput(kappa=2, vector=(1, 2, 1, 2, 2)))
        assert decode(None, fam, res.coloring, res.record) == [1, 2, 1, 2, 2]

    def test_rebuild_outside_the_uncolored_set(self):
        # step 3 repeats color 1 at distance two and uncolors {2, 3}
        res = run(None, DistanceTwoFamily(4, 2),
                  EngineInput(kappa=2, vector=(1, 2, 1)))
        assert res.record.steps == (None, None, (1, 2))
        with pytest.raises(DecodeError, match="step 3 gives objects"):
            decode(None, OverreachingFamily(4, 2), res.coloring, res.record)

    def test_record_too_long_for_run(self):
        with pytest.raises(DecodeError, match="longer than the run"):
            replay_colored_sets(MonoEdgeFamily(K3), Record((None,) * 4))

    def test_unknown_event_type(self):
        with pytest.raises(DecodeError, match="unknown event type"):
            replay_colored_sets(MonoEdgeFamily(K3), Record(((7, 1),)))

    def test_class_index_over_ceiling(self):
        with pytest.raises(DecodeError, match="outside"):
            replay_colored_sets(MonoEdgeFamily(K3), Record(((1, 99),)))

    def test_mismatched_final_coloring(self):
        fam = MonoEdgeFamily(K3)
        res = run(K3, fam, EngineInput(kappa=3, vector=(1, 2, 3)))
        wrong = PartialColoring(3)
        wrong.assign(1, 1)
        with pytest.raises(DecodeError, match="does not match"):
            decode(K3, fam, wrong, res.record)

    def test_refusals_by_message(self):
        # step 3 repeats color 1 at distance two and uncolors {2, 3}, so the
        # backward walk meets one event, then steps 2 and 1
        res = run(None, DistanceTwoFamily(5, 2),
                  EngineInput(kappa=2, vector=(1, 2, 1)))
        assert res.record.steps == (None, None, (1, 2))
        wrong = PartialColoring(5)
        wrong.assign(2, 1)
        with pytest.raises(DecodeError, match=re.escape(
                "final coloring does not match the record's replay")):
            decode(None, DistanceTwoFamily(5, 2), wrong, res.record)
        with pytest.raises(DecodeError, match=re.escape(
                "step 1 colored 1 but it is gone")):
            decode(None, ErasingFamily(5, 2), res.coloring, res.record)
        with pytest.raises(DecodeError, match=re.escape(
                "backward walk did not end at the empty coloring")):
            decode(None, PlantingFamily(5, 2), res.coloring, res.record)
        # the final coloring is the caller's: decode works on a copy
        assert res.coloring.as_dict() == {1: 1}

    @given(st.integers(0, 10 ** 9), st.integers(3, 15), st.integers(0, 400))
    @settings(max_examples=120, deadline=None)
    def test_seeded_roundtrip(self, seed, n, budget):
        rng = random.Random(seed)
        g = random_graph(n, 0.4, rng)
        fam = MonoEdgeFamily(g)
        inp = EngineInput(kappa=max(2, g.max_degree), seed=rng.randrange(2 ** 32),
                          budget=budget)
        res = run(g, fam, inp)
        decoded = decode(g, fam, res.coloring, res.record)
        assert tuple(decoded) == inp.make_vector()[:res.steps_used]

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=60, deadline=None)
    def test_distance_two_roundtrip(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        kappa = rng.randint(1, 3)
        fam = DistanceTwoFamily(n, kappa)
        inp = EngineInput(kappa=kappa, seed=seed, budget=rng.randint(0, 200))
        res = run(None, fam, inp)
        decoded = decode(None, fam, res.coloring, res.record)
        assert tuple(decoded) == inp.make_vector()[:res.steps_used]

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=40, deadline=None)
    def test_every_call_sees_the_colored_set_at_detection(self, seed):
        rng = random.Random(seed)
        fam = RecordingFamily(rng.randint(3, 12), 2)
        inp = EngineInput(kappa=2, seed=seed, budget=rng.randint(10, 200))
        res = run(None, fam, inp)
        in_run = list(fam.calls)
        fam.calls.clear()
        pairs = replay_colored_sets(fam, res.record)
        in_replay = list(fam.calls)
        fam.calls.clear()
        fam.rebuild_sets.clear()
        decode(None, fam, res.coloring, res.record)
        assert len({id(colored) for colored in fam.rebuild_sets}) <= 1
        in_decode = [(v, colored) for call, v, colored in fam.calls[::-1]
                     if call == "rebuild"]
        at_detection, colored = [], set()
        for v, target in pairs:
            colored.add(v)
            if target:
                at_detection.append((v, frozenset(colored)))
            colored.difference_update(target)
        assert [(v, colored) for _, v, colored in in_run] == at_detection
        assert in_replay == in_run
        assert in_decode == at_detection
        assert all(v in colored for v, colored in at_detection)


class TestListMode:
    LISTS = {1: (4, 5, 6), 2: (5, 6, 7), 3: (6, 7, 8)}

    def test_disjoint_enough_lists_never_clash(self):
        fam = MonoEdgeFamily(K3)
        res = run(K3, fam, EngineInput(kappa=3, vector=(1, 1, 2, 2, 3),
                                       lists=self.LISTS))
        assert res.record.steps == (None, None, None)
        assert res.coloring.as_dict() == {1: 4, 2: 5, 3: 7}
        assert res.status is RunStatus.COMPLETED
        assert res.steps_used == 3
        assert decode(K3, fam, res.coloring, res.record, lists=self.LISTS) == [1, 1, 2]

    def test_equal_lists_reduce_to_plain_run(self):
        fam = MonoEdgeFamily(K3)
        vec = (1, 1, 2, 2, 3)
        plain = run(K3, fam, EngineInput(kappa=3, vector=vec))
        listed = run(K3, fam, EngineInput(
            kappa=3, vector=vec, lists={v: (1, 2, 3) for v in (1, 2, 3)}))
        assert listed.record == plain.record
        assert listed.coloring.as_dict() == plain.coloring.as_dict()

    def test_list_decode_roundtrip_seeded(self):
        fam = MonoEdgeFamily(K3)
        lists = {1: (9, 2, 5), 2: (2, 9, 5), 3: (5, 2, 9)}
        inp = EngineInput(kappa=3, seed=11, budget=40, lists=lists)
        res = run(K3, fam, inp)
        decoded = decode(K3, fam, res.coloring, res.record, lists=lists)
        assert tuple(decoded) == inp.make_vector()[:res.steps_used]

    def test_duplicate_colors_in_a_list(self):
        # decode reads an index back from its color, so a repeated color
        # would decode two draws alike; the list is refused up front
        with pytest.raises(ValueError, match="object 1 holds color 5 twice"):
            EngineInput(kappa=3, seed=0, budget=30, lists={
                1: (5, 5, 7), 2: (6, 8, 9), 3: (5, 6, 7)})
        with pytest.raises(ValueError, match="object 2 holds color 1 twice"):
            EngineInput(kappa=2, vector=(2,), lists={1: (1, 2), 2: (1, 2, 1)})

    def test_short_list_rejected(self):
        fam = MonoEdgeFamily(K3)
        with pytest.raises(ValueError, match="needs >= 3"):
            run(K3, fam, EngineInput(kappa=3, vector=(1,), lists={
                1: (1, 2), 2: (1, 2, 3), 3: (1, 2, 3)}))

    def test_missing_list_rejected(self):
        fam = MonoEdgeFamily(K3)
        with pytest.raises(ValueError, match="no color list"):
            run(K3, fam, EngineInput(kappa=3, vector=(1, 1), lists={1: (1, 2, 3)}))

    def test_lists_checked_at_construction(self):
        # object 3 is never drawn here, yet its list is refused up front
        with pytest.raises(ValueError, match="object 3 has 2 colors, needs >= 3"):
            EngineInput(kappa=3, vector=(1,), lists={1: (1, 2, 3), 3: (1, 2)})
        with pytest.raises(ValueError, match="object 1 holds color 0, needs >= 1"):
            EngineInput(kappa=2, vector=(1,), lists={1: (0, 1)})

    def test_decode_refuses_a_color_outside_the_list(self):
        g = Graph(1, [])
        fam = MonoEdgeFamily(g)
        res = run(g, fam, EngineInput(kappa=2, vector=(1,), lists={1: (5, 6)}))
        with pytest.raises(DecodeError, match="color 5 not in the list of object 1"):
            decode(g, fam, res.coloring, res.record, lists={1: (6, 7)})
        with pytest.raises(DecodeError, match="color 5 not in the list of object 1"):
            decode(g, fam, res.coloring, res.record, lists={2: (5, 6)})

    def test_run_refuses_a_list_changed_below_1(self):
        # `EngineInput` checks the lists it is given; one changed afterwards
        # is refused when its color is drawn, as `assign` refuses it
        lists = {1: [1, 2], 2: [1, 2], 3: [1, 2, 3]}
        inp = EngineInput(kappa=2, vector=(1, 2, 1), lists=lists)
        lists[2][1] = 0
        with pytest.raises(ValueError, match=re.escape("bad assignment 2 <- 0")):
            run(K3, MonoEdgeFamily(K3), inp)
        lists[2][1] = -3
        with pytest.raises(ValueError, match=re.escape("bad assignment 2 <- -3")):
            run(K3, MonoEdgeFamily(K3), inp)


class TestEngineInput:
    def test_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            EngineInput(kappa=2, vector=(1,), seed=3)
        with pytest.raises(ValueError, match="exactly one"):
            EngineInput(kappa=2)

    def test_vector_fixes_budget(self):
        inp = EngineInput(kappa=2, vector=(1, 2, 1))
        assert inp.budget == 3
        with pytest.raises(ValueError, match="disagree"):
            EngineInput(kappa=2, vector=(1, 2), budget=5)

    def test_vector_entries_validated(self):
        with pytest.raises(ValueError, match="outside 1..kappa"):
            EngineInput(kappa=2, vector=(1, 3))
        with pytest.raises(ValueError, match="outside 1..kappa"):
            EngineInput(kappa=2, vector=(0,))

    def test_seed_needs_budget(self):
        with pytest.raises(ValueError, match="budget"):
            EngineInput(kappa=2, seed=1)

    def test_kappa_positive(self):
        with pytest.raises(ValueError, match="kappa"):
            EngineInput(kappa=0, vector=())

    def test_make_vector_matches_documented_stream(self):
        inp = EngineInput(kappa=4, seed=99, budget=6)
        rng = random.Random(99)
        assert inp.make_vector() == tuple(rng.randint(1, 4) for _ in range(6))
        assert inp.make_vector() == inp.make_vector()

    @pytest.mark.parametrize("kappa", list(range(1, 71)) + [
        2 ** i + d for i in range(7, 21) for d in (-1, 0, 1)])
    def test_draws_are_randint_draws(self, kappa):
        """The seeded stream equals ``randint(1, kappa)`` draw for draw, also
        at kappa just below, at and above a power of two, where the share of
        redrawn bits is smallest and largest."""
        for seed in (0, 1, 7, 2 ** 40 + 3, "stream"):
            inp = EngineInput(kappa=kappa, seed=seed, budget=200)
            rng = random.Random(seed)
            assert list(inp.draws()) == [rng.randint(1, kappa) for _ in range(200)]

    def test_draws_restart_and_stay_lazy(self):
        # a budget of 10**12 is never materialized; each call starts over
        inp = EngineInput(kappa=4, seed=99, budget=10 ** 12)
        assert next(inp.draws()) == next(inp.draws()) == random.Random(99).randint(1, 4)
        assert list(EngineInput(kappa=2, vector=(2, 1)).draws()) == [2, 1]

    def test_run_reads_the_stream_from_draws(self, monkeypatch):
        fam = MonoEdgeFamily(K3)
        monkeypatch.setattr(EngineInput, "draws", lambda self: iter((2, 2, 1, 3)))
        res = run(K3, fam, EngineInput(kappa=3, vector=(1, 1, 1, 1)))
        assert res.record.steps == (None, (1, 1), None, None)
        assert res.coloring.as_dict() == {1: 2, 2: 1, 3: 3}


class TestFamilyContract:
    def test_wrong_uncolor_size(self):
        class Bad(MonoEdgeFamily):
            def uncolor_set(self, j, v, colored, k):
                return (v, 1) if v != 1 else (v,)

        with pytest.raises(FamilyContractError, match="distinct objects"):
            run(K3, Bad(K3), EngineInput(kappa=1, seed=0, budget=5))

    def test_uncolor_set_must_contain_anchor(self):
        class Bad(MonoEdgeFamily):
            def uncolor_set(self, j, v, colored, k):
                return (next(iter(colored - {v}), v),)

        with pytest.raises(FamilyContractError, match="must contain"):
            run(K3, Bad(K3), EngineInput(kappa=1, seed=0, budget=5))

    def test_uncolor_set_value_error_is_a_contract_error(self):
        class Bad(MonoEdgeFamily):
            def uncolor_set(self, j, v, colored, k):
                raise ValueError(f"class {k} names no event")

        with pytest.raises(FamilyContractError, match="names no event"):
            run(K3, Bad(K3), EngineInput(kappa=1, seed=0, budget=5))

    def test_class_index_out_of_range(self):
        class Bad(MonoEdgeFamily):
            def detect(self, coloring, v):
                hit = super().detect(coloring, v)
                return (1, 0) if hit else None

        with pytest.raises(FamilyContractError, match="outside"):
            run(K3, Bad(K3), EngineInput(kappa=1, seed=0, budget=5))

    def test_unknown_type_emitted(self):
        class Bad(MonoEdgeFamily):
            def detect(self, coloring, v):
                hit = super().detect(coloring, v)
                return (3, 1) if hit else None

        with pytest.raises(FamilyContractError, match="unknown event type"):
            run(K3, Bad(K3), EngineInput(kappa=1, seed=0, budget=5))

    def test_type_wider_than_the_colored_set(self):
        # a type that uncolors 3 objects fires with 2 colored: refused
        # before the family is asked for the set
        class Bad(MonoEdgeFamily):
            def __init__(self, g):
                super().__init__(g)
                self.metas += (EventTypeMeta(2, 1, 3),)

            def detect(self, coloring, v):
                return (2, 1) if super().detect(coloring, v) else None

            def uncolor_set(self, j, v, colored, k):
                raise AssertionError("uncolor_set asked for an over-wide type")

        with pytest.raises(FamilyContractError,
                           match="a type 2 event at 2 uncolors 3 objects, "
                                 "but only 2 are colored"):
            run(K3, Bad(K3), EngineInput(kappa=1, seed=0, budget=5))

    @pytest.mark.parametrize("vector, picked", [((1,), 1), ((1, 2, 3), 4)],
                             ids=["colored", "out-of-range"])
    def test_pick_after_the_last_draw_is_checked(self, vector, picked):
        # the budget ends at the last draw; the pick that settles the status
        # still has to name an uncolored object in 1..n
        class Bad(MonoEdgeFamily):
            def next_uncolored(self, colored):
                if len(colored) == len(vector):
                    return picked
                return super().next_uncolored(colored)

        with pytest.raises(FamilyContractError,
                           match=f"picked invalid object {picked}$"):
            run(K3, Bad(K3), EngineInput(kappa=3, vector=vector))

    def test_detect_returning_a_list_records_a_tuple(self):
        class ListHits(MonoEdgeFamily):
            def detect(self, coloring, v):
                hit = super().detect(coloring, v)
                return list(hit) if hit else None

        fam = ListHits(K3)
        res = run(K3, fam, EngineInput(kappa=3, vector=(1, 1, 2, 2, 3)))
        assert res.record.steps == (None, (1, 1), None, (1, 2), None)
        assert all(type(step) is tuple for step in res.record.steps if step)
        assert res.record == Record.parse(res.record.to_text())[0]

    def test_next_uncolored_must_pick_uncolored(self):
        class Bad(MonoEdgeFamily):
            def next_uncolored(self, colored):
                return 1

        with pytest.raises(FamilyContractError, match="invalid object"):
            run(K3, Bad(K3), EngineInput(kappa=3, vector=(1, 2)))


class TestRecordText:
    def test_text_matches_write_statements(self):
        rec = Record((None, (1, 1), None, (1, 2), None))
        assert rec.to_text() == (
            "Color\nColor\nUncolor, Bad Event 1, 1\nColor\nColor\n"
            "Uncolor, Bad Event 1, 2\nColor\n"
        )

    def test_roundtrip_with_manifest(self):
        rec = Record((None, (2, 14), None))
        manifest = {"family": "mono-edge", "kappa": 3, "seed": 7}
        text = rec.to_text(manifest)
        back, meta = Record.parse(text)
        assert back == rec
        assert meta == {"family": "mono-edge", "kappa": "3", "seed": "7"}

    def test_uncolor_must_follow_color(self):
        with pytest.raises(DecodeError, match="must follow"):
            Record.parse("Uncolor, Bad Event 1, 1\n")
        with pytest.raises(DecodeError, match="must follow"):
            Record.parse("Color\nUncolor, Bad Event 1, 1\nUncolor, Bad Event 1, 2\n")

    def test_unrecognized_line(self):
        with pytest.raises(DecodeError, match="unrecognized"):
            Record.parse("Color\nRecolor\n")

    def test_malformed_uncolor(self):
        with pytest.raises(DecodeError, match="malformed"):
            Record.parse("Color\nUncolor, Bad Event one, 1\n")

    def test_levels_reject_descent_below_empty(self):
        rec = Record(((1, 1),))
        with pytest.raises(ValueError, match="below the empty"):
            rec.levels((EventTypeMeta(1, 5, 2),))


class TestAllowedness:
    def test_clean_run_has_no_witness(self):
        fam = MonoEdgeFamily(K3)
        res = run(K3, fam, EngineInput(kappa=3, vector=(1, 1, 2, 2, 3)))
        assert allowedness_witness(fam, res.coloring, res.surviving_order) is None

    def test_conflicting_coloring_is_caught(self):
        fam = MonoEdgeFamily(K3)
        pc = PartialColoring(3)
        pc.assign(1, 1)
        pc.assign(2, 1)
        assert allowedness_witness(fam, pc, (1, 2)) == (2, (1, 1))

    def test_order_must_cover_colored_set(self):
        fam = MonoEdgeFamily(K3)
        pc = PartialColoring(3)
        pc.assign(1, 1)
        with pytest.raises(ValueError, match="exactly the colored"):
            allowedness_witness(fam, pc, (1, 2))


class TestPartialColoring:
    def test_assign_unassign(self):
        pc = PartialColoring(4)
        pc.assign(2, 9)
        assert pc.color_of(2) == 9 and pc.colored == {2}
        pc.unassign(2)
        assert pc.color_of(2) == 0 and not pc.colored

    def test_double_assign_rejected(self):
        pc = PartialColoring(2)
        pc.assign(1, 1)
        with pytest.raises(ValueError, match="already colored"):
            pc.assign(1, 2)

    def test_unassign_uncolored_rejected(self):
        with pytest.raises(ValueError, match="not colored"):
            PartialColoring(2).unassign(1)

    def test_bounds_and_color_validation(self):
        pc = PartialColoring(2)
        with pytest.raises(ValueError):
            pc.assign(3, 1)
        with pytest.raises(ValueError):
            pc.assign(1, 0)

    def test_copy_is_independent(self):
        pc = PartialColoring(3)
        pc.assign(1, 5)
        dup = pc.copy()
        dup.assign(2, 6)
        assert pc.colored == {1} and dup.colored == {1, 2}
