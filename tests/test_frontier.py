"""Per-run frontiers agree with `next_uncolored`, their specification.

Every family's frontier is wrapped so that each pick, in `run` and in the
replay inside `decode`, is compared with `next_uncolored` of the colored set
the frontier has been told about.
"""

import random
from collections import Counter

import pytest

from recolor.engine import (
    EngineInput,
    EventTypeMeta,
    decode,
    frontier_of,
    replay_colored_sets,
    run,
)
from recolor.families import MedialConnectivityError, facial_thue_edge_family
from recolor.families.facial import _LeafFrontier
from recolor.graphs import Graph
from recolor.planar import load_rotation, random_triangulation

from _util import FAMILY_CASES, fuzzed_instance, plane_with_long_faces, random_graph

P4_ROT = "4 3\n1: 2\n2: 1 3\n3: 2 4\n4: 3\n"
TWO_EDGES_ROT = "4 2\n1: 2\n2: 1\n3: 4\n4: 3\n"


class Checked:
    """Family proxy whose frontiers check every pick against the spec."""

    def __init__(self, fam):
        self.fam = fam
        self.picks = 0

    def __getattr__(self, name):
        return getattr(self.fam, name)

    def frontier(self):
        return CheckedFrontier(self)


class CheckedFrontier:
    def __init__(self, proxy: Checked):
        self.proxy = proxy
        self.inner = frontier_of(proxy.fam)
        self.colored: set[int] = set()

    def pick(self):
        v = self.inner.pick()
        assert v == self.proxy.fam.next_uncolored(frozenset(self.colored))
        self.proxy.picks += 1
        return v

    def took(self, v):
        self.colored.add(v)
        self.inner.took(v)

    def released(self, target):
        self.colored.difference_update(target)
        self.inner.released(target)


class ReverseMonoEdge:
    """Duck-typed family without a frontier: colors the highest-index
    uncolored vertex first and uncolors it on a same-colored neighbor."""

    name = "reverse-mono-edge"

    def __init__(self, g: Graph):
        self.g = g
        self.n_objects = g.n
        self.metas = (EventTypeMeta(1, max(1, g.max_degree), 1),)

    def next_uncolored(self, colored):
        return max((v for v in range(1, self.n_objects + 1) if v not in colored),
                   default=None)

    def detect(self, coloring, v):
        for rank, u in enumerate(self.g.adj[v], start=1):
            if coloring.color_of(u) == coloring.color_of(v):
                return 1, rank
        return None

    def uncolor_set(self, j, v, colored, k):
        return (v,)

    def rebuild_event(self, j, v, colored, k, after):
        return {v: after.color_of(self.g.adj[v][k - 1])}


def checked_roundtrip(g, fam, inp):
    """Run and decode through a checking proxy; every step picks once in the
    run and once in the replay."""
    proxy = Checked(fam)
    res = run(g, proxy, inp)
    values = decode(g, proxy, res.coloring, res.record)
    assert tuple(values) == inp.make_vector()[: res.steps_used]
    assert proxy.picks >= 2 * res.steps_used
    return res


@pytest.mark.parametrize("name", sorted(FAMILY_CASES))
def test_frontier_agrees_with_next_uncolored(name):
    rng = random.Random(f"frontier {name}")
    for _ in range(15):
        checked_roundtrip(*fuzzed_instance(name, rng))


def test_duck_typed_family_uses_next_uncolored():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng.randint(2, 12), 0.4, rng)
        fam = ReverseMonoEdge(g)
        assert not hasattr(fam, "frontier")
        res = checked_roundtrip(g, fam, EngineInput(
            max(2, g.max_degree), seed=rng.randrange(2 ** 31), budget=10 * g.n))
        if res.steps_used:
            assert replay_colored_sets(fam, res.record)[0] == (g.n, ())


def test_facial_edge_frontier_rebuilds_on_long_faces(monkeypatch):
    # windows of 2j >= 4 edges need faces of length >= 5: the resulting
    # type >= 2 events release more than the leaf just taken, so the tree is
    # rebuilt; on triangulations only type 1 fires, which uncolors the leaf
    # alone and is reported to no frontier
    rebuilds = Counter()
    rebuild = _LeafFrontier._rebuild

    def counting(self):
        rebuilds["calls"] += 1
        rebuild(self)

    rng = random.Random(11)
    events = Counter()
    expected = 0
    while events["wide"] < 20:
        pg = plane_with_long_faces(rng.randint(6, 14), 40, rng)
        fam = facial_thue_edge_family(pg, rng.randint(1, pg.graph.m))
        inp = EngineInput(
            rng.randint(2, 4), seed=rng.randrange(2 ** 31), budget=20 * pg.graph.m)
        checked_roundtrip(pg.graph, fam, inp)
        # counted on plain calls, since `next_uncolored`, which the checking
        # proxy asks at every pick, rebuilds a fresh frontier each time
        with monkeypatch.context() as patch:
            patch.setattr(_LeafFrontier, "_rebuild", counting)
            res = run(pg.graph, fam, inp)
            decode(pg.graph, fam, res.coloring, res.record)
        wide = [s is not None and s[0] >= 2 for s in res.record.steps]
        events["wide"] += sum(wide)
        events["leaf"] += sum(s is not None for s in res.record.steps) - sum(wide)
        # the run rebuilds at its first pick and at the pick after each wide
        # event; so does the replay inside decode, which makes no pick
        # after its last step
        expected += 2 + 2 * sum(wide) - wide[-1]
    assert events["leaf"] > 0
    assert rebuilds["calls"] == expected


def test_medial_connectivity_errors_surface_through_run():
    # a failed search leaves no leaf tree behind, so every run raises
    fam = facial_thue_edge_family(load_rotation(TWO_EDGES_ROT), 1)
    for _ in range(2):
        with pytest.raises(MedialConnectivityError, match="disconnected"):
            run(None, fam, EngineInput(5, seed=1, budget=10))
        with pytest.raises(MedialConnectivityError, match="disconnected"):
            run(None, fam, EngineInput(5, seed=1, budget=0))
        assert fam.leaf_tree is None


def test_building_a_facial_edge_family_searches_nothing(monkeypatch):
    calls = []
    monkeypatch.setattr(_LeafFrontier, "_rebuild", lambda self: calls.append(self))
    pg = plane_with_long_faces(12, 20, random.Random("no search"))
    fam = facial_thue_edge_family(pg, 1)
    fam.frontier()
    assert calls == [] and fam.leaf_tree is None


@pytest.mark.parametrize("long_faces", [False, True],
                         ids=["triangulation", "long-faces"])
def test_runs_on_one_family_match_runs_on_fresh_ones(long_faces):
    """The first search of the all-uncolored state leaves its leaf tree on
    the family (`leaf_tree`), and every later frontier copies it: runs in a
    row on one family, with `next_uncolored` asked between them, give the
    records and final colorings of runs on fresh families."""
    rng = random.Random(f"one family {long_faces}")
    events = Counter()
    for _ in range(10):
        n = rng.randint(5, 14)
        pg = (plane_with_long_faces(n, 2 * n, rng) if long_faces
              else random_triangulation(n, rng))
        e_star = rng.randint(1, pg.graph.m)
        shared = facial_thue_edge_family(pg, e_star)
        for i in range(3):
            if i == 1:
                assert shared.leaf_tree is not None
                assert shared.next_uncolored(set()) == \
                    facial_thue_edge_family(pg, e_star).next_uncolored(set())
            inp = EngineInput(rng.randint(2, 5), seed=rng.randrange(2 ** 31),
                              budget=rng.randint(0, 20 * pg.graph.m))
            res = run(pg.graph, shared, inp)
            fresh = facial_thue_edge_family(pg, e_star)
            want = run(pg.graph, fresh, inp)
            assert res.record == want.record
            assert res.coloring.as_dict() == want.coloring.as_dict()
            assert res.status == want.status
            assert shared.next_uncolored(res.coloring.colored) == \
                fresh.next_uncolored(want.coloring.colored)
            values = decode(pg.graph, shared, res.coloring, res.record)
            assert tuple(values) == inp.make_vector()[: res.steps_used]
            events.update("wide" if step[0] > 1 else "leaf"
                          for step in res.record.steps if step is not None)
    # wide events rebuild the tree mid-run from a partly colored state
    assert events["leaf"] and bool(events["wide"]) == long_faces, events


def test_leaf_frontier_rebuild_checks_connectivity():
    # on the path the medial graph is 1 - 2 - 3: releasing 3 after taking
    # 3 then 2 is not an undo, and leaves {1, 3} disconnected
    fam = facial_thue_edge_family(load_rotation(P4_ROT), 1)
    frontier = fam.frontier()
    assert frontier.pick() == 3
    frontier.took(3)
    assert frontier.pick() == 2
    frontier.took(2)
    assert frontier.pick() is None
    frontier.released((3,))
    with pytest.raises(MedialConnectivityError, match="disconnected"):
        frontier.pick()


def test_leaf_frontier_undo_restores_the_tree():
    fam = facial_thue_edge_family(load_rotation(P4_ROT), 1)
    frontier = fam.frontier()
    assert frontier.pick() == 3
    frontier.took(3)
    frontier.released((3,))  # edge 2 has a child again
    assert frontier.pick() == 3
    frontier.took(3)
    assert frontier.pick() == 2
    frontier.took(2)
    frontier.released((2,))
    assert frontier.pick() == 2
    frontier.took(2)
    frontier.released((2,))
    frontier.released((3,))
    assert frontier.pick() == 3
