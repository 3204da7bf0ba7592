"""Differential tests of the row types `detect` ranks a hit in.

A family's `fired(coloring, v)` must yield, ascending, exactly the row
types j whose row scan over `witness_rows(v, j)` finds a bad row: the
acyclic and nonrepetitive families search colored paths, the facial
families test the windows through the anchor in place.  `detect`, which
ranks only the first type fired, must equal detection as it was before the
searches: enumerate every type's rows, then scan them.  Colorings use two
or three colors on most objects, so the long types fire too.  One search
per start neighbor or start pair serves every type.
"""

import random
from collections import Counter

import pytest

import recolor.families.acyclic
from recolor.engine import EngineInput, PartialColoring, replay_colored_sets
from recolor.families import (
    acyclic_gamma_family,
    acyclic_v1_family,
    acyclic_v2_family,
    nonrepetitive_vertex_family,
)
from recolor.errors import FamilyContractError
from recolor.graphs import Graph
from recolor.families.acyclic import first_bicolored, first_equal
from recolor.families.base import Repetition, first_repetition
from recolor.planar import medial_graph

from _util import (
    FAMILY_CASES,
    assert_roundtrip,
    plane_with_long_faces,
    prism_graph,
    random_graph,
)

EXAMPLES = 300

# family on plain graphs -> (vertex count range, edge probability range, the
# first row type, the lowest type above the first that a fuzz run must see
# fire); graphs stay small because the oracle enumerates every witness of
# every type
PLAIN = {
    "acyclic-gamma": ((6, 10), (0.2, 0.5), 2, 3),
    "acyclic-v1": ((6, 12), (0.2, 0.5), 3, 4),
    "acyclic-v2": ((6, 10), (0.2, 0.5), 3, 4),
    "nonrepetitive-vertex": ((4, 9), (0.2, 0.6), 1, 2),
    "nonrepetitive-edge": ((4, 7), (0.2, 0.6), 1, 2),
}

# facial family -> (vertex count range, edge-deletion range as multiples of
# n, the first window type, the lowest type above the first that a fuzz run
# must see fire); the deletions merge faces, so long windows exist
FACIAL = {
    "facial-thue-vertex": ((6, 14), (1, 2), 2, 3),
    "facial-thue-edge": ((6, 12), (1, 2), 2, 3),
}

CASES = {**PLAIN, **FACIAL}


def row_types(fam, name):
    """Every type from the family's first row type on, which must be
    exactly the types past its candidate tables."""
    assert CASES[name][2] == len(fam.tables) + 1, (name, len(fam.tables))
    return [m.type_id for m in fam.metas if m.type_id >= CASES[name][2]]


def scan_finds(fam, coloring, v, j) -> bool:
    """Whether the row scan over every type-j witness finds a bad one."""
    width, kernel = row_scan(fam, j)
    return kernel(coloring.colors, fam.witness_rows(v, j)[1], width) >= 0


def row_scan(fam, j):
    """(row width, scan kernel) of a type-j row: 2j objects read twice, or
    uncolor_size + 2 objects alternating two colors."""
    u = fam.metas[j - 1].uncolor_size
    if fam.shape is Repetition:
        return 2 * u, first_repetition
    return u + 2, first_bicolored


def reference_detect(fam, coloring, v):
    """`detect` before the searches: the candidate tables, then every row
    type's witnesses enumerated and scanned in type order.  A facial edge
    hit is ranked among the rows avoiding the anchor's smallest-index
    uncolored neighbor in the medial graph; that family's type 1 is read
    as rows too, so its medial candidate table is checked, never used."""
    colors = coloring.colors
    tables = () if fam.name == "facial-thue-edge" else fam.tables
    for j, table in enumerate(tables, start=1):
        idx = first_equal(colors, colors[v], table[v])
        if idx >= 0:
            return j, idx + 1
    for meta in fam.metas[len(tables):]:
        j = meta.type_id
        width, kernel = row_scan(fam, j)
        if width > len(coloring.colored):
            break
        rows, flat = fam.witness_rows(v, j)
        if rows:
            idx = kernel(colors, flat, width)
            if idx >= 0 and fam.name == "facial-thue-edge":
                ep = min(u for u in medial_graph(fam.pg)[v]
                         if u not in coloring.colored)
                classes = [row for row in rows if ep not in row]
                return j, classes.index(rows[idx]) + 1
            if idx >= 0:
                return j, idx + 1
    return None


def planted(fam, name, v, kappa, rng, spare):
    """Colors of one random witness of a random row type through v that
    avoids the objects in ``spare``, colored as a bad event of that type;
    {} when v has no such witness."""
    j = rng.choice(row_types(fam, name))
    rows = [row for row in fam.witness_rows(v, j)[0] if spare.isdisjoint(row)]
    if not rows:
        return {}
    row = rng.choice(rows)
    if fam.shape is Repetition:
        half = [rng.randint(1, kappa) for _ in range(j)]
        return dict(zip(row, half + half))
    a, b = rng.sample(range(1, kappa + 1), 2)
    return {x: (a, b)[i % 2] for i, x in enumerate(row)}


def fuzzed_colorings(name: str, rng: random.Random):
    """(family, coloring, colored anchor) with kappa 2 or 3.  Half of the
    colorings carry a planted bad witness of a row type through the anchor,
    and half color the other objects properly (no two adjacent alike, edges
    adjacent when they share a vertex, or in the facial edge family when
    they are consecutive on a face), so the long types fire and the type-1
    event often stays quiet.  A facial edge anchor keeps one medial
    neighbor uncolored, as it always has one in a run."""
    (n_lo, n_hi), (lo, hi), _, _ = CASES[name]
    if name in FACIAL:
        n = rng.randint(n_lo, n_hi)
        host = plane_with_long_faces(n, rng.randint(lo * n, hi * n), rng)
        g = host.graph
    else:
        host = g = random_graph(rng.randint(n_lo, n_hi), rng.uniform(lo, hi), rng)
        while not g.m:
            host = g = random_graph(g.n, hi, rng)
    fam = FAMILY_CASES[name][1](host, rng)
    if name == "nonrepetitive-edge":
        ends = [()] + list(g.edges)
        adjacent = [[f for f in range(1, g.m + 1) if f != e
                     and set(ends[e]) & set(ends[f])] for e in range(g.m + 1)]
    elif name == "facial-thue-edge":
        adjacent = fam.medial
    else:
        adjacent = g.adj
    kappa = rng.choice((2, 3))
    v = rng.randint(1, fam.n_objects)
    spare = {rng.choice(adjacent[v])} if name == "facial-thue-edge" else set()
    pc = PartialColoring(fam.n_objects)
    for x, c in (planted(fam, name, v, kappa, rng, spare)
                 if rng.random() < 0.5 else {}).items():
        pc.assign(x, c)
    dense = rng.uniform(0.6, 1.0)
    proper = rng.random() < 0.5
    for x in rng.sample(range(1, fam.n_objects + 1), fam.n_objects):
        if x in pc.colored or x in spare or (x != v and rng.random() >= dense):
            continue
        taken = {pc.colors[y] for y in adjacent[x]} if proper else ()
        free = [c for c in range(1, kappa + 1) if c not in taken]
        pc.assign(x, rng.choice(free or range(1, kappa + 1)))
    return fam, pc, v


@pytest.mark.parametrize("name", sorted(CASES))
def test_search_fires_exactly_when_the_scan_finds_a_row(name):
    rng = random.Random(f"search {name}")
    fired = Counter()
    for _ in range(EXAMPLES):
        fam, pc, v = fuzzed_colorings(name, rng)
        got = list(fam.fired(pc, v))
        assert got == sorted(set(got)), (name, pc.as_dict(), v, got)
        assert set(got) <= set(row_types(fam, name)), (name, got)
        for j in row_types(fam, name):
            want = scan_finds(fam, pc, v, j)
            assert (j in got) == want, (name, pc.as_dict(), v, j)
            fired[j] += want
    assert any(fired[j] for j in fired if j >= CASES[name][3]), fired


def test_a_fired_type_whose_scan_misses_is_a_contract_error():
    """`detect` ranks the first type `fired` yields and never falls through
    to a later one: on the path 1-2-3-4 colored 1 2 3 1 no type-2 row
    repeats, so a `fired` that yields type 2 there breaks the contract."""
    fam = nonrepetitive_vertex_family(Graph(4, [(1, 2), (2, 3), (3, 4)]))
    pc = PartialColoring(4)
    for v, c in zip((1, 2, 3, 4), (1, 2, 3, 1)):
        pc.assign(v, c)
    assert fam.detect(pc, 4) is None
    fam.fired = lambda coloring, v: (2,)
    with pytest.raises(FamilyContractError, match="type 2 fired at 4"):
        fam.detect(pc, 4)


@pytest.mark.parametrize("name", sorted(CASES))
def test_detect_equals_enumerate_then_scan(name):
    rng = random.Random(f"detect {name}")
    hits = Counter()
    for _ in range(EXAMPLES):
        fam, pc, v = fuzzed_colorings(name, rng)
        got = fam.detect(pc, v)
        assert got == reference_detect(fam, pc, v), (name, pc.as_dict(), v)
        hits[got and got[0]] += 1
    assert any(hits[j] for j in hits if j and j >= CASES[name][3]), hits


@pytest.mark.parametrize("name", ["acyclic-gamma", "acyclic-v1", "acyclic-v2"])
def test_starts_are_the_declared_paths_that_alternate(name):
    """A search starts from exactly the declared start paths (`_paths`)
    that are fully colored and alternate two distinct colors, in the
    declared order; vertex orders are shuffled so the orientation of each
    start pair follows the rank, not the index."""
    rng = random.Random(f"starts {name}")
    kept = 0
    for _ in range(EXAMPLES):
        fam, pc, v = fuzzed_colorings(name, rng)
        order = list(fam.g.order)
        rng.shuffle(order)
        fam = FAMILY_CASES[name][1](Graph(fam.g.n, fam.g.edges, order=order), rng)
        colors = pc.colors
        want = [path for path in fam._paths(v)
                if all(colors[x] for x in path) and colors[path[0]] != colors[path[1]]
                and all(colors[x] == colors[path[i % 2]] for i, x in enumerate(path))]
        assert [tuple(path) for path in fam._starts(pc, v)] == want, (name, v)
        kept += len(want)
    assert kept, name


@pytest.mark.parametrize("make, starts, searched", [
    (lambda g: acyclic_gamma_family(g, 1), lambda d: d, True),
    (lambda g: acyclic_v1_family(g, 0.5), lambda d: d * (d - 1) // 2, False),
    (lambda g: acyclic_v2_family(g, 0.5), lambda d: d * (d - 1) // 2, False),
], ids=["gamma", "v1", "v2"])
def test_one_search_per_start_per_detect(monkeypatch, make, starts, searched):
    """Every detect lists its start paths once and searches each start
    neighbor (gamma) or start pair (v1, v2) at most once, however many of
    the types fit the colored set.  On the prism the special event of v1
    and v2 keeps most anchor pairs apart in color, so their searches seldom
    start."""
    g = prism_graph(500)
    fam = make(g)
    calls, total = Counter(), Counter()

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(recolor.families.acyclic, "alternating_widths", counted(
        "searches", recolor.families.acyclic.alternating_widths))
    fam._starts = counted("starts", fam._starts)
    detect = fam.detect

    def checked_detect(coloring, v):
        calls.clear()
        got = detect(coloring, v)
        assert calls["starts"] <= 1, (v, calls)
        assert calls["searches"] <= starts(len(g.adj[v])), (v, calls)
        total.update(calls)
        return got

    fam.detect = checked_detect
    res = assert_roundtrip(g, fam, EngineInput(kappa=5, seed=1, budget=4 * g.n))
    assert total["starts"] and (total["searches"] or not searched), total
    assert any(step and step[0] == 2 for step in res.record.steps)


def random_regular(n, d, rng):
    """A random simple d-regular graph on n vertices: configuration-model
    pairings, redrawn until none has a loop or a repeated edge."""
    stubs = [v for v in range(1, n + 1) for _ in range(d)]
    while True:
        rng.shuffle(stubs)
        edges = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2])}
        if len(edges) == len(stubs) // 2 and all(a != b for a, b in edges):
            return Graph(n, edges)


@pytest.mark.parametrize("make", [acyclic_v1_family, acyclic_v2_family],
                         ids=["v1", "v2"])
def test_square_rows_are_enumerated_only_for_square_events(make):
    """The special-pair square is searched: after a run and its decode, the
    memo holds an anchor's type-3 witness list only where the record has a
    type-3 event at that anchor.  At Delta = 4, alpha 0.1 leaves S(v) empty,
    so squares fire; at alpha 0.5 most square antipodes are special."""
    rng = random.Random(f"square memo {make.__name__}")
    events = 0
    for alpha in (0.1, 0.5) * 6:
        g = random_regular(rng.choice((10, 12, 14)), 4, rng)
        fam = make(g, alpha)
        inp = EngineInput(kappa=rng.randint(4, 5), seed=rng.randrange(2 ** 31),
                          budget=20 * g.n)
        res = assert_roundtrip(g, fam, inp)
        memo = {v for v, j in fam._rows if j == 3}
        square = {v for (v, _), step in zip(replay_colored_sets(fam, res.record),
                                            res.record.steps)
                  if step and step[0] == 3}
        assert memo <= square, (sorted(memo - square), g.edges, inp)
        events += len(square)
    assert events, "no run had a square event"
