"""Brute-force property checkers and their agreement with each other.

These enumerate paths, cycles, and pattern embeddings directly, sharing no
code with the event detectors, so engine/validator agreement elsewhere in
the suite is real evidence.  Desk scale only: the path and cycle walks
refuse graphs beyond 14 vertices.
"""

import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recolor.engine import EngineInput, RunStatus, run
from recolor.families import acyclic_gamma_family, nonrepetitive_vertex_family
from recolor.graphs import Graph
from recolor.planar import load_rotation, random_triangulation
from recolor.validators import (
    CheckResult,
    check_acyclic,
    check_nonrepetitive,
    check_pair_forbidden,
    check_proper,
    check_r_acyclic,
    _forest_cycle,
)

from _util import (
    cycle_graph,
    facial_windows,
    path_graph,
    plane_with_long_faces,
    random_graph,
)

K3 = Graph(3, [(1, 2), (1, 3), (2, 3)])
C4 = cycle_graph(4)
P4_PATTERN = Graph(4, [(1, 2), (2, 3), (3, 4)])

C4_ROTATION = "4 4\n1: 2 4\n2: 3 1\n3: 4 2\n4: 1 3\n"
K3_ROTATION = "3 3\n1: 2 3\n2: 1 3\n3: 1 2\n"


def _random_coloring(g, colors, rng):
    return {v: rng.randint(1, colors) for v in range(1, g.n + 1)}


# --- proper ----------------------------------------------------------------

def test_proper_accepts_rainbow_triangle():
    assert check_proper(K3, {1: 1, 2: 2, 3: 3})


def test_proper_rejects_with_edge_witness():
    res = check_proper(K3, {1: 1, 2: 1, 3: 2})
    assert not res
    assert res.witness == (1, 2)
    assert "monochromatic" in res.message


def test_proper_ignores_uncolored_vertices():
    assert check_proper(K3, {2: 1})
    assert check_proper(K3, {})


def test_check_result_truthiness():
    assert bool(CheckResult(True, None, "ok"))
    assert not bool(CheckResult(False, (1, 2), "bad"))


# --- acyclic ---------------------------------------------------------------

def test_acyclic_rejects_bicolored_c4():
    res = check_acyclic(C4, {1: 1, 2: 2, 3: 1, 4: 2})
    assert not res
    assert res.witness == (1, 2, 3, 4)
    assert res.message == "colors 1,2 induce the cycle (1, 2, 3, 4)"


def test_acyclic_accepts_three_colored_c4():
    assert check_acyclic(C4, {1: 1, 2: 2, 3: 1, 4: 3})


def test_acyclic_accepts_any_proper_tree_coloring():
    rng = random.Random(5)
    for n in range(2, 10):
        edges = [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]
        g = Graph(n, edges)
        phi = {}
        for v in range(1, n + 1):
            used = {phi.get(u) for u in g.adj[v]}
            phi[v] = min(c for c in range(1, n + 2) if c not in used)
        assert check_acyclic(g, phi)


def test_acyclic_reports_proper_failure_first():
    res = check_acyclic(C4, {1: 1, 2: 1, 3: 2, 4: 2})
    assert not res
    assert "monochromatic" in res.message


def _acyclic_over_all_color_pairs(g, phi):
    """check_acyclic as a loop over every pair of colors used, the first
    pair in ascending order whose classes induce a cycle."""
    proper = check_proper(g, phi)
    if not proper:
        return proper
    classes = {}
    for v in range(1, g.n + 1):
        if phi.get(v, 0):
            classes.setdefault(phi[v], set()).add(v)
    colors = sorted(classes)
    for i, a in enumerate(colors):
        for b in colors[i + 1:]:
            cyc = _forest_cycle(classes[a] | classes[b], g)
            if cyc is not None:
                return CheckResult(False, cyc,
                                   f"colors {a},{b} induce the cycle {cyc}")
    return CheckResult(True, None, "ok")


def test_acyclic_witness_matches_the_all_pairs_loop():
    """Visiting only the color pairs an edge joins keeps the first witness:
    fuzzed colorings, some partial, on up to 14 vertices, many rejected."""
    rng = random.Random(2027)
    rejected = 0
    for _ in range(1500):
        g = random_graph(rng.randint(2, 14), rng.uniform(0.15, 0.6), rng)
        k = rng.randint(2, 6)
        phi = {v: rng.randint(0 if rng.random() < 0.2 else 1, k)
               for v in range(1, g.n + 1)}
        got = check_acyclic(g, phi)
        assert got == _acyclic_over_all_color_pairs(g, phi), (g.edges, phi)
        rejected += not got
    assert rejected > 300, rejected


def test_acyclic_on_a_long_rainbow_path_skips_unjoined_pairs():
    """A path colored 1..n has n - 1 joined color pairs among n(n-1)/2, and
    checking it takes linear work, not a forest search per pair."""
    n = 2000
    g = path_graph(n)
    start = time.perf_counter()
    assert check_acyclic(g, {v: v for v in range(1, n + 1)})
    assert time.perf_counter() - start < 0.5


def test_acyclic_on_a_long_lollipop_meets_the_parent_chains_once():
    """A path 1..n/2 ending in an even cycle on n/2+1..n, two-colored: the
    two parent chains climbed from the closing edge hold about n and n/2
    vertices, and finding where they meet takes linear work."""
    n = 16000
    h = n // 2
    g = Graph(n, [(i, i + 1) for i in range(1, n)] + [(h + 1, n)])
    start = time.perf_counter()
    res = check_acyclic(g, {v: v % 2 + 1 for v in range(1, n + 1)})
    elapsed = time.perf_counter() - start
    assert not res and sorted(res.witness) == list(range(h + 1, n + 1))
    assert elapsed < 0.5, elapsed


def test_acyclic_on_a_matching_into_one_class_buckets_the_pairs():
    """A perfect matching from 1..h, all color 1, to h+1..2h, colored
    2..h+1: h joined color pairs, each holding one edge, and checking them
    takes near-linear work, not a forest search over the large class per
    pair."""
    n = 8000
    h = n // 2
    g = Graph(n, [(i, i + h) for i in range(1, h + 1)])
    phi = {v: 1 if v <= h else v - h + 1 for v in range(1, n + 1)}
    start = time.perf_counter()
    res = check_acyclic(g, phi)
    elapsed = time.perf_counter() - start
    assert res
    assert elapsed < 0.5, elapsed


# --- nonrepetitive ---------------------------------------------------------

def test_nonrepetitive_rejects_abab_path():
    res = check_nonrepetitive(P4_PATTERN, {1: 1, 2: 2, 3: 1, 4: 2})
    assert not res
    assert res.witness == (1, 2, 3, 4)
    assert res.message == "repetition on (1, 2, 3, 4)"


def test_nonrepetitive_accepts_aba_path():
    assert check_nonrepetitive(path_graph(3), {1: 1, 2: 2, 3: 1})


def test_nonrepetitive_edge_mode():
    p5 = path_graph(5)
    res = check_nonrepetitive(p5, {1: 1, 2: 2, 3: 1, 4: 2}, objects="edge")
    assert not res
    assert res.witness == (1, 2, 3, 4)
    assert res.message == "edge repetition on (1, 2, 3, 4)"
    assert check_nonrepetitive(p5, {1: 1, 2: 2, 3: 3, 4: 1}, objects="edge")


def cycle_embedding(n):
    """C_n embedded in the plane: two faces of n vertices."""
    return load_rotation(f"{n} {n}\n" + "".join(
        f"{v}: {v % n + 1} {(v - 2) % n + 1}\n" for v in range(1, n + 1)))


def broom_embedding(leaves, n, rng=None):
    """K_{1,leaves} whose last leaf grows a path to n vertices, embedded with
    rotations shuffled by ``rng``: one face walking every edge both ways,
    revisiting the center at every other step."""
    edges = [(1, v) for v in range(2, leaves + 2)] \
        + [(v, v + 1) for v in range(leaves + 1, n)]
    rot = {v: [] for v in range(1, n + 1)}
    for a, b in edges:
        rot[a].append(b)
        rot[b].append(a)
    if rng is not None:
        for nbrs in rot.values():
            rng.shuffle(nbrs)
    return load_rotation(f"{n} {len(edges)}\n" + "".join(
        f"{v}: {' '.join(map(str, rot[v]))}\n" for v in range(1, n + 1)))


def test_nonrepetitive_facial_scope():
    pg = load_rotation(C4_ROTATION)
    assert check_nonrepetitive(pg.graph, {1: 1, 2: 2, 3: 3, 4: 2}, facial=pg)
    res = check_nonrepetitive(pg.graph, {1: 1, 2: 2, 3: 1, 4: 2}, facial=pg)
    assert not res
    assert res.message == "facial repetition on (1, 2, 3, 4)"


def test_nonrepetitive_facial_edge_scope():
    pg = load_rotation(K3_ROTATION)
    ok = check_nonrepetitive(pg.graph, {1: 1, 2: 2, 3: 3},
                             objects="edge", facial=pg)
    assert ok
    # edges 1 and 3 meet at vertex 2 on a face, an ab ab edge repetition
    res = check_nonrepetitive(pg.graph, {1: 1, 2: 2, 3: 1},
                              objects="edge", facial=pg)
    assert not res
    assert res.witness == (1, 3)


def test_nonrepetitive_facial_scope_ignores_the_vertex_order():
    # the embedding's graph keeps the index order; g's order differs
    g = Graph(3, [(1, 2), (2, 3), (1, 3)], order=[3, 1, 2])
    pg = load_rotation(K3_ROTATION)
    assert check_nonrepetitive(g, {1: 1, 2: 2, 3: 3}, facial=pg)
    assert not check_nonrepetitive(g, {1: 1, 2: 2, 3: 1},
                                   objects="edge", facial=pg)


def test_nonrepetitive_rejections():
    with pytest.raises(ValueError, match="objects must be"):
        check_nonrepetitive(K3, {}, objects="face")
    with pytest.raises(ValueError, match="does not match"):
        check_nonrepetitive(C4, {}, facial=load_rotation(K3_ROTATION))
    big = path_graph(15)
    with pytest.raises(ValueError, match="refusing path enumeration"):
        check_nonrepetitive(big, {})
    # the facial scope is bounded by face sizes, so no guard applies there


def test_facial_scope_handles_large_cycles():
    n = 30
    pg = cycle_embedding(n)
    phi = {v: (0, 1, 0, 2)[v % 4] + 1 for v in range(1, n + 1)}
    assert check_nonrepetitive(pg.graph, phi, facial=pg) is not None


def test_facial_scope_equals_the_window_enumeration():
    """The in-place facial check gives the verdict and witness of the first
    repeating even window of the reference enumeration, on triangulations,
    on embeddings with long faces and on stars and brooms, whose one face
    revisits the center, with 0 to 12 colors (0 uncolored)."""
    rng = random.Random("facial scope")
    found = 0
    for _ in range(3000):
        n = rng.randint(3, 12)
        kind = rng.random()
        if kind < 0.4:
            pg = random_triangulation(n, rng)
        elif kind < 0.8:
            pg = plane_with_long_faces(n, rng.randint(n, 2 * n), rng)
        else:
            pg = broom_embedding(rng.randint(2, n - 1), n, rng)
        objects = rng.choice(("vertex", "edge"))
        count = pg.graph.m if objects == "edge" else n
        kappa = rng.randint(0, 12)
        phi = {x: rng.randint(0, kappa) for x in range(1, count + 1)}
        want = next((w for w in facial_windows(pg, edges=objects == "edge")
                     if len(w) % 2 == 0 and all(phi[x] for x in w)
                     and [phi[x] for x in w[:len(w) // 2]]
                     == [phi[x] for x in w[len(w) // 2:]]), None)
        res = check_nonrepetitive(pg.graph, phi, objects, facial=pg)
        assert (res.ok, res.witness) == (want is None, want), pg.to_text()
        found += want is not None
    assert 300 < found < 2700, found


@pytest.mark.parametrize("objects", ["vertex", "edge"])
def test_facial_scope_on_a_large_star_is_linear(objects):
    # K_{1,400}: one face of 800 darts, where windows of many sizes repeat
    # in color but only windows of two objects are simple, and those do
    # not repeat.  Comparing the halves of windows that revisit the center
    # took 2-4 s.  The reference enumeration agrees here but is cubic in
    # the face, so `test_facial_scope_equals_the_window_enumeration`
    # compares with it on small stars.
    pg = broom_embedding(400, 401)
    if objects == "vertex":
        phi = {v: 1 if v == 1 else 2 for v in range(1, 402)}
    else:
        phi = {e: e % 2 + 1 for e in range(1, 401)}
    start = time.perf_counter()
    res = check_nonrepetitive(pg.graph, phi, objects, facial=pg)
    assert time.perf_counter() - start < 0.5
    assert (res.ok, res.witness) == (True, None)


def test_facial_scope_on_a_long_face_stays_small():
    # two faces of 200 vertices, all colors distinct: no window repeats,
    # and the check holds no window set
    pg = cycle_embedding(200)
    phi = {v: v for v in range(1, 201)}
    tracemalloc.start()
    try:
        assert check_nonrepetitive(pg.graph, phi, facial=pg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


# --- r-acyclic ---------------------------------------------------------------

def test_r_acyclic_rainbow_c5():
    c5 = cycle_graph(5)
    assert check_r_acyclic(c5, {v: v for v in range(1, 6)}, 5)


def test_r_acyclic_rejects_three_colored_c6():
    c6 = cycle_graph(6)
    res = check_r_acyclic(c6, {1: 1, 2: 2, 3: 3, 4: 1, 5: 2, 6: 3}, 4)
    assert not res
    assert res.witness == (1, 2, 3, 4, 5, 6)
    assert res.message == "cycle (1, 2, 3, 4, 5, 6) shows 3 colors, needs 4"


def test_r_acyclic_short_cycles_capped_by_length():
    # a triangle can never show more than 3 colors; r above 3 is fine
    assert check_r_acyclic(K3, {1: 1, 2: 2, 3: 3}, 7)


def test_r_acyclic_guards():
    with pytest.raises(ValueError, match="r must be positive"):
        check_r_acyclic(K3, {}, 0)
    with pytest.raises(ValueError, match="refusing cycle enumeration"):
        check_r_acyclic(random_graph(15, 0.3, random.Random(0)), {}, 3)


def test_r3_agrees_with_acyclic_on_fuzzed_pairs():
    rng = random.Random(99)
    agreements = 0
    for _ in range(200):
        g = random_graph(rng.randint(3, 8), rng.uniform(0.2, 0.8), rng)
        phi = _random_coloring(g, rng.randint(2, 4), rng)
        assert check_r_acyclic(g, phi, 3).ok == check_acyclic(g, phi).ok
        agreements += 1
    assert agreements == 200


# --- pair-forbidden ----------------------------------------------------------

def test_pair_forbidden_c4_pattern():
    res = check_pair_forbidden(C4, {1: 1, 2: 2, 3: 1, 4: 2}, C4)
    assert not res
    assert res.message == "colors 1,2 contain the pattern via (1, 2, 3, 4)"


def test_pair_forbidden_vacuous_when_pattern_is_larger():
    assert check_pair_forbidden(K3, {1: 1, 2: 2, 3: 3}, P4_PATTERN)


def test_pair_forbidden_guards():
    with pytest.raises(ValueError, match="bipartite"):
        check_pair_forbidden(C4, {}, K3)
    with pytest.raises(ValueError, match="at least one edge"):
        check_pair_forbidden(C4, {}, Graph(2, []))
    big_pattern = path_graph(9)
    with pytest.raises(ValueError, match="pattern too large"):
        check_pair_forbidden(C4, {}, big_pattern)
    with pytest.raises(ValueError, match="refusing subgraph enumeration"):
        check_pair_forbidden(random_graph(15, 0.2, random.Random(1)), {},
                             P4_PATTERN)


def _induced_pairs_are_star_forests(g, phi):
    colors = sorted(set(phi.values()))
    for i, a in enumerate(colors):
        for b in colors[i + 1:]:
            keep = {v for v in range(1, g.n + 1) if phi.get(v) in (a, b)}
            edges = [(u, v) for u, v in g.edges if u in keep and v in keep]
            adj = {v: set() for v in keep}
            for u, v in edges:
                adj[u].add(v)
                adj[v].add(u)
            seen = set()
            for start in keep:
                if start in seen:
                    continue
                comp, stack = {start}, [start]
                while stack:
                    for w in adj[stack.pop()]:
                        if w not in comp:
                            comp.add(w)
                            stack.append(w)
                seen |= comp
                comp_edges = sum(1 for u, v in edges
                                 if u in comp and v in comp)
                if comp_edges != len(comp) - 1:
                    return False  # a cycle
                if sum(1 for v in comp if len(adj[v]) >= 2) > 1:
                    return False  # two centers make a 4-vertex path
    return True


def test_pair_forbidden_p4_matches_star_forest_characterization():
    rng = random.Random(21)
    for _ in range(150):
        g = random_graph(rng.randint(4, 8), rng.uniform(0.2, 0.7), rng)
        phi = _random_coloring(g, rng.randint(2, 5), rng)
        expect = (check_proper(g, phi).ok
                  and _induced_pairs_are_star_forests(g, phi))
        assert check_pair_forbidden(g, phi, P4_PATTERN).ok == expect


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_pair_forbidden_finds_planted_patterns(seed):
    rng = random.Random(seed)
    g = random_graph(8, 0.35, rng)
    # plant a bicolored path on four vertices when one exists
    phi = {v: 3 for v in range(1, 9)}
    planted = None
    for a in range(1, 9):
        for b in g.adj[a]:
            for c in g.adj[b]:
                if c == a:
                    continue
                for d in g.adj[c]:
                    if d not in (a, b):
                        planted = (a, b, c, d)
                        break
                if planted:
                    break
            if planted:
                break
        if planted:
            break
    if planted is None:
        return
    phi[planted[0]] = phi[planted[2]] = 1
    phi[planted[1]] = phi[planted[3]] = 2
    assert not check_pair_forbidden(g, phi, P4_PATTERN)


# --- engine closure smoke (full sweep lives in the acceptance suite) --------

def test_completed_runs_pass_their_validator():
    rng = random.Random(7)
    passed = 0
    for seed in range(40):
        g = random_graph(rng.randint(4, 8), 0.4, rng)
        fam = acyclic_gamma_family(g, 1)
        res = run(g, fam, EngineInput(20, seed=seed, budget=4000))
        if res.status is not RunStatus.COMPLETED:
            continue
        assert check_acyclic(g, res.coloring.as_dict())
        passed += 1
    assert passed > 30


def test_completed_nonrepetitive_run_passes():
    g = path_graph(6)
    fam = nonrepetitive_vertex_family(g)
    res = run(g, fam, EngineInput(30, seed=3, budget=5000))
    assert res.status is RunStatus.COMPLETED
    assert check_nonrepetitive(g, res.coloring.as_dict())
