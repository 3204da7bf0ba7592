"""Acceptance gate: the headline guarantees, end to end.

Each test pins one externally meaningful behavior: exact decode inversion
across all seven families, the quoted color counts and alpha table, the
Theorem-style sweeps, record-count oracles, engine/validator closure, the
facial-edge structural invariants, and the per-anchor witness ceilings that
justify every event cost.  Tolerances are stated inline and deliberately
tight.
"""

import math
import random
import time
from collections import Counter

import pytest

from recolor.bounds import (
    QPolynomial,
    acyclic_v1_ratio,
    eval_at,
    kappa_preset,
    optimal_alpha,
    optimize_ratio,
)
from recolor.cli import main as cli_main
from recolor.engine import EngineInput, RunStatus, decode, replay_colored_sets, run
from recolor.families import (
    acyclic_gamma_family,
    acyclic_v1_family,
    acyclic_v2_family,
    facial_thue_edge_family,
    facial_thue_vertex_family,
    nonrepetitive_edge_family,
    nonrepetitive_vertex_family,
)
from recolor.planar import medial_graph, random_triangulation
from recolor.records import count_b, count_r, enumerate_records, growth_check
from recolor.validators import check_acyclic, check_nonrepetitive

from _util import (
    FAMILY_CASES,
    assert_roundtrip,
    fuzzed_instance,
    grid_embedding,
    plane_with_long_faces,
    random_graph,
)


def _connected_graph(rng, lo=4, hi=9, p=0.45):
    while True:
        g = random_graph(rng.randint(lo, hi), p, rng)
        if g.m >= g.n - 1:
            return g


def _family_kappa(fam):
    """Color count from the family's own cost polynomial; completion is then
    the theorem's regime rather than a lucky constant."""
    return optimize_ratio(QPolynomial.from_metas(fam.metas)).kappa + 1


# --- 1. decode inverts run: 1000 fuzzed triples, all families ---------------

def _fuzz_pools(rng):
    pools = []
    plain = [_connected_graph(rng) for _ in range(6)]
    pools.append([(g, acyclic_gamma_family(g, rng.choice((1, 2))))
                  for g in plain])
    pools.append([(g, acyclic_v1_family(g, rng.choice((0.225, 0.5, 1.0))))
                  for g in plain])
    pools.append([(g, acyclic_v2_family(g, 0.5)) for g in plain])
    pools.append([(g, nonrepetitive_vertex_family(g)) for g in plain])
    pools.append([(g, nonrepetitive_edge_family(g)) for g in plain])
    triangulations = [random_triangulation(rng.randint(4, 10), rng)
                      for _ in range(6)]
    pools.append([(pg.graph, facial_thue_vertex_family(pg))
                  for pg in triangulations])
    pools.append([(pg.graph, facial_thue_edge_family(
        pg, rng.randint(1, pg.graph.m))) for pg in triangulations])
    return pools


def test_decode_inverts_run_on_1000_fuzzed_triples():
    rng = random.Random(20240901)
    started = time.monotonic()
    pools = _fuzz_pools(rng)
    checked = 0
    while checked < 1000:
        g, fam = rng.choice(pools[checked % len(pools)])
        kappa = rng.choice((3, 4, 6, _family_kappa(fam)))
        budget = rng.randint(10, 120)
        lists = None
        if checked % 9 == 0:
            palette = list(range(1, kappa + 1))
            lists = {}
            for obj in range(1, fam.n_objects + 1):
                rng.shuffle(palette)
                lists[obj] = tuple(palette)
        inp = EngineInput(kappa, seed=rng.randrange(2 ** 30), budget=budget,
                          lists=lists)
        res = run(g, fam, inp)
        recovered = decode(g, fam, res.coloring, res.record, lists=lists)
        assert tuple(recovered) == inp.make_vector()[:res.steps_used]
        checked += 1
    assert checked == 1000
    assert time.monotonic() - started < 60.0


@pytest.mark.parametrize("name", FAMILY_CASES)
def test_decode_inverts_run_under_lists_from_a_wider_palette(name):
    """Each object's list is its own random sample of kappa..kappa+3
    distinct colors (at most 2 kappa) from a palette of 2 kappa, so lists
    differ between objects (the sweep above uses permutations of one
    palette); events still fire."""
    rng = random.Random(f"wide lists {name}")
    events = 0
    for _ in range(12):
        g, fam, inp = fuzzed_instance(name, rng)
        kappa = inp.kappa
        palette = range(1, 2 * kappa + 1)
        lists = {obj: tuple(rng.sample(
                     palette, rng.randint(kappa, min(kappa + 3, 2 * kappa))))
                 for obj in range(1, fam.n_objects + 1)}
        res = assert_roundtrip(g, fam, EngineInput(
            kappa, seed=inp.seed, budget=inp.budget, lists=lists))
        events += sum(step is not None for step in res.record.steps)
    assert events


# --- 2. quoted acyclic color counts through the CLI -------------------------

def _bound_rows(out):
    plain, literature = {}, {}
    for line in out.splitlines():
        parts = line.split("\t")
        if parts[0] == "literature":
            literature[parts[1]] = parts[2]
        else:
            plain[parts[0]] = parts[1]
    return plain, literature


def test_cli_reproduces_quoted_counts(capsys):
    assert cli_main(["bound", "--problem", "acyclic-v1", "--delta", "27",
                     "--alpha", "0.225"]) == 0
    rows, _ = _bound_rows(capsys.readouterr().out)
    assert rows["pinned_kappa"] == "194"
    assert cli_main(["bound", "--problem", "acyclic-v1", "--delta", "27",
                     "--alpha", "0.5"]) == 0
    rows, literature = _bound_rows(capsys.readouterr().out)
    assert rows["pinned_kappa"] == "242"
    assert literature["kostochka-stocker"] == "197"


# --- 3. the alpha table, entry by entry --------------------------------------

@pytest.mark.parametrize("delta,published", [
    (27, 0.225), (28, 0.225), (29, 0.226), (30, 0.226), (100, 0.25),
    (1000, 0.32), (10000, 0.384), (100000, 0.434), (1000000, 0.465)])
def test_alpha_table_entry(delta, published):
    # the delta=100 entry looks rounded to two decimals at the source: the
    # ratio truly attains its minimum near 0.2536, so this case stays red
    # rather than loosening the stated +-0.001
    assert optimal_alpha(delta) == pytest.approx(published, abs=1.0005e-3)


# --- 4. facial Thue edge pinned point ----------------------------------------

def test_facial_edge_exact_point_and_reserve():
    bound = kappa_preset("facial-thue-edge")
    x = (math.sqrt(17) - 3) / 4
    assert eval_at(bound.q, x) < 9.0
    assert bound.pinned.kappa == 9
    assert bound.kappa_total == 10


# --- 5. sweep against the two closed branches ---------------------------------

def test_optimized_root_stays_under_both_branches():
    # each closed branch comes from one family, so the certified color
    # count is the better of the two optimized roots
    for delta in range(24, 201):
        opt = min(kappa_preset("acyclic-v1", delta, alpha=0.5).optimized.kappa,
                  kappa_preset("acyclic-v2", delta).optimized.kappa)
        branch1 = 1.5 * delta ** (4 / 3) + 5 * delta - 14
        branch2 = 1.5 * delta ** (4 / 3) + delta \
            + 8 * delta ** (4 / 3) / (delta ** (2 / 3) - 4) + 1
        assert opt <= min(branch1, branch2) + 1, delta


def test_half_alpha_chain_flips_exactly_at_24():
    assert acyclic_v1_ratio(24, 0.5) < 1.5 * 24 ** (4 / 3) + 5 * 24 - 15
    assert acyclic_v1_ratio(23, 0.5) > 1.5 * 23 ** (4 / 3) + 5 * 23 - 15


# --- 6. record counts against exhaustive enumeration --------------------------

def test_record_series_match_enumeration_on_20_systems():
    rng = random.Random(77)
    systems = [[(1, 2)], [(1, 3)], [(1, 4)], [(1, 5)], [(1, 6)]]
    while len(systems) < 20:
        terms = [(rng.randint(1, 3), rng.randint(1, 4))
                 for _ in range(rng.randint(1, 2))]
        systems.append(terms)
    reached_12 = 0
    for terms in systems:
        r = count_r(terms, 12, 12)
        b = count_b(terms, 12)
        # enumeration is exponential in r_t; verify as far as 25k paths
        t_star = max(t for t in range(13) if r[t] <= 25_000)
        assert t_star >= 4
        if t_star == 12:
            reached_12 += 1
        for t in range(t_star + 1):
            paths = enumerate_records(terms, 12, t)
            assert len(paths) == r[t]
            sizes = [sum(terms[e[0] - 1][1] for e in p if e is not None)
                     for p in paths]
            closed = sum(1 for p, drop in zip(paths, sizes)
                         if len(p) == drop)
            assert closed == b[t]
    assert reached_12 >= 5


def test_catalan_fixture():
    assert count_b([(1, 2)], 6)[6] == 5


def test_growth_bound_on_five_presets():
    preset_terms = (
        kappa_preset("acyclic-gamma", 3, gamma=1, n=10).q.terms,
        kappa_preset("acyclic-gamma", 4, gamma=2, n=8).q.terms,
        kappa_preset("facial-thue-edge", n=8).q.terms,
        kappa_preset("nonrepetitive-vertex", 3, n=8).q.terms,
        kappa_preset("star", 3).q.terms,
    )
    for terms in preset_terms:
        assert growth_check(terms, 40).ok


# --- 7. completed runs pass the independent validators -------------------------

def _closure_sweep(instances, validate, want=100, budget=4000):
    """Validate ``want`` completed runs, cycling through the instances;
    returns how often each event type occurred in them."""
    rng = random.Random(5150)
    done = 0
    attempts = 0
    events = Counter()
    while done < want:
        attempts += 1
        assert attempts <= want * 5, "too few completed runs"
        g, fam, ctx = instances[attempts % len(instances)]
        res = run(g, fam, EngineInput(_family_kappa(fam),
                                      seed=rng.randrange(2 ** 30),
                                      budget=budget))
        if res.status is not RunStatus.COMPLETED:
            continue
        verdict = validate(g, res.coloring.as_dict(), ctx)
        assert verdict.ok, verdict.message
        events.update(step[0] for step in res.record.steps if step)
        done += 1
    assert done == want
    return events


def _plain_instances(rng, build, count=8):
    out = []
    while len(out) < count:
        g = _connected_graph(rng, lo=4, hi=8)
        out.append((g, build(g), None))
    return out


def test_closure_acyclic_gamma():
    rng = random.Random(11)
    _closure_sweep(_plain_instances(rng, lambda g: acyclic_gamma_family(g, 1)),
                   lambda g, phi, ctx: check_acyclic(g, phi))


def test_closure_acyclic_v1():
    rng = random.Random(12)
    _closure_sweep(
        _plain_instances(rng, lambda g: acyclic_v1_family(g, 0.5)),
        lambda g, phi, ctx: check_acyclic(g, phi))


def test_closure_acyclic_v2():
    rng = random.Random(13)
    _closure_sweep(
        _plain_instances(rng, lambda g: acyclic_v2_family(g, 0.5)),
        lambda g, phi, ctx: check_acyclic(g, phi))


def test_closure_nonrepetitive_vertex():
    rng = random.Random(14)
    _closure_sweep(_plain_instances(rng, nonrepetitive_vertex_family),
                   lambda g, phi, ctx: check_nonrepetitive(g, phi))


def test_closure_nonrepetitive_edge():
    rng = random.Random(15)
    _closure_sweep(
        _plain_instances(rng, nonrepetitive_edge_family),
        lambda g, phi, ctx: check_nonrepetitive(g, phi, objects="edge"))


def _facial_instances(rng, build):
    """Triangulations, where no window type can fire, then plane graphs
    with long faces and small grids, where windows of 4 and more objects
    exist: (graph, family, embedding) each.  Each family is built right
    after its host, so ``build`` may draw from ``rng`` too."""
    def hosts():
        for _ in range(8):
            yield random_triangulation(rng.randint(4, 10), rng)
        for _ in range(8):
            n = rng.randint(6, 12)
            yield plane_with_long_faces(n, rng.randint(n, 2 * n), rng)
        for a in range(3, 7):
            yield grid_embedding(a)

    return [(pg.graph, build(pg), pg) for pg in hosts()]


def test_closure_facial_vertex():
    rng = random.Random(16)
    events = _closure_sweep(
        _facial_instances(rng, facial_thue_vertex_family),
        lambda g, phi, pg: check_nonrepetitive(g, phi, facial=pg), want=300)
    assert any(events[j] for j in events if j >= 2), events


def test_closure_facial_edge():
    rng = random.Random(17)
    events = _closure_sweep(
        _facial_instances(
            rng, lambda pg: facial_thue_edge_family(pg, rng.randint(1, pg.graph.m))),
        lambda g, phi, pg: check_nonrepetitive(g, phi, objects="edge",
                                               facial=pg), want=300)
    assert any(events[j] for j in events if j >= 2), events


# --- 8. facial-edge structural invariants on triangulations --------------------

def _medial_component(medial, keep):
    start = min(keep)
    seen = {start}
    stack = [start]
    while stack:
        for w in medial[stack.pop()]:
            if w in keep and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def test_facial_edge_invariants_on_100_triangulations():
    rng = random.Random(31337)
    done = 0
    attempts = 0
    while done < 100:
        attempts += 1
        assert attempts <= 400, "too few completed triangulation runs"
        pg = random_triangulation(rng.randint(4, 12), rng)
        g = pg.graph
        e_star = rng.randint(1, g.m)
        fam = facial_thue_edge_family(pg, e_star)
        res = run(g, fam, EngineInput(12, seed=rng.randrange(2 ** 30),
                                      budget=4000))
        if res.status is not RunStatus.COMPLETED:
            continue
        # the uncolored edge set stays medially connected at every step
        medial = medial_graph(pg)
        all_edges = frozenset(range(1, g.m + 1))
        states = [frozenset()]
        for v, target in replay_colored_sets(fam, res.record):
            states.append(states[-1].union((v,)).difference(target))
        for colored in states:
            uncolored = all_edges - colored
            assert e_star in uncolored
            assert _medial_component(medial, uncolored) == uncolored
        # exactly the reserved edge stays uncolored
        assert res.coloring.colored == all_edges - {e_star}
        # one reserve color on e_star completes a facially nonrepetitive
        # edge coloring, since no window can mirror a unique color
        full = res.coloring.as_dict()
        full[e_star] = 13
        assert check_nonrepetitive(g, full, objects="edge", facial=pg)
        done += 1
    assert done == 100


# --- 9. per-anchor witness counts never exceed the event ceilings ---------------

def test_special_pair_and_cycle_ceilings_hold():
    rng = random.Random(4242)
    # witness enumeration is factorial in the cycle length, so dense
    # instances stay small; sparse larger ones still carry the longer
    # event types that only exist at higher vertex counts
    graphs = [random_graph(rng.randint(4, 8), rng.uniform(0.3, 0.75), rng)
              for _ in range(14)]
    graphs += [random_graph(rng.randint(10, 12), 0.18, rng)
               for _ in range(6)]
    for g in graphs:
        for alpha in (0.225, 0.5):
            v1 = acyclic_v1_family(g, alpha)
            v2 = acyclic_v2_family(g, alpha)
            for v in range(1, g.n + 1):
                assert len(v1.special[v]) <= v1.metas[1].cost
                assert len(v1.witness_rows(v, 3)[0]) <= v1.metas[2].cost
                assert len(v1.witness_rows(v, 4)[0]) <= v1.metas[3].cost
                assert len(v2.special[v]) <= v2.metas[1].cost
                for meta in v2.metas[2:]:
                    rows = v2.witness_rows(v, meta.type_id)[0]
                    assert len(rows) <= meta.cost


def test_repetition_path_ceilings_hold():
    rng = random.Random(2424)
    graphs = [random_graph(rng.randint(4, 8), rng.uniform(0.3, 0.7), rng)
              for _ in range(9)]
    graphs += [random_graph(rng.randint(10, 12), 0.18, rng)
               for _ in range(3)]
    for g in graphs:
        fam_v = nonrepetitive_vertex_family(g)
        for v in range(1, g.n + 1):
            for meta in fam_v.metas:
                rows = fam_v.witness_rows(v, meta.type_id)[0]
                assert len(rows) <= meta.cost
        if g.m == 0:
            continue
        fam_e = nonrepetitive_edge_family(g)
        for e in range(1, g.m + 1):
            for meta in fam_e.metas:
                rows = fam_e.witness_rows(e, meta.type_id)[0]
                assert len(rows) <= meta.cost


def test_facial_ceilings_hold():
    rng = random.Random(777)
    for trial in range(15):
        pg = random_triangulation(rng.randint(4, 12), rng)
        g = pg.graph
        fam_v = facial_thue_vertex_family(pg)
        for v in range(1, g.n + 1):
            for meta in fam_v.metas:
                rows = fam_v.witness_rows(v, meta.type_id)[0]
                assert len(rows) <= meta.cost
        fam_e = facial_thue_edge_family(pg, 1)
        medial = fam_e.medial
        for e in range(1, g.m + 1):
            for meta in fam_e.metas:
                rows = fam_e.witness_rows(e, meta.type_id)[0]
                # the class rank only counts witnesses avoiding the anchor's
                # uncolored facial neighbor e'; quantify over every e'
                for ep in medial[e]:
                    avoiding = sum(1 for row in rows if ep not in row)
                    assert avoiding <= meta.cost
