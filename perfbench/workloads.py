"""The four benchmark workloads: seeded inputs, timed passes, correctness gates.

A workload turns `--seed` into generated input text once, then runs timed
passes over the same inputs.  Each pass logs, per (phase, instance), the
seconds spent; the benchmark aggregates each instance over passes and
sums over instances (`run.phase_totals`).  Phases are

- ``setup``: input text to a ready family (or, on `series`, a cold start of
  the CLI module);
- ``main``: `engine.run` (engine workloads) or the `count-records` calls
  (`series`);
- ``post``: `engine.decode` (engine workloads) or the bound sweep (`series`).

Every operation is checked after it is timed; see `engine_gate` and
`Series`.  A pass also feeds a SHA-256 digest of everything it produced
(records, final colorings, exact record counts, bound results) and a set of
exact counters, which must repeat across passes and runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import recolor.cli
from recolor.bounds import PROBLEMS, kappa_preset, optimal_alpha
from recolor.engine import EngineInput, RunStatus, allowedness_witness, decode, run
from recolor.families import (
    acyclic_gamma_family,
    acyclic_v1_family,
    acyclic_v2_family,
    facial_thue_edge_family,
    facial_thue_vertex_family,
    nonrepetitive_edge_family,
    nonrepetitive_vertex_family,
)
from recolor.graphs import load_graph
from recolor.planar import load_rotation
from recolor.validators import check_acyclic, check_nonrepetitive

from gen import regular_graph_text, rng_for, triangulation_text
from spans import NullTracer

SRC = Path(__file__).resolve().parent.parent / "src"

# The all-paths validators refuse graphs above this many vertices.
VALIDATOR_CAP = 14

# Input sizes.  `tiny` is for the self-test: same code paths, seconds total.
SIZES = {
    "full": {
        "v1-large": {"n": 2400},
        # many small instances: one instance's cost swings by 20-40% with
        # its graph and stream, a sum over 22 of them by a few percent
        "enum-cold": {
            "nonrepetitive-vertex": (14, 14, 14, 14),
            "nonrepetitive-edge": (12, 12, 12, 12, 12, 12),
            "acyclic-gamma": (20, 20, 22, 22),
            "acyclic-v2": (20, 20, 22, 22),
            "facial-thue-vertex": (150, 150, 150, 150),
        },
        "facial-warm": {"n": 200, "streams": 16},
        "series": {"full_tmax": 200, "exact_n": 20, "cap": 20, "tmax": 240,
                   "deltas": 320},
    },
    "tiny": {
        "v1-large": {"n": 120},
        "enum-cold": {
            "nonrepetitive-vertex": (10,),
            "nonrepetitive-edge": (10,),
            "acyclic-gamma": (12,),
            "acyclic-v2": (12,),
            "facial-thue-vertex": (40,),
        },
        "facial-warm": {"n": 30, "streams": 3},
        "series": {"full_tmax": 40, "exact_n": 10, "cap": 6, "tmax": 215,
                   "deltas": 8},
    },
}

KAPPA = 10
FACIAL_EDGE_KAPPA = 9  # the paper's pinned count; the reserved edge makes 10
BUDGET_PER_OBJECT = 20


class PassLog:
    """What one pass (or a workload's preparation) measured and checked."""

    def __init__(self):
        self.samples: defaultdict = defaultdict(list)  # (phase, key) -> [s]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # failures that make the run incorrect
        self.known: list[str] = []  # documented known failures
        self.digest = hashlib.sha256()
        self.counters: Counter = Counter()
        self.check_s = 0.0

    def time(self, phase: str, key: str, seconds: float) -> None:
        self.samples[(phase, key)].append(seconds)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def feed(self, *parts) -> None:
        for part in parts:
            self.digest.update(str(part).encode())
            self.digest.update(b"\0")


# --- engine workloads --------------------------------------------------------

PLANAR = ("facial-thue-vertex", "facial-thue-edge")

CONSTRUCTORS = {
    "acyclic-gamma": lambda case, g, pg: acyclic_gamma_family(g, case.gamma),
    "acyclic-v1": lambda case, g, pg: acyclic_v1_family(g, case.alpha),
    "acyclic-v2": lambda case, g, pg: acyclic_v2_family(g, case.alpha),
    "nonrepetitive-vertex": lambda case, g, pg: nonrepetitive_vertex_family(g),
    "nonrepetitive-edge": lambda case, g, pg: nonrepetitive_edge_family(g),
    "facial-thue-vertex": lambda case, g, pg: facial_thue_vertex_family(pg),
    "facial-thue-edge": lambda case, g, pg: facial_thue_edge_family(pg, case.estar),
}


@dataclass(frozen=True)
class Case:
    """One engine instance: a generated document, a family, a color stream."""

    key: str
    family: str
    text: str  # edge list, or rotation system for the facial families
    kappa: int
    budget: int
    stream: int  # seed of the documented PRNG color stream
    alpha: float = 0.5
    gamma: int = 1
    estar: int = 1

    def engine_input(self) -> EngineInput:
        return EngineInput(self.kappa, seed=self.stream, budget=self.budget)


def _objects(family: str, text: str) -> int:
    """Object count of a generated document (vertices or edges)."""
    n, m = map(int, text.split("\n", 1)[0].split())
    return m if family.endswith("edge") else n


def make_case(key, family, text, seed, **params) -> Case:
    budget = BUDGET_PER_OBJECT * _objects(family, text)
    stream = rng_for(seed, key, "stream").randrange(2 ** 31)
    kappa = FACIAL_EDGE_KAPPA if family == "facial-thue-edge" else KAPPA
    return Case(key, family, text, kappa, budget, stream, **params)


def build(case: Case, tr):
    """Input text to a ready family: parse, then construct (which builds the
    special-pair structure or the medial graph where the family has one)."""
    if case.family in PLANAR:
        pg = tr.call("planar.load", load_rotation, case.text)
        g = pg.graph
    else:
        pg = None
        g = tr.call("graphs.load", load_graph, case.text)
    fam = tr.call("families.build", CONSTRUCTORS[case.family], case, g, pg)
    if tr.on:
        tr.instrument_family(fam)
    return g, pg, fam


def engine_gate(case: Case, g, pg, fam, inp, res, values):
    """None when the run completed, decode returned exactly the drawn stream,
    and the independent check accepts the final coloring; else the reason."""
    if res.status is not RunStatus.COMPLETED:
        return f"run ended {res.status.value} after {res.steps_used} steps"
    if tuple(values) != inp.make_vector()[: res.steps_used]:
        return "decode differs from the drawn color stream"
    phi = res.coloring.as_dict()
    objects = "edge" if case.family.endswith("edge") else "vertex"
    if case.family.startswith("acyclic"):
        verdict = check_acyclic(g, phi)
    elif pg is not None:
        verdict = check_nonrepetitive(g, phi, objects=objects, facial=pg)
    else:
        # replaying detection in surviving order is sound at any size; the
        # independent all-paths validator only up to VALIDATOR_CAP vertices
        hit = allowedness_witness(fam, res.coloring, res.surviving_order)
        if hit is not None:
            return f"allowedness check fires {hit}"
        if g.n > VALIDATOR_CAP:
            return None
        verdict = check_nonrepetitive(g, phi, objects=objects)
    return None if verdict.ok else f"validator rejects: {verdict.message}"


def run_case(case: Case, log: PassLog, tr, built=None) -> None:
    """Set up (unless `built` is given), run, decode, then gate one case."""
    log.attempted += 1
    try:
        if built is None:
            start = perf_counter()
            built = build(case, tr)
            log.time("setup", case.key, perf_counter() - start)
        g, pg, fam = built
        inp = case.engine_input()
        start = perf_counter()
        res = tr.call("engine.run", run, g, fam, inp)
        mid = perf_counter()
        values = tr.call("engine.decode", decode, g, fam, res.coloring, res.record)
        end = perf_counter()
    except Exception as exc:  # a crash is a failed operation, not a stop
        log.fail(f"{case.key}: {type(exc).__name__}: {exc}")
        return
    log.time("main", case.key, mid - start)
    log.time("post", case.key, end - mid)
    start = perf_counter()
    with tr.paused():
        problem = engine_gate(case, g, pg, fam, inp, res, values)
    log.check_s += perf_counter() - start
    if problem:
        log.fail(f"{case.key}: {problem}")
    record_counters(log, case, fam, res)


def record_counters(log: PassLog, case: Case, fam, res) -> None:
    steps = res.record.steps
    levels = res.record.levels(fam.metas)
    c = log.counters
    c["engine.steps"] += len(steps)
    c["engine.final_colored"] += len(res.coloring.colored)
    for step in steps:
        if step is not None:
            c["engine.events"] += 1
            c[f"engine.events.type{step[0]}"] += 1
    c["engine.peak_level"] = max(c["engine.peak_level"], max(levels, default=0))
    coloring = "".join(f"{v} {res.coloring.color_of(v)}\n"
                       for v in sorted(res.coloring.colored))
    log.feed(case.key, res.record.to_text(), coloring)


class V1Large:
    """acyclic-v1 (alpha 0.5) on one random 4-regular graph, fresh family,
    one run plus one decode per pass."""

    name = "v1-large"
    phases = ("run_s", "decode_s")

    def __init__(self, seed: int, size: str):
        n = SIZES[size][self.name]["n"]
        text = regular_graph_text(n, 4, rng_for(self.name, seed, "graph"))
        self.cases = [make_case(f"v1-n{n}", "acyclic-v1", text, seed, alpha=0.5)]

    def prepare(self, log: PassLog, tr) -> None:
        pass

    def one_pass(self, log: PassLog, tr) -> None:
        for case in self.cases:
            run_case(case, log, tr)


class EnumCold(V1Large):
    """One fresh family per instance: nearly all time is the first
    `witness_rows` call per (anchor, type) filling the memo."""

    name = "enum-cold"

    def __init__(self, seed: int, size: str):
        self.cases = []
        for family, sizes in SIZES[size][self.name].items():
            for i, n in enumerate(sizes):
                rng = rng_for(self.name, seed, family, i)
                if family in PLANAR:
                    text = triangulation_text(n, rng)
                else:
                    text = regular_graph_text(n, 3, rng)
                self.cases.append(make_case(f"{family}-{i}-n{n}", family, text,
                                            seed, gamma=1, alpha=0.5))


class FacialWarm:
    """facial-thue-edge on one stacked triangulation: one family, warmed by an
    untimed run and decode of every color stream, then every pass runs and
    decodes the same streams on it.  Before each stream a pass also sets up a
    fresh family from the input text and discards it, so the set-up samples
    are spread over the whole measured window."""

    name = "facial-warm"
    phases = ("run_s", "decode_s")

    def __init__(self, seed: int, size: str):
        cfg = SIZES[size][self.name]
        n = cfg["n"]
        text = triangulation_text(n, rng_for(self.name, seed, "graph"))
        warm_case = make_case(f"n{n}", "facial-thue-edge", text, seed, estar=1)
        self.cases = [
            replace(warm_case, key=f"stream{i}",
                    stream=rng_for(seed, self.name, i).randrange(2 ** 31))
            for i in range(cfg["streams"])
        ]
        self.built = {}

    def prepare(self, log: PassLog, tr) -> None:
        """Build and warm the family of the untimed passes and, on a traced
        run, a second, instrumented family for the traced passes."""
        self.built[False] = self._warm(build(self.cases[0], NullTracer()))
        if isinstance(tr, NullTracer):
            return
        tr.on = True
        try:
            built = build(self.cases[0], tr)
        finally:
            tr.on = False
        self.built[True] = self._warm(built)

    def _warm(self, built):
        """Fill the memo for every (anchor, type) key the timed passes read."""
        g, _, fam = built
        for case in self.cases:
            res = run(g, fam, case.engine_input())
            decode(g, fam, res.coloring, res.record)
        return built

    def one_pass(self, log: PassLog, tr) -> None:
        built = self.built[tr.on]
        for case in self.cases:
            start = perf_counter()
            build(case, tr)
            log.time("setup", case.key, perf_counter() - start)
            run_case(case, log, tr, built=built)


# --- records, bounds and CLI -------------------------------------------------

# Rows of `count-records` output that enter the digest: those a run printed
# before the float `bound` column overflowed at the parent commit.
DIGEST_TMAX = 200


class Series:
    """Two in-process `recolor count-records` calls and a bound sweep.

    `full`: level cap = tmax = 200, the whole O(t^3) power table.
    `truncated`: level cap 20 with tmax 240, past 211, where the CLI's float
    `bound` column overflows: `OverflowError` escapes `cli.main`.  That is a
    known defect, counted as a failed operation rather than sized away.
    The sweep calls `kappa_preset` for every problem over a range of degrees
    and `optimal_alpha` at the nine alpha-table degrees.
    """

    name = "series"
    phases = ("count_s", "bound_s")
    ALPHA_DEGREES = (27, 28, 29, 30, 100, 1000, 10000, 100000, 1000000)

    def __init__(self, seed: int, size: str):
        cfg = SIZES[size][self.name]
        preset = ["count-records", "--problem", "nonrepetitive-vertex",
                  "--delta", "3", "--exact-n", str(cfg["exact_n"])]
        full = str(cfg["full_tmax"])
        self.calls = (
            ("full", preset + ["--level-cap", full, "--tmax", full]),
            ("truncated", preset + ["--level-cap", str(cfg["cap"]),
                                    "--tmax", str(cfg["tmax"])]),
        )
        self.deltas = range(24, 24 + cfg["deltas"])  # presets start at 24
        # The work is fixed; the seed only orders the sweep's problems.
        rng = rng_for(self.name, seed, "params")
        self.problems = rng.sample(PROBLEMS, len(PROBLEMS))

    def prepare(self, log: PassLog, tr) -> None:
        pass

    def one_pass(self, log: PassLog, tr) -> None:
        log.attempted += 1
        try:
            log.time("setup", "cli-start", cli_start_seconds())
        except (OSError, subprocess.SubprocessError, ValueError) as exc:
            log.fail(f"cli start: {exc}")
        for key, argv in self.calls:
            self._count_records(key, argv, log, tr)
        self._sweep(log, tr)

    def _count_records(self, key, argv, log: PassLog, tr) -> None:
        log.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        escaped = None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = tr.call("cli.main", recolor.cli.main, argv)
        except Exception as exc:  # nothing may escape cli.main; count it
            escaped = exc
        log.time("main", key, perf_counter() - start)
        start = perf_counter()
        rows = _count_rows(out.getvalue())
        log.feed(key, *(f"{t} {b} {r}" for t, b, r in rows if t <= DIGEST_TMAX))
        log.counters[f"series.{key}.rows"] += len(rows)
        problem = None
        if escaped is not None:
            problem = f"{type(escaped).__name__} escaped cli.main: {escaped}"
        elif code != 0:
            problem = f"exit code {code}: {err.getvalue().strip()}"
        else:
            tmax = int(argv[argv.index("--tmax") + 1])
            if [t for t, _, _ in rows] != list(range(tmax + 1)):
                problem = "table rows are not t = 0..tmax"
            elif rows[0][1:] != (1, 1):
                problem = "b_0 and r_0 must be 1"
        log.check_s += perf_counter() - start
        if problem is None:
            return
        if key == "truncated" and isinstance(escaped, OverflowError):
            log.failed += 1
            log.known.append(f"count-records {key}: {problem}")
        else:
            log.fail(f"count-records {key}: {problem}")

    def _sweep(self, log: PassLog, tr) -> None:
        log.attempted += 1
        results = []
        start = perf_counter()
        try:
            for problem in self.problems:
                for delta in self.deltas:
                    bound = tr.call("bounds.kappa_preset", kappa_preset, problem,
                                    delta, descriptors=[(4, 4)])
                    results.append((problem, delta, bound))
            alphas = [tr.call("bounds.optimal_alpha", optimal_alpha, d)
                      for d in self.ALPHA_DEGREES]
        except Exception as exc:  # a crash is a failed operation, not a stop
            log.fail(f"bound sweep: {type(exc).__name__}: {exc}")
            return
        log.time("post", "sweep", perf_counter() - start)
        start = perf_counter()
        # the optimizer minimizes the ratio the pinned point only evaluates
        bad = [(p, d) for p, d, b in results
               if not b.optimized.ratio <= b.pinned.ratio * (1 + 1e-9)
               or b.optimized.kappa < 1]
        bad += [("optimal_alpha", a) for a in alphas if not 0 < a <= 1]
        log.feed(*((p, d, b.pinned.kappa, b.optimized.kappa) for p, d, b in results),
                 *alphas)
        log.counters["bounds.presets"] += len(results)
        log.check_s += perf_counter() - start
        if bad:
            log.fail(f"bound sweep: implausible results at {bad[:3]}")


def _count_rows(text: str) -> list[tuple[int, int, int]]:
    """(t, b, r) from `count-records` TSV output; stops at a malformed line."""
    rows = []
    for line in text.splitlines()[1:]:
        fields = line.split("\t")
        try:
            rows.append((int(fields[0]), int(fields[1]), int(fields[2])))
        except (IndexError, ValueError):
            break
    return rows


def cli_start_seconds() -> float:
    """Seconds a fresh interpreter spends importing the CLI module: the
    set-up a `recolor` command pays before it parses its arguments.  Timed
    inside the child, so process start and scheduling are not counted."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = ("import time; start = time.perf_counter(); import recolor.cli; "
             "print(time.perf_counter() - start)")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          timeout=120, capture_output=True, text=True)
    return float(proc.stdout)


WORKLOADS = {w.name: w for w in (V1Large, EnumCold, FacialWarm, Series)}
