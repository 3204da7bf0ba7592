"""Scale probe: `python3 perfbench/run.py --scale-probe`.

Rebuilds the rows of the ROADMAP baseline table (one seed, budget 20 per
object, wall time, peak RSS).  Each row runs in its own subprocess, so a
row that exceeds `TIMEOUT_S` is killed and printed as `timeout` instead of
hanging the probe.  Not gated and not one of the workloads.

The acyclic-v1 row at n=6400 needs about 1.1 GB at the parent commit.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from gen import regular_graph_text, rng_for, triangulation_text
from workloads import PLANAR, build, make_case

RUN = Path(__file__).resolve().parent / "run.py"

# label -> (family, n, max degree of the random regular graph; None = planar)
ENGINE_ROWS = {
    "acyclic-v1 n=1600 D=4": ("acyclic-v1", 1600, 4),
    "acyclic-v1 n=3200 D=4": ("acyclic-v1", 3200, 4),
    "acyclic-v1 n=6400 D=4": ("acyclic-v1", 6400, 4),
    "acyclic-gamma n=30 D=3": ("acyclic-gamma", 30, 3),
    "acyclic-v2 n=30 D=3": ("acyclic-v2", 30, 3),
    "acyclic-gamma n=100 D=3": ("acyclic-gamma", 100, 3),
    "acyclic-v2 n=100 D=3": ("acyclic-v2", 100, 3),
    "nonrepetitive-vertex n=30 D=3": ("nonrepetitive-vertex", 30, 3),
    "nonrepetitive-vertex n=100 D=3": ("nonrepetitive-vertex", 100, 3),
    "nonrepetitive-edge n=30 D=3": ("nonrepetitive-edge", 30, 3),
    "nonrepetitive-edge n=100 D=3": ("nonrepetitive-edge", 100, 3),
    "facial-thue-vertex n=400": ("facial-thue-vertex", 400, None),
    "facial-thue-vertex n=1600": ("facial-thue-vertex", 1600, None),
    "facial-thue-edge n=100": ("facial-thue-edge", 100, None),
    "facial-thue-edge n=400": ("facial-thue-edge", 400, None),
}
# count_r with tmax = level cap, on the `series` term system
SERIES_ROWS = {f"count_r tmax={t}": t for t in (100, 200, 400)}
SEED = 1
TIMEOUT_S = 40  # per row


def probe_row(label: str) -> int:
    """Measure one row in this process and print it as one JSON line."""
    from recolor.bounds import kappa_preset
    from recolor.engine import decode, run
    from spans import NullTracer

    if label in SERIES_ROWS:
        from recolor.records import count_r

        t = SERIES_ROWS[label]
        terms = kappa_preset("nonrepetitive-vertex", 3, n=20).q.terms
        start = perf_counter()
        count_r(terms, t, t)
        result = {"run_s": perf_counter() - start}
    else:
        family, n, degree = ENGINE_ROWS[label]
        rng = rng_for("probe", label)
        text = triangulation_text(n, rng) if family in PLANAR \
            else regular_graph_text(n, degree, rng)
        case = make_case(label, family, text, SEED)
        g, _, fam = build(case, NullTracer())
        start = perf_counter()
        res = run(g, fam, case.engine_input())
        mid = perf_counter()
        decode(g, fam, res.coloring, res.record)
        result = {"run_s": mid - start, "decode_s": perf_counter() - mid,
                  "status": res.status.value}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


def scale_probe() -> int:
    print(f"| workload | run | decode | peak RSS |  (seed {SEED}, "
          f"timeout {TIMEOUT_S} s per row)")
    print("|---|---|---|---|")
    for label in [*ENGINE_ROWS, *SERIES_ROWS]:
        try:
            proc = subprocess.run(
                [sys.executable, str(RUN), "--probe-row", label],
                capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"| {label} | timeout >{TIMEOUT_S} s | — | — |", flush=True)
            continue
        if proc.returncode != 0:
            error = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            print(f"| {label} | error: {error[0]} | — | — |", flush=True)
            continue
        row = json.loads(proc.stdout.splitlines()[-1])
        decode_s = f"{row['decode_s']:.2f} s" if "decode_s" in row else "—"
        status = f" ({row['status']})" if row.get("status", "Completed") != "Completed" else ""
        print(f"| {label} | {row['run_s']:.2f} s{status} | {decode_s} | "
              f"{row['peak_rss_mb']:.0f} MB |", flush=True)
    return 0
