"""End-to-end and per-layer benchmark for `recolor`.

Run from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --scale-probe

A workload run turns the seed into generated input text, then repeats timed
passes over those inputs for `--seconds` seconds (at least one pass) and
checks every output.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines before it are a
human-readable report.  Timings are per-instance means over passes (see
`aggregate`), summed over the workload's instances.

With `--trace 0` the metrics are the end-to-end ones (`END_TO_END`):

- `setup_s`: input text to a ready family (`load_graph`/`load_rotation`
  plus the family constructor, which builds `SpecialStructure` or the
  medial graph); on `series`, the time a fresh interpreter spends importing
  `recolor.cli`, timed inside that interpreter.
- `main_s`: the workload's leading call: `engine.run` on the engine
  workloads (the report calls it `run_s`), the `count-records` calls on
  `series` (`count_s`).
- `work_s`: every timed call after set-up: `main_s` plus `engine.decode`
  (`decode_s`), or plus the bound sweep on `series` (`bound_s`).
- `peak_rss_mb`: `ru_maxrss` of the benchmark process.

`failed_share` (failed / attempted) and the host calibration are printed in
the report; the JSON carries `attempted` and `failed`.  The report also has
a `report` line (the figures under their per-workload names, which `--all`
tabulates).

With `--trace 1` the run alternates untraced and traced passes and the
metrics are the per-layer ones (`PER_LAYER`), means over traced passes,
plus `trace.overhead_share` (traced versus untraced `work_s`).  The spans
of the last traced pass are written to `.perfbench/` (see `spans.py`).

A directory without the program source (`src/recolor`) makes the run exit
with status 2 before it prints a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
PINNED = Path(__file__).resolve().parent / "pinned.json"

END_TO_END = (
    ("setup_s", "s"),
    ("main_s", "s"),
    ("work_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("graphs.load_s", "s"),
    ("planar.load_s", "s"),
    ("families.build_s", "s"),
    ("families.next_uncolored.calls", "count"),
    ("families.next_uncolored.s", "s"),
    ("families.witness_rows.calls", "count"),
    ("families.witness_rows.misses", "count"),
    ("families.witness_rows.rows", "count"),
    ("families.witness_rows.miss_s", "s"),
    ("families.witness_rows.hit_ratio", "ratio"),
    ("families.witness_rows.empty_share", "ratio"),
    ("families.detect.calls", "count"),
    ("families.detect.self_s", "s"),
    ("families.uncolor_set.calls", "count"),
    ("families.uncolor_set.s", "s"),
    ("families.rebuild_event.calls", "count"),
    ("families.rebuild_event.s", "s"),
    ("kernels.scan.calls", "count"),
    ("kernels.scan.s", "s"),
    ("kernels.rows_scanned", "count"),
    ("kernels.hit_share", "ratio"),
    ("engine.steps", "count"),
    ("engine.events", "count"),
    ("engine.event_share", "ratio"),
    ("engine.peak_level", "count"),
    ("engine.run.s", "s"),
    ("engine.run.self_s", "s"),
    ("engine.replay.s", "s"),
    ("engine.decode.s", "s"),
    ("engine.decode.self_s", "s"),
    ("records.count_b.s", "s"),
    ("records.count_r.s", "s"),
    ("records.growth_check.s", "s"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    ("bounds.kappa_preset.s", "s"),
    ("bounds.optimize_ratio.calls", "count"),
    ("bounds.optimize_ratio.s", "s"),
    ("bounds.optimal_alpha.s", "s"),
    ("validators.check_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("host.calib_s", "s"),
)


def host_calib_s() -> float:
    """A fixed pure-Python loop; its time tracks how fast the host runs now."""
    start = perf_counter()
    total = 0
    for i in range(500_000):
        total += i
    return perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def aggregate(samples) -> float:
    """One figure from repeated measurements of the same thing: their mean.

    On a shared 2-vCPU VM (CPython 3.11) the speed switches between states
    for seconds to minutes (`host_calib_s` reads 19 ms or 30 ms), so
    repeats are bimodal and their median jumps between the states: over
    15-25 s windows of one v1-large input, the quartile spread of the
    per-window medians was 0.12-0.19 and of the means 0.10-0.11.  Outlying
    runs are left to the quartile-based statistics taken across runs.
    """
    return statistics.fmean(samples)


def phase_totals(logs) -> dict:
    """Per-(phase, instance) aggregates over the given logs, summed per
    phase."""
    samples = defaultdict(list)
    for log in logs:
        for key, values in log.samples.items():
            samples[key].extend(values)
    totals = defaultdict(float)
    for (phase, _), values in samples.items():
        totals[phase] += aggregate(values)
    return totals


def work_seconds(log) -> float:
    return sum(sum(v) for (phase, _), v in log.samples.items()
               if phase in ("main", "post"))


def layer_metrics(snap: dict, log) -> dict:
    """Per-layer metrics of one traced pass."""
    calls, total, own, counts = (snap["calls"], snap["total"], snap["self"],
                                 snap["counts"])
    rows_calls = calls["families.witness_rows"] + calls["families.witness_rows.miss"]
    scans = calls["_kernels.scan"]
    steps = log.counters["engine.steps"]
    erased = steps - log.counters["engine.final_colored"]

    def share(part, whole):
        return part / whole if whole else 0.0

    return {
        "graphs.load_s": total.get("graphs.load", 0.0),
        "planar.load_s": total.get("planar.load", 0.0),
        "families.build_s": total.get("families.build", 0.0),
        "families.next_uncolored.calls": calls["families.next_uncolored"],
        "families.next_uncolored.s": total.get("families.next_uncolored", 0.0),
        "families.witness_rows.calls": rows_calls,
        "families.witness_rows.misses": calls["families.witness_rows.miss"],
        "families.witness_rows.rows": counts["witness_rows.rows"],
        "families.witness_rows.miss_s": total.get("families.witness_rows.miss", 0.0),
        "families.witness_rows.hit_ratio": share(calls["families.witness_rows"], rows_calls),
        "families.witness_rows.empty_share": share(counts["witness_rows.empty"], rows_calls),
        "families.detect.calls": calls["families.detect"],
        "families.detect.self_s": own.get("families.detect", 0.0),
        "families.uncolor_set.calls": calls["families.uncolor_set"],
        "families.uncolor_set.s": total.get("families.uncolor_set", 0.0),
        "families.rebuild_event.calls": calls["families.rebuild_event"],
        "families.rebuild_event.s": total.get("families.rebuild_event", 0.0),
        "kernels.scan.calls": scans,
        "kernels.scan.s": total.get("_kernels.scan", 0.0),
        "kernels.rows_scanned": counts["scan.rows"],
        "kernels.hit_share": share(counts["scan.hits"], scans),
        "engine.steps": steps,
        "engine.events": log.counters["engine.events"],
        "engine.event_share": share(erased, steps),
        "engine.peak_level": log.counters["engine.peak_level"],
        "engine.run.s": total.get("engine.run", 0.0),
        "engine.run.self_s": own.get("engine.run", 0.0),
        "engine.replay.s": total.get("engine.replay", 0.0),
        "engine.decode.s": total.get("engine.decode", 0.0),
        "engine.decode.self_s": own.get("engine.decode", 0.0),
        "records.count_b.s": total.get("records.count_b", 0.0),
        "records.count_r.s": total.get("records.count_r", 0.0),
        "records.growth_check.s": total.get("records.growth_check", 0.0),
        "cli.main.s": total.get("cli.main", 0.0),
        "cli.main.self_s": own.get("cli.main", 0.0),
        "bounds.kappa_preset.s": total.get("bounds.kappa_preset", 0.0),
        "bounds.optimize_ratio.calls": calls["bounds.optimize_ratio"],
        "bounds.optimize_ratio.s": total.get("bounds.optimize_ratio", 0.0),
        "bounds.optimal_alpha.s": total.get("bounds.optimal_alpha", 0.0),
        "validators.check_s": log.check_s,
    }


def exact_counts(snap: dict, log) -> dict:
    """Counters that must repeat exactly for the same seed and size."""
    out = dict(sorted(log.counters.items()))
    for name in ("families.next_uncolored", "families.detect",
                 "families.witness_rows", "families.witness_rows.miss",
                 "families.uncolor_set", "families.rebuild_event",
                 "_kernels.scan", "bounds.optimize_ratio"):
        out[f"calls.{name}"] = snap["calls"][name]
    for name in ("witness_rows.rows", "witness_rows.empty", "scan.rows",
                 "scan.hits"):
        out[name] = snap["counts"][name]
    return out


def bench(args) -> int:
    from spans import NullTracer, Tracer
    from workloads import WORKLOADS, PassLog

    workload = WORKLOADS[args.workload](args.seed, args.size)
    tracer = Tracer() if args.trace else NullTracer()
    calib = [host_calib_s()]
    prep = PassLog()
    workload.prepare(prep, tracer)
    passes = []  # (traced, log, snapshot)
    deadline = perf_counter() + args.seconds
    traced = False
    while True:
        gc.collect()  # every pass starts from the same heap state
        log = PassLog()
        if traced:
            tracer.reset()
            tracer.on = True
        try:
            with tracer.patched() if traced else nullcontext():
                workload.one_pass(log, tracer)
        finally:
            tracer.on = False
        passes.append((traced, log, tracer.snapshot() if traced else None))
        calib.append(host_calib_s())
        done = perf_counter() >= deadline
        if args.trace:
            traced = not traced
            done = done and len(passes) >= 2
        if done:
            break
    rss = peak_rss_mb()

    logs = [prep] + [log for _, log, _ in passes]
    attempted = sum(log.attempted for log in logs)
    failed = sum(log.failed for log in logs)
    problems = [p for log in logs for p in log.problems]
    known = sorted({k for log in logs for k in log.known})
    digests = {log.digest.hexdigest() for _, log, _ in passes}
    counters = [dict(log.counters) for _, log, _ in passes]
    digest = passes[0][1].digest.hexdigest()
    if len(digests) > 1:
        problems.append("outputs differ between passes")
    if any(c != counters[0] for c in counters):
        problems.append("counters differ between passes")
    pinned = json.loads(PINNED.read_text()).get(args.size, {}).get(workload.name)
    if args.seed == DEFAULT_SEED and pinned and pinned != digest:
        problems.append(f"digest {digest} differs from the pinned {pinned}")
    correct = not problems

    untraced = [log for traced_, log, _ in passes if not traced_]
    totals = phase_totals([prep] + untraced)
    main_name, post_name = workload.phases
    end_to_end = {
        "setup_s": totals["setup"],
        "main_s": totals["main"],
        "work_s": totals["main"] + totals["post"],
        "peak_rss_mb": rss,
    }

    print(f"workload {workload.name}  seed {args.seed}  size {args.size}  "
          f"passes {len(passes)}  trace {int(args.trace)}")
    print(f"  setup_s       {totals['setup']:.6f} s")
    print(f"  {main_name:<13} {totals['main']:.6f} s")
    print(f"  {post_name:<13} {totals['post']:.6f} s")
    print(f"  peak_rss_mb   {rss:.1f} MB")
    print(f"  failed_share  {failed / attempted:.4f} ratio ({failed}/{attempted})")
    print(f"  host.calib_s  {aggregate(calib):.6f} s "
          f"(min {min(calib):.6f}, max {max(calib):.6f}, n {len(calib)})")
    for line in known:
        print(f"  known failure: {line}")
    for line in problems[:20]:
        print(f"  FAILED: {line}")
    pin_note = ("matches pin" if pinned == digest else "PIN MISMATCH") \
        if args.seed == DEFAULT_SEED and pinned else "not pinned for this seed"
    print(f"  digest {digest} ({pin_note})")
    print(f"  correct {str(correct).lower()}")
    print("report " + json.dumps({
        "workload": workload.name, "setup_s": totals["setup"],
        main_name: totals["main"], post_name: totals["post"],
        "peak_rss_mb": rss, "failed": failed, "attempted": attempted,
        "host.calib_s": aggregate(calib), "correct": correct}))

    if args.trace:
        snaps = [(snap, log) for traced_, log, snap in passes if traced_]
        per_pass = [layer_metrics(snap, log) for snap, log in snaps]
        layers = {name: aggregate([m[name] for m in per_pass])
                  for name in per_pass[0]}
        layers.update((name, int(layers[name])) for name, unit in PER_LAYER
                      if unit == "count")
        plain = aggregate([work_seconds(log) for log in untraced])
        with_trace = aggregate([work_seconds(log) for _, log in snaps])
        layers["trace.overhead_share"] = (with_trace - plain) / plain if plain else 0.0
        layers["host.calib_s"] = aggregate(calib)
        print("counters " + json.dumps(exact_counts(*snaps[0]), sort_keys=True))
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"trace-{workload.name}-seed{args.seed}.spans.gz"
        tracer.write(span_file)
        print(f"  spans of the last traced pass: {span_file.relative_to(ROOT)}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, then one table of the end-to-end
    figures under their per-workload names."""
    import subprocess

    from workloads import WORKLOADS

    columns = ("setup_s", "run_s", "decode_s", "count_s", "bound_s",
               "peak_rss_mb", "failed_share", "correct")
    table = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--size", args.size],
            capture_output=True, text=True, timeout=600)
        print(proc.stdout, end="", flush=True)
        report = next((json.loads(line[len("report "):])
                       for line in proc.stdout.splitlines()
                       if line.startswith("report ")), None)
        if proc.returncode != 0 or report is None:
            print(f"{name}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            table.append((name, {"correct": False}))
            continue
        report["failed_share"] = report["failed"] / report["attempted"]
        table.append((name, report))
    units = {"peak_rss_mb": " MB", "failed_share": ""}
    print()
    print(f"{'workload':<12}" + "".join(f"{c:>14}" for c in columns))
    for name, report in table:
        cells = []
        for c in columns:
            value = report.get(c)
            if isinstance(value, bool) or value is None:
                cells.append("—" if value is None else str(value).lower())
            else:
                cells.append(f"{value:.4f}{units.get(c, ' s')}")
        print(f"{name:<12}" + "".join(f"{cell:>14}" for cell in cells))
    return 0 if all(report.get("correct") for _, report in table) else 1


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(
        description="recolor end-to-end and per-layer benchmark")
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--all", action="store_true",
                      help="every workload, one fresh process each")
    mode.add_argument("--self-test", action="store_true",
                      help="same-seed repeatability and tiny-size gates")
    mode.add_argument("--scale-probe", action="store_true",
                      help="the ROADMAP baseline table, not gated")
    mode.add_argument("--probe-row", help=argparse.SUPPRESS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "recolor" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    args = parse_args(argv)
    if args.self_test:
        from selftest import self_test
        return self_test()
    if args.scale_probe:
        from probe import scale_probe
        return scale_probe()
    if args.probe_row:
        from probe import probe_row
        return probe_row(args.probe_row)
    if args.all:
        return run_all(args)
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
