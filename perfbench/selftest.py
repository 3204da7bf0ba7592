"""Self-test of the benchmark: `python3 perfbench/run.py --self-test`.

- `BENCHMARK.json` lists exactly the metrics `run.py` prints, with the same
  units.
- For each workload at the tiny size: two traced runs with the same seed
  print identical exact counters and digests, the digest matches the pinned
  one, and the run passes its correctness gate; the only failures allowed
  are the documented known ones (the `count-records` overflow on `series`).
- An untraced tiny run prints every end-to-end metric, each above zero.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import DEFAULT_SEED, END_TO_END, PER_LAYER, ROOT
from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def _run(*args) -> tuple[dict, dict, str]:
    """Run one benchmark subprocess; return its result, counters and stdout."""
    proc = subprocess.run(
        [sys.executable, str(RUN), *args], capture_output=True, text=True,
        timeout=600, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    lines = proc.stdout.splitlines()
    counters = {}
    for line in lines:
        if line.startswith("counters "):
            counters = json.loads(line[len("counters "):])
    return json.loads(lines[-1]), counters, proc.stdout


def _digest(stdout: str) -> str:
    return next(line.split()[1] for line in stdout.splitlines()
                if line.strip().startswith("digest "))


def self_test() -> int:
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != dict(END_TO_END):
        problems.append(f"BENCHMARK.json end_to_end {declared} != {dict(END_TO_END)}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != dict(PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    tiny = ("--seed", str(DEFAULT_SEED), "--seconds", "1", "--size", "tiny")
    for name in WORKLOADS:
        try:
            first, counters_a, out_a = _run("--workload", name, "--trace", "1", *tiny)
            second, counters_b, out_b = _run("--workload", name, "--trace", "1", *tiny)
            plain, _, _ = _run("--workload", name, "--trace", "0", *tiny)
        except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
            problems.append(f"{name}: {exc}")
            continue
        found = []
        if not first["correct"] or not second["correct"] or not plain["correct"]:
            found.append("correctness gate failed")
        if counters_a != counters_b or not counters_a:
            found.append(f"counters differ: {counters_a} vs {counters_b}")
        if _digest(out_a) != _digest(out_b):
            found.append("digests differ between same-seed runs")
        if "matches pin" not in out_a:
            found.append("digest does not match the pinned value")
        if out_a.count("FAILED:"):
            found.append("operations failed other than the known ones")
        if set(first["metrics"]) != {n for n, _ in PER_LAYER}:
            found.append("traced run does not print every per-layer metric")
        values = plain["metrics"]
        if set(values) != {n for n, _ in END_TO_END} or \
                not all(v["value"] > 0 for v in values.values()):
            found.append(f"end-to-end metrics missing or zero: {values}")
        print(f"{name:<12} {'ok' if not found else 'FAILED'}")
        problems.extend(f"{name}: {p}" for p in found)
    for p in problems:
        print(f"  {p}")
    print("self-test " + ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1
