"""Span tracing installed from outside the program.

Nothing under `src/` knows about tracing.  The tracer wraps calls at layer
boundaries instead:

- the benchmark times its own calls into each layer with `Tracer.call`;
- family methods are replaced by wrapped instance attributes
  (`instrument_family`), so a family's internal `self.witness_rows(...)`
  calls are caught too (the family classes have no `__slots__`);
- module globals the program imports by name are rebound for the duration
  of a traced pass (`patched`): the scan kernels as the families see them,
  `replay_colored_sets` as `decode` sees it, the record-series functions as
  the CLI sees them, and `optimize_ratio` as the bound presets see it.

A span is (name, start, end, parent).  Spans stay in memory and are written
once, when the run ends (`write`).  Per-name totals are kept as spans close:
calls, inclusive time, and self time, which is a span's duration minus the
time spent in its direct children, the tracer's bookkeeping for them
included.

The span file is gzip: one JSON header line (`names`, `count`, `fields`)
followed by four native-endian arrays of `count` items each: name index
(int32), start and end (float64 seconds, `time.perf_counter`), and parent
span index (int32, -1 for none).
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import recolor.bounds
import recolor.cli
import recolor.engine
import recolor.families.acyclic
import recolor.families.base

FAMILY_METHODS = ("next_uncolored", "detect", "uncolor_set", "rebuild_event")


def _scanned_rows(name):
    """After-hook for a scan kernel: rows scanned is idx+1 on a hit and the
    row count on a miss."""

    def after(tracer, result, args):
        if name == "first_equal":
            rows = len(args[2])
        else:
            rows = len(args[1]) // args[2]
        tracer.counts["scan.rows"] += result + 1 if result >= 0 else rows
        tracer.counts["scan.hits"] += result >= 0

    return after


def _count_rows(first):
    """After-hook for `witness_rows`: rows returned on misses, empty results."""

    def after(tracer, result, args):
        if first:
            tracer.counts["witness_rows.rows"] += len(result[0])
        if not result[0]:
            tracer.counts["witness_rows.empty"] += 1

    return after


# (module, attribute, span name, after-hook) rebound during traced passes
MODULE_TARGETS = (
    (recolor.families.base, "first_repetition", "_kernels.scan",
     _scanned_rows("first_repetition")),
    (recolor.families.acyclic, "first_bicolored", "_kernels.scan",
     _scanned_rows("first_bicolored")),
    (recolor.families.acyclic, "first_equal", "_kernels.scan",
     _scanned_rows("first_equal")),
    (recolor.engine, "replay_colored_sets", "engine.replay", None),
    (recolor.cli, "count_b", "records.count_b", None),
    (recolor.cli, "count_r", "records.count_r", None),
    (recolor.cli, "growth_check", "records.growth_check", None),
    (recolor.cli, "kappa_preset", "bounds.kappa_preset", None),
    (recolor.bounds, "optimize_ratio", "bounds.optimize_ratio", None),
)


class NullTracer:
    """Stand-in for untraced passes: calls go straight through."""

    on = False

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def paused(self):
        yield


class Tracer:
    def __init__(self):
        self.on = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Drop all spans and totals."""
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[list] = []  # [span index, children's time]
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """`fn` recording one span per call while the tracer is on;
        `after(tracer, result, args)` may update counters.

        The tracer's own bookkeeping around a span is charged to neither the
        span nor its parent's self time: a parent's self time excludes each
        child's whole wrapper, not just the child's span.
        """
        nid = self._id(name)

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            enter = perf_counter()
            stack = self._stack
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(name, frame, enter, start, perf_counter())
                raise
            end = perf_counter()
            if after is not None:
                after(self, result, args)
            self._close(name, frame, enter, start, end)
            return result

        return traced

    def _close(self, name, frame, enter, start, end) -> None:
        stack = self._stack
        stack.pop()
        idx = frame[0]
        self.span_start[idx] = start
        self.span_end[idx] = end
        duration = end - start
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - frame[1]
        if stack:
            stack[-1][1] += perf_counter() - enter

    def call(self, name, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def instrument_family(self, fam) -> None:
        """Replace the family's engine-facing methods and `witness_rows` by
        traced instance attributes.

        A `witness_rows` call is a miss the first time its (anchor, type) key
        is seen on this family, whether or not the tracer is on, so misses
        count memo fills and stay exact across untraced stretches.
        """
        for method in FAMILY_METHODS:
            setattr(fam, method, self.wrap(f"families.{method}", getattr(fam, method)))
        rows = fam.witness_rows
        hit = self.wrap("families.witness_rows", rows, _count_rows(first=False))
        miss = self.wrap("families.witness_rows.miss", rows, _count_rows(first=True))
        seen = set()

        def witness_rows(v, j):
            key = (v, j)
            first = key not in seen
            if first:
                seen.add(key)
            if not self.on:
                return rows(v, j)
            return (miss if first else hit)(v, j)

        fam.witness_rows = witness_rows

    @contextmanager
    def patched(self):
        """Rebind the module globals in `MODULE_TARGETS` to traced wrappers."""
        saved = []
        try:
            for module, attr, name, after in MODULE_TARGETS:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, after))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextmanager
    def paused(self):
        """Run without recording (correctness checks, warm-up runs)."""
        was, self.on = self.on, False
        try:
            yield
        finally:
            self.on = was

    def snapshot(self) -> dict:
        """Per-name totals and counters recorded since the last reset."""
        return {
            "calls": Counter(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "counts": Counter(self.counts),
        }

    def write(self, path) -> None:
        header = {
            "names": self.names,
            "count": len(self.span_start),
            "fields": ["name:int32", "start:float64", "end:float64",
                       "parent:int32"],
            "byteorder": sys.byteorder,
        }
        with gzip.open(path, "wb", compresslevel=1) as out:
            out.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_start, self.span_end,
                        self.span_parent):
                out.write(arr.tobytes())

