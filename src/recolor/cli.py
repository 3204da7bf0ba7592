"""Command-line surface: bounds, tables, runs, roundtrips, record counts,
and validation, emitting machine-readable TSV on stdout and a short human
summary on stderr.

Exit codes: 0 success/accept, 1 reject or incomplete run, 2 usage or domain
error, 3 broken internal contract (a `roundtrip` decode inconsistency
included).

The problem, family and property choices, a family's constructor, host
and options, and a property's host and objects are read from
`bounds.PROBLEM_TABLE`.  Only `bounds`, `records` and `errors` load with
this module, all that `bound`, `table` and `count-records` run; every
other module is imported by the command or helper that calls it.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

# `bounds` and `records` stay imported at module level, by name: the
# benchmark's tracer (perfbench/spans.py) rebinds `kappa_preset`, `count_b`,
# `count_r` and `growth_check` on this module.
from .bounds import (
    PROBLEM_TABLE,
    PROBLEMS,
    Problem,
    QPolynomial,
    kappa_preset,
    optimal_alpha,
    optimize_ratio,
)
from .errors import DecodeError, FamilyContractError, MedialConnectivityError
from .records import enumerate_records, growth_report, record_series
# Not called here since b, r and the growth check share one series pass.
from .records import count_b, count_r, growth_check  # noqa: F401

if TYPE_CHECKING:
    from .engine import EngineInput
    from .graphs import Graph
    from .planar import PlaneGraph

FAMILIES = tuple(name for name, row in PROBLEM_TABLE.items() if row.factory)

# the row a `verify` property reads its host and objects from; `proper`
# checks a graph's vertices, as a row does by default
_CHECKS = {"proper": Problem(None, "")} | {
    row.verify: row for row in PROBLEM_TABLE.values() if row.verify}
PROPERTIES = tuple(_CHECKS)

_ALPHA_TABLE_DELTAS = (27, 28, 29, 30, 100, 1000, 10000, 100000, 1000000)


def _emit(*fields) -> None:
    print("\t".join(str(f) for f in fields))


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _read(path: str) -> str:
    return Path(path).read_text()


def _host(args, row: Problem, name: str) -> Graph | PlaneGraph:
    """The `--graph` a problem's row reads, or its `--embedding`, checked
    against a `--graph` given with it; ``name`` labels a missing one."""
    from .graphs import load_graph

    g = load_graph(_read(args.graph)) if args.graph else None
    if not row.embedded:
        if g is None:
            raise ValueError(f"{name} needs --graph")
        return g
    if not args.embedding:
        raise ValueError(f"{name} needs --embedding")
    from .planar import load_rotation

    return load_rotation(_read(args.embedding), graph=g)


def _pairs(text: str, first, what: str, form: str):
    """Yield (token, a, b) for each comma- or space-separated ``A:B``
    token of ``text``: A read by ``first``, B an integer.  A token that is
    not exactly that is refused by name as a bad ``what``."""
    for token in text.replace(",", " ").split():
        a_text, _, b_text = token.partition(":")
        try:
            a, b = first(a_text), int(b_text)
        except ValueError:
            raise ValueError(f"bad {what} {token!r}, expected {form}") from None
        yield token, a, b


def _parse_terms(text: str) -> list[tuple[float, int]]:
    terms = []
    for token, ceiling, size in _pairs(text, float, "term", "CEILING:SIZE"):
        if not math.isfinite(ceiling):
            raise ValueError(f"bad term {token!r}, the ceiling must be finite")
        terms.append((ceiling, size))
    return terms


def _parse_coloring(text: str, count: int) -> dict[int, int]:
    """{object: color} from "object color" lines, objects in 1..count and
    each at most once, colors nonnegative (0 is uncolored)."""
    from .graphs import _clean_lines

    phi = {}
    for no, line in _clean_lines(text):
        try:
            obj, color = map(int, line.split())
        except ValueError:
            raise ValueError(f"coloring line {no}: expected 'object color'") \
                from None
        if not 1 <= obj <= count:
            raise ValueError(
                f"coloring line {no}: object {obj} out of range 1..{count}")
        if obj in phi:
            raise ValueError(f"coloring line {no}: object {obj} colored twice")
        if color < 0:
            raise ValueError(f"coloring line {no}: negative color {color}")
        phi[obj] = color
    return phi


def _parse_lists(text: str, count: int) -> dict[int, tuple[int, ...]]:
    """{object: colors} from "object: c1 c2 ..." lines, objects in
    1..count and each at most once, colors positive and distinct: decode
    reads a drawn index back from its color."""
    from .graphs import _clean_lines

    lists = {}
    for no, line in _clean_lines(text):
        head, sep, tail = line.partition(":")
        try:
            if not sep:
                raise ValueError
            obj, colors = int(head), tuple(int(c) for c in tail.split())
        except ValueError:
            raise ValueError(f"lists line {no}: expected 'object: c1 c2 ...'") \
                from None
        if not 1 <= obj <= count:
            raise ValueError(
                f"lists line {no}: object {obj} out of range 1..{count}")
        if obj in lists:
            raise ValueError(f"lists line {no}: object {obj} listed twice")
        if colors and (low := min(colors)) < 1:
            raise ValueError(f"lists line {no}: color {low} is not positive")
        if len(set(colors)) != len(colors):
            raise ValueError(f"lists line {no}: a color is listed twice")
        lists[obj] = colors
    return lists


def _build_family(args):
    """(graph, family) of `--family` on its host."""
    from . import families

    row = PROBLEM_TABLE[args.family]
    host = _host(args, row, args.family)
    option = [getattr(args, row.option)] if row.option else []
    if None in option:
        raise ValueError(f"{args.family} needs --{row.option}")
    fam = getattr(families, row.factory)(host, *option)
    return fam.g, fam


def _engine_input(args, count: int) -> EngineInput:
    """The run's color source; `--lists` names objects in 1..count."""
    from .engine import EngineInput

    lists = _parse_lists(_read(args.lists), count) if args.lists else None
    if args.vector:
        vector = tuple(int(x) for x in args.vector.replace(",", " ").split())
        return EngineInput(args.kappa, vector=vector, lists=lists)
    if args.seed is None:
        raise ValueError("supply --seed or --vector")
    if args.budget is None:
        raise ValueError("seeded runs need --budget")
    return EngineInput(args.kappa, seed=args.seed, budget=args.budget,
                       lists=lists)


def _preset(args, alpha: float):
    """`kappa_preset` of `--problem` with the preset options `bound` and
    `count-records` share, at ``alpha``.  The pattern flags are refused
    for a problem that does not read them."""
    descriptors = None
    if args.pattern_shape:
        descriptors = [(n, m) for _, n, m in _pairs(
            args.pattern_shape, int, "pattern shape", "N:M")]
    if "descriptors" not in PROBLEM_TABLE[args.problem].options.split():
        if args.pattern_shape is not None:
            raise ValueError(f"{args.problem} does not read --pattern-shape")
        if args.form != "vertex":
            raise ValueError(f"{args.problem} does not read --form")
    return kappa_preset(args.problem, args.delta, gamma=args.gamma,
                        alpha=alpha, r=args.r, n=args.exact_n,
                        descriptors=descriptors, form=args.form)


def _cmd_bound(args) -> int:
    if args.family_file:
        q = QPolynomial(tuple(_parse_terms(_read(args.family_file))))
        res = optimize_ratio(q)
        _emit("problem", "custom")
        _emit("optimized_x", res.x)
        _emit("optimized_ratio", res.ratio)
        _emit("optimized_kappa", res.kappa)
        _emit("root_residual", res.root_residual)
        _emit("boundary", str(res.boundary).lower())
        _note(f"custom terms: kappa {res.kappa} at x {res.x:.6g}")
        return 0
    if not args.problem:
        raise ValueError("supply --problem or --family-file")
    alpha = args.alpha
    if args.optimize_alpha:
        if args.delta is None:
            raise ValueError("--optimize-alpha needs --delta")
        alpha = optimal_alpha(args.delta)
    bound = _preset(args, alpha)
    _emit("problem", bound.problem)
    if args.optimize_alpha:
        _emit("alpha", alpha)
    _emit("pinned_x", bound.pinned.x)
    _emit("pinned_ratio", bound.pinned.ratio)
    _emit("pinned_kappa", bound.pinned.kappa)
    _emit("optimized_x", bound.optimized.x)
    _emit("optimized_ratio", bound.optimized.ratio)
    _emit("optimized_kappa", bound.optimized.kappa)
    _emit("root_residual", bound.optimized.root_residual)
    _emit("boundary", str(bound.optimized.boundary).lower())
    if bound.kappa_total is not None:
        _emit("kappa_total", bound.kappa_total)
    for name in sorted(bound.literature):
        _emit("literature", name, bound.literature[name])
    _note(f"{bound.problem}: {bound.pinned.kappa} colors at the pinned "
          f"point, {bound.optimized.kappa} at the optimized root")
    return 0


def _cmd_table(args) -> int:
    if args.name != "cs":
        raise ValueError(f"unknown table {args.name!r}, known: cs")
    _emit("delta", "alpha")
    for delta in _ALPHA_TABLE_DELTAS:
        _emit(delta, f"{optimal_alpha(delta):.3f}")
    _note("alpha minimizing the closed-form acyclic ratio per delta")
    return 0


def _cmd_color(args) -> int:
    from .engine import RunStatus, run

    g, fam = _build_family(args)
    inp = _engine_input(args, fam.n_objects)
    res = run(g, fam, inp)
    manifest = {
        "graph": g.digest(),
        "family": args.family,
        "kappa": args.kappa,
        "source": f"vector {args.vector}" if args.vector
                  else f"seed {args.seed} budget {args.budget}",
        "status": res.status.value,
        "steps": res.steps_used,
    }
    if args.record_out:
        Path(args.record_out).write_text(res.record.to_text(manifest))
    for obj in sorted(res.coloring.colored):
        _emit(obj, res.coloring.color_of(obj))
    _note(f"{res.status.value} after {res.steps_used} steps, "
          f"{len(res.coloring.colored)}/{fam.n_objects} objects colored")
    return 0 if res.status is RunStatus.COMPLETED else 1


def _cmd_roundtrip(args) -> int:
    from itertools import islice

    from .engine import decode, run

    g, fam = _build_family(args)
    inp = _engine_input(args, fam.n_objects)
    res = run(g, fam, inp)
    recovered = tuple(decode(g, fam, res.coloring, res.record,
                             lists=inp.lists))
    # only the drawn prefix: the cost follows the steps, not the budget
    expected = tuple(islice(inp.draws(), res.steps_used))
    if recovered == expected:
        _emit("PASS", res.steps_used)
        _note(f"decode recovered all {res.steps_used} drawn colors")
        return 0
    idx = next(i for i, (a, b) in enumerate(zip(recovered, expected))
               if a != b)
    _emit("FAIL", idx)
    _note(f"first divergence at step {idx}: "
          f"decoded {recovered[idx]}, drew {expected[idx]}")
    return 1


def _bound_cell(prefactor: float, base: float, t: int):
    """prefactor * base^t: the float while it is finite, past that the same
    value in scientific notation computed from its base-10 logarithm."""
    try:
        value = prefactor * base ** t
    except OverflowError:
        value = math.inf
    if math.isfinite(value):
        return value
    exponent = math.log10(prefactor) + t * math.log10(base)
    whole = math.floor(exponent)
    mantissa = round(10 ** (exponent - whole), 11)
    if mantissa >= 10:
        mantissa, whole = mantissa / 10, whole + 1
    return f"{mantissa:.12g}e+{whole}"


def _cmd_count_records(args) -> int:
    if args.terms:
        terms = _parse_terms(args.terms)
    elif args.problem:
        bound = _preset(args, args.alpha)
        if bound.q.tail is not None:
            raise ValueError(
                f"{args.problem} has a closed-form tail; pass --exact-n "
                "to get a finite term list")
        terms = list(bound.q.terms)
    else:
        raise ValueError("supply --terms or --problem")
    b, r = record_series(terms, args.level_cap, args.tmax)
    # Python prints no int past its digit limit (0: no limit, and none
    # before 3.10.7); refuse the whole table rather than stop mid-table
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        top = 10 ** limit
        for t, (bt, rt) in enumerate(zip(b, r)):
            if bt >= top or rt >= top:
                raise ValueError(
                    f"the count at t={t} has more than {limit} digits, past "
                    "Python's limit for printing an int; lower --tmax")
    report = growth_report(terms, b)
    if args.brute:
        for t in range(min(args.tmax, 12) + 1):
            brute = len(enumerate_records(terms, args.level_cap, t))
            if args.level_cap >= t:
                ok = brute == r[t]
            else:
                ok = brute <= r[t]
            if not ok:
                _note(f"enumeration disagrees at t={t}: {brute} vs {r[t]}")
                return 1
        _note(f"enumeration agrees up to t={min(args.tmax, 12)}")
    _emit("t", "b", "r", "bound")
    for t in range(args.tmax + 1):
        _emit(t, b[t], r[t], _bound_cell(report.prefactor, report.base, t))
    if not report.ok:
        _note("growth bound violated")
        return 1
    return 0


def _cmd_verify(args) -> int:
    from .graphs import load_graph
    from .validators import (
        check_acyclic,
        check_nonrepetitive,
        check_pair_forbidden,
        check_proper,
        check_r_acyclic,
    )

    prop = args.property
    row = _CHECKS[prop]
    host = _host(args, row, prop)
    g, pg = (host.graph, host) if row.embedded else (host, None)
    phi = _parse_coloring(_read(args.coloring), g.m if row.on_edges else g.n)
    if prop == "proper":
        result = check_proper(g, phi)
    elif prop == "acyclic":
        result = check_acyclic(g, phi)
    elif prop == "r-acyclic":
        result = check_r_acyclic(g, phi, args.r)
    elif prop == "pair-forbidden":
        if not args.pattern:
            raise ValueError("pair-forbidden needs --pattern")
        result = check_pair_forbidden(g, phi, load_graph(_read(args.pattern)))
    else:
        result = check_nonrepetitive(
            g, phi, objects="edge" if row.on_edges else "vertex", facial=pg)
    if result.ok:
        _emit("ACCEPT")
        _note(f"{prop}: ok")
        return 0
    _emit("REJECT", result.witness)
    _note(result.message)
    return 1


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="recolor",
        description="Randomized coloring runs, invertible records, and "
                    "color-count bounds.")
    sub = top.add_subparsers(dest="command", required=True)

    def add_family_params(p):
        p.add_argument("--gamma", type=int, default=1)
        p.add_argument("--alpha", type=float, default=0.5)

    def add_r(p):
        p.add_argument("--r", type=int, default=4)

    def add_pattern(p):
        p.add_argument("--pattern-shape",
                       help="pair-forbidden descriptors as N:M pairs")
        p.add_argument("--form", choices=("vertex", "edge"), default="vertex")

    def add_run_flags(p):
        p.add_argument("--graph")
        p.add_argument("--embedding")
        p.add_argument("--family", required=True, choices=FAMILIES)
        p.add_argument("--kappa", type=int, required=True)
        p.add_argument("--seed", type=int)
        p.add_argument("--vector")
        p.add_argument("--budget", type=int)
        p.add_argument("--lists")
        p.add_argument("--estar", type=int)
        add_family_params(p)

    p = sub.add_parser("bound", help="evaluate a color-count bound preset")
    p.add_argument("--problem", choices=PROBLEMS)
    p.add_argument("--delta", type=int)
    p.add_argument("--exact-n", type=int)
    p.add_argument("--optimize-alpha", action="store_true")
    p.add_argument("--family-file")
    add_pattern(p)
    add_family_params(p)
    add_r(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("table", help="reproduce a numeric table")
    p.add_argument("--name", required=True)
    p.set_defaults(func=_cmd_table)

    # the run commands match no flag prefix: they take no --r, which would
    # otherwise be read as color's --record-out
    p = sub.add_parser("color", help="run the coloring engine",
                       allow_abbrev=False)
    add_run_flags(p)
    p.add_argument("--record-out")
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("roundtrip",
                       help="run, decode the record, compare the drawn colors",
                       allow_abbrev=False)
    add_run_flags(p)
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("count-records", help="tabulate record counts")
    p.add_argument("--terms", help="term list as CEILING:SIZE tokens")
    p.add_argument("--problem", choices=PROBLEMS)
    p.add_argument("--delta", type=int)
    p.add_argument("--exact-n", type=int)
    p.add_argument("--level-cap", "--n", type=int, required=True,
                   dest="level_cap")
    p.add_argument("--tmax", type=int, required=True)
    p.add_argument("--brute", action="store_true")
    add_pattern(p)
    add_family_params(p)
    add_r(p)
    p.set_defaults(func=_cmd_count_records)

    p = sub.add_parser("verify", help="check a coloring against a property")
    p.add_argument("--graph")
    p.add_argument("--embedding")
    p.add_argument("--coloring", required=True)
    p.add_argument("--property", required=True, choices=PROPERTIES)
    p.add_argument("--pattern")
    add_r(p)
    p.set_defaults(func=_cmd_verify)
    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    # before ValueError: a DecodeError is one, but a broken contract
    except (FamilyContractError, DecodeError, MedialConnectivityError) as exc:
        _note(f"contract violation: {exc}")
        return 3
    except (ValueError, OSError) as exc:
        _note(f"error: {exc}")
        return 2
    except OverflowError as exc:
        _note(f"error: a value is past the float range ({exc})")
        return 2
    except MemoryError:
        _note("error: out of memory; try a smaller host, kappa or budget")
        return 2


if __name__ == "__main__":
    sys.exit(main())
