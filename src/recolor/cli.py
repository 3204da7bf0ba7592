"""Command-line surface: bounds, tables, runs, roundtrips, record counts,
and validation, emitting machine-readable TSV on stdout and a short human
summary on stderr.

Exit codes: 0 success/accept, 1 reject or incomplete run, 2 usage or domain
error, 3 broken internal contract (a `roundtrip` decode inconsistency
included).

Only `bounds`, `records` and `errors` load with this module, all that
`bound`, `table` and `count-records` run; every other module is imported
by the command or helper that calls it.
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
    PROBLEMS,
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

FAMILIES = (
    "acyclic-gamma",
    "acyclic-v1",
    "acyclic-v2",
    "nonrepetitive-vertex",
    "nonrepetitive-edge",
    "facial-thue-vertex",
    "facial-thue-edge",
)

PROPERTIES = (
    "proper",
    "acyclic",
    "nonrepetitive-vertex",
    "nonrepetitive-edge",
    "facial-thue-vertex",
    "facial-thue-edge",
    "r-acyclic",
    "pair-forbidden",
)

_ALPHA_TABLE_DELTAS = (27, 28, 29, 30, 100, 1000, 10000, 100000, 1000000)


def _emit(*fields) -> None:
    print("\t".join(str(f) for f in fields))


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _read(path: str) -> str:
    return Path(path).read_text()


def _load_embedding(args, g: Graph | None) -> PlaneGraph:
    from .planar import load_rotation

    if not args.embedding:
        raise ValueError(f"{args.family} needs --embedding")
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


def _parse_coloring(text: str) -> dict[int, int]:
    from .graphs import _clean_lines

    phi = {}
    for no, line in _clean_lines(text):
        try:
            obj, color = map(int, line.split())
        except ValueError:
            raise ValueError(f"coloring line {no}: expected 'object color'") \
                from None
        phi[obj] = color
    return phi


def _parse_lists(text: str) -> dict[int, tuple[int, ...]]:
    from .graphs import _clean_lines

    lists = {}
    for no, line in _clean_lines(text):
        head, sep, tail = line.partition(":")
        try:
            if not sep:
                raise ValueError
            lists[int(head)] = tuple(int(c) for c in tail.split())
        except ValueError:
            raise ValueError(f"lists line {no}: expected 'object: c1 c2 ...'") \
                from None
    return lists


def _build_family(args, g: Graph | None):
    from .families import (
        acyclic_gamma_family,
        acyclic_v1_family,
        acyclic_v2_family,
        facial_thue_edge_family,
        facial_thue_vertex_family,
        nonrepetitive_edge_family,
        nonrepetitive_vertex_family,
    )

    name = args.family
    if name == "acyclic-gamma":
        return g, acyclic_gamma_family(g, args.gamma)
    if name == "acyclic-v1":
        return g, acyclic_v1_family(g, args.alpha)
    if name == "acyclic-v2":
        return g, acyclic_v2_family(g, args.alpha)
    if name == "nonrepetitive-vertex":
        return g, nonrepetitive_vertex_family(g)
    if name == "nonrepetitive-edge":
        return g, nonrepetitive_edge_family(g)
    pg = _load_embedding(args, g)
    if name == "facial-thue-vertex":
        return pg.graph, facial_thue_vertex_family(pg)
    if args.estar is None:
        raise ValueError("facial-thue-edge needs --estar")
    return pg.graph, facial_thue_edge_family(pg, args.estar)


def _engine_input(args) -> EngineInput:
    from .engine import EngineInput

    lists = _parse_lists(_read(args.lists)) if args.lists else None
    if args.vector:
        vector = tuple(int(x) for x in args.vector.replace(",", " ").split())
        return EngineInput(args.kappa, vector=vector, lists=lists)
    if args.seed is None:
        raise ValueError("supply --seed or --vector")
    if args.budget is None:
        raise ValueError("seeded runs need --budget")
    return EngineInput(args.kappa, seed=args.seed, budget=args.budget,
                       lists=lists)


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
        alpha = optimal_alpha(args.delta)
    descriptors = None
    if args.pattern_shape:
        descriptors = [(n, m) for _, n, m in _pairs(
            args.pattern_shape, int, "pattern shape", "N:M")]
    bound = kappa_preset(args.problem, args.delta, gamma=args.gamma,
                         alpha=alpha, r=args.r, n=args.exact_n,
                         descriptors=descriptors, form=args.form)
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
    from .graphs import load_graph

    g = load_graph(_read(args.graph)) if args.graph else None
    g, fam = _build_family(args, g)
    inp = _engine_input(args)
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
    from .engine import decode, run
    from .graphs import load_graph

    g = load_graph(_read(args.graph)) if args.graph else None
    g, fam = _build_family(args, g)
    inp = _engine_input(args)
    res = run(g, fam, inp)
    recovered = tuple(decode(g, fam, res.coloring, res.record,
                             lists=inp.lists))
    expected = tuple(inp.make_vector()[:res.steps_used])
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
        bound = kappa_preset(args.problem, args.delta, gamma=args.gamma,
                             alpha=args.alpha, r=args.r, n=args.exact_n)
        if bound.q.tail is not None:
            raise ValueError(
                f"{args.problem} has a closed-form tail; pass --exact-n "
                "to get a finite term list")
        terms = list(bound.q.terms)
    else:
        raise ValueError("supply --terms or --problem")
    b, r = record_series(terms, args.level_cap, args.tmax)
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
    from .planar import load_rotation
    from .validators import (
        check_acyclic,
        check_nonrepetitive,
        check_pair_forbidden,
        check_proper,
        check_r_acyclic,
    )

    phi = _parse_coloring(_read(args.coloring))
    prop = args.property
    if prop.startswith("facial"):
        pg = load_rotation(_read(args.embedding)) if args.embedding else None
        if pg is None:
            raise ValueError(f"{prop} needs --embedding")
        g = pg.graph
        objects = "edge" if prop == "facial-thue-edge" else "vertex"
        result = check_nonrepetitive(g, phi, objects=objects, facial=pg)
    else:
        g = load_graph(_read(args.graph))
        if prop == "proper":
            result = check_proper(g, phi)
        elif prop == "acyclic":
            result = check_acyclic(g, phi)
        elif prop == "nonrepetitive-vertex":
            result = check_nonrepetitive(g, phi, objects="vertex")
        elif prop == "nonrepetitive-edge":
            result = check_nonrepetitive(g, phi, objects="edge")
        elif prop == "r-acyclic":
            result = check_r_acyclic(g, phi, args.r)
        else:
            if not args.pattern:
                raise ValueError("pair-forbidden needs --pattern")
            h = load_graph(_read(args.pattern))
            result = check_pair_forbidden(g, phi, h)
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
        p.add_argument("--r", type=int, default=4)

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
    p.add_argument("--pattern-shape",
                   help="pair-forbidden descriptors as N:M pairs")
    p.add_argument("--form", choices=("vertex", "edge"), default="vertex")
    add_family_params(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("table", help="reproduce a numeric table")
    p.add_argument("--name", required=True)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("color", help="run the coloring engine")
    add_run_flags(p)
    p.add_argument("--record-out")
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("roundtrip",
                       help="run, decode the record, compare the drawn colors")
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
    add_family_params(p)
    p.set_defaults(func=_cmd_count_records)

    p = sub.add_parser("verify", help="check a coloring against a property")
    p.add_argument("--graph")
    p.add_argument("--embedding")
    p.add_argument("--coloring", required=True)
    p.add_argument("--property", required=True, choices=PROPERTIES)
    p.add_argument("--pattern")
    p.add_argument("--r", type=int, default=4)
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


if __name__ == "__main__":
    sys.exit(main())
