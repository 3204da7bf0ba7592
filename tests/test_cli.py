"""End-to-end command-line behavior: output format and exit codes.

Exit code map under test: 0 accept/complete, 1 reject/incomplete,
2 usage or domain error, 3 broken run contract.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import recolor
import recolor.engine
from recolor.bounds import PROBLEMS, kappa_preset
from recolor.cli import FAMILIES, PROPERTIES, main
from recolor.errors import DecodeError, FamilyContractError

K3_GRAPH = "3 3\n1 2\n1 3\n2 3\n"
K3_ROTATION = "3 3\n1: 2 3\n2: 1 3\n3: 1 2\n"
TWO_EDGES_ROTATION = "4 2\n1: 2\n2: 1\n3: 4\n4: 3\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(out):
    pairs = {}
    literature = {}
    for line in out.splitlines():
        fields = line.split("\t")
        if fields[0] == "literature":
            literature[fields[1]] = int(fields[2])
        elif len(fields) == 2:
            pairs[fields[0]] = fields[1]
    return pairs, literature


# --- bound -------------------------------------------------------------------

def test_bound_acyclic_headline(capsys):
    code, out, err = run_cli(capsys, "bound", "--problem", "acyclic-v1",
                             "--delta", "27", "--alpha", "0.225")
    assert code == 0
    pairs, literature = kv(out)
    assert pairs["pinned_kappa"] == "194"
    assert pairs["optimized_kappa"] == "183"
    assert literature["kostochka-stocker"] == 197
    assert "194" in err


def test_bound_acyclic_half_alpha(capsys):
    code, out, _ = run_cli(capsys, "bound", "--problem", "acyclic-v1",
                           "--delta", "27")
    assert code == 0
    pairs, _ = kv(out)
    assert pairs["pinned_kappa"] == "242"
    assert float(pairs["pinned_ratio"]) == pytest.approx(241.5)


def test_bound_optimize_alpha_flag(capsys):
    code, out, _ = run_cli(capsys, "bound", "--problem", "acyclic-v1",
                           "--delta", "27", "--optimize-alpha")
    assert code == 0
    pairs, _ = kv(out)
    assert float(pairs["alpha"]) == pytest.approx(0.225, abs=5e-4)
    assert pairs["pinned_kappa"] == "194"


def test_bound_facial_edge_reserve(capsys):
    code, out, _ = run_cli(capsys, "bound", "--problem", "facial-thue-edge")
    assert code == 0
    pairs, literature = kv(out)
    assert pairs["pinned_kappa"] == "9"
    assert pairs["kappa_total"] == "10"
    assert literature == {"schreyer-skrabulakova": 291, "przybylo": 12}


def test_bound_gamma(capsys):
    code, out, _ = run_cli(capsys, "bound", "--problem", "acyclic-gamma",
                           "--delta", "10", "--gamma", "1")
    assert code == 0
    pairs, literature = kv(out)
    assert pairs["pinned_kappa"] == "35"
    assert literature["alon-mcdiarmid-reed"] == 320


def test_bound_family_file(capsys, tmp_path):
    terms = tmp_path / "terms.txt"
    terms.write_text("2:1 3:2")
    code, out, _ = run_cli(capsys, "bound", "--family-file", str(terms))
    assert code == 0
    pairs, _ = kv(out)
    assert pairs["optimized_kappa"] == "6"


@pytest.mark.parametrize("terms", [
    "8.0:2 8.98846567431158e+307:1 8.98846567431158e+307:1",  # ratio is inf
])
def test_bound_family_file_past_float_range(capsys, tmp_path, terms):
    path = tmp_path / "terms.txt"
    path.write_text(terms)
    code, out, err = run_cli(capsys, "bound", "--family-file", str(path))
    assert code == 2 and out == ""
    assert "float range" in err


@pytest.mark.parametrize("problem",
                         ["nonrepetitive-vertex", "acyclic-gamma", "acyclic-v2"])
@pytest.mark.parametrize("command", [["bound"],
                                     ["count-records", "--n", "5", "--tmax", "5"]],
                         ids=["bound", "count-records"])
def test_exact_preset_past_float_range(capsys, problem, command):
    # at n = 1000 the largest class ceilings pass the float range
    code, out, err = run_cli(capsys, *command, "--problem", problem,
                             "--delta", "9", "--exact-n", "1000")
    assert code == 2 and out == ""
    assert "float range" in err


def test_bound_family_file_huge_ceiling_keeps_its_minimizer(capsys, tmp_path):
    # (s - 1) C passes the float maximum, (s - 1) (C x^s) does not: the
    # minimizer sits near 1.77e-103 instead of underflowing to 0
    path = tmp_path / "terms.txt"
    path.write_text("8.98846567431158e+307:3")
    code, out, _ = run_cli(capsys, "bound", "--family-file", str(path))
    assert code == 0
    got = dict(line.split("\t") for line in out.splitlines())
    assert float(got["optimized_x"]) == pytest.approx(1.7718548704174474e-103)
    assert math.isfinite(float(got["optimized_ratio"]))


def test_bound_pattern_shape_single_path_is_the_star_bound(capsys):
    code, out, _ = run_cli(capsys, "bound", "--problem", "pair-forbidden",
                           "--delta", "10", "--pattern-shape", "4:3")
    assert code == 0
    pairs, _ = kv(out)
    assert pairs["problem"] == "star"
    star = kappa_preset("star", 10)
    assert pairs["pinned_kappa"] == str(star.pinned.kappa)
    assert pairs["optimized_kappa"] == str(star.optimized.kappa)


@pytest.mark.parametrize("problem", ["pair-forbidden", "star"])
@pytest.mark.parametrize("shape", ["4", "4:3:2", "4:x", "4:3,:3"])
def test_bound_malformed_pattern_shape(capsys, problem, shape):
    code, out, err = run_cli(capsys, "bound", "--problem", problem,
                             "--delta", "5", "--pattern-shape", shape)
    assert code == 2 and out == ""
    assert "bad pattern shape" in err
    assert "Traceback" not in err


def test_bound_domain_error(capsys):
    code, _, err = run_cli(capsys, "bound", "--problem", "acyclic-v1",
                           "--delta", "27", "--alpha", "1.5")
    assert code == 2
    assert "alpha" in err


def test_bound_needs_a_target(capsys):
    code, _, err = run_cli(capsys, "bound")
    assert code == 2
    assert "family-file" in err


# --- table ---------------------------------------------------------------------

def test_table_cs(capsys):
    code, out, _ = run_cli(capsys, "table", "--name", "cs")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "delta\talpha"
    got = dict(line.split("\t") for line in lines[1:])
    assert got["27"] == "0.225"
    assert got["10000"] == "0.384"
    assert len(got) == 9


def test_table_unknown(capsys):
    code, _, err = run_cli(capsys, "table", "--name", "nope")
    assert code == 2
    assert "unknown table" in err


# --- color -------------------------------------------------------------------

def test_color_documented_vector(capsys, tmp_path):
    graph = tmp_path / "k3.txt"
    graph.write_text(K3_GRAPH)
    record = tmp_path / "k3.rec"
    code, out, err = run_cli(
        capsys, "color", "--graph", str(graph), "--family", "acyclic-gamma",
        "--kappa", "3", "--vector", "1,1,2,3,2",
        "--record-out", str(record))
    assert code == 0
    assert out == "1\t1\n2\t2\n3\t3\n"
    assert "Completed" in err
    body = record.read_text().splitlines()
    assert "# family: acyclic-gamma" in body
    assert "# status: Completed" in body
    assert "# steps: 4" in body
    moves = [line for line in body if not line.startswith("#")]
    assert moves == ["Color", "Color", "Uncolor, Bad Event 1, 1",
                     "Color", "Color"]


def test_color_budget_zero_exhausts(capsys, tmp_path):
    graph = tmp_path / "k3.txt"
    graph.write_text(K3_GRAPH)
    record = tmp_path / "empty.rec"
    code, out, err = run_cli(
        capsys, "color", "--graph", str(graph), "--family", "acyclic-gamma",
        "--kappa", "4", "--seed", "9", "--budget", "0",
        "--record-out", str(record))
    assert code == 1
    assert out == ""
    assert "BudgetExhausted" in err
    moves = [line for line in record.read_text().splitlines()
             if line and not line.startswith("#")]
    assert moves == []


def test_color_facial_edge_leaves_reserve(capsys, tmp_path):
    rotation = tmp_path / "k3.rot"
    rotation.write_text(K3_ROTATION)
    code, out, _ = run_cli(
        capsys, "color", "--embedding", str(rotation),
        "--family", "facial-thue-edge", "--estar", "3",
        "--kappa", "4", "--seed", "2", "--budget", "30")
    assert code == 0
    colored = dict(line.split("\t") for line in out.splitlines())
    assert "3" not in colored
    assert len(colored) == 2


def test_color_ordered_graph_file_beside_its_embedding(capsys, tmp_path):
    # the graph file's order line is kept: vertex 3 is colored first
    graph = tmp_path / "k3.txt"
    graph.write_text("3 3\norder: 3 1 2\n1 2\n1 3\n2 3\n")
    rotation = tmp_path / "k3.rot"
    rotation.write_text(K3_ROTATION)
    code, out, _ = run_cli(
        capsys, "color", "--graph", str(graph), "--embedding", str(rotation),
        "--family", "facial-thue-vertex", "--kappa", "3", "--vector", "1,2,3")
    assert code == 0
    assert out == "1\t2\n2\t3\n3\t1\n"


def test_color_embedding_with_other_edges_than_the_graph_file(capsys, tmp_path):
    graph = tmp_path / "p3.txt"
    graph.write_text("3 2\n1 2\n2 3\n")
    rotation = tmp_path / "k3.rot"
    rotation.write_text(K3_ROTATION)
    code, out, err = run_cli(
        capsys, "color", "--graph", str(graph), "--embedding", str(rotation),
        "--family", "facial-thue-vertex", "--kappa", "3", "--vector", "1,2,3")
    assert code == 2 and out == ""
    assert "does not match the graph file" in err


def test_color_refuses_rotation_lines_past_n(capsys, tmp_path):
    rotation = tmp_path / "k3.rot"
    rotation.write_text(K3_ROTATION + "7:\n")
    code, out, err = run_cli(
        capsys, "color", "--embedding", str(rotation),
        "--family", "facial-thue-vertex", "--kappa", "3", "--vector", "1,2,3")
    assert code == 2 and out == ""
    assert "line 5: vertex 7 out of range 1..3" in err


def test_color_needs_randomness_source(capsys, tmp_path):
    graph = tmp_path / "k3.txt"
    graph.write_text(K3_GRAPH)
    code, _, err = run_cli(capsys, "color", "--graph", str(graph),
                           "--family", "acyclic-gamma", "--kappa", "3")
    assert code == 2
    assert "--seed or --vector" in err


def test_color_disconnected_medial_is_contract_violation(capsys, tmp_path):
    rotation = tmp_path / "disj.rot"
    rotation.write_text(TWO_EDGES_ROTATION)
    code, _, err = run_cli(
        capsys, "color", "--embedding", str(rotation),
        "--family", "facial-thue-edge", "--estar", "1",
        "--kappa", "5", "--seed", "1", "--budget", "10")
    assert code == 3
    assert "contract violation" in err


def test_color_lists_file(capsys, tmp_path):
    graph = tmp_path / "k3.txt"
    graph.write_text(K3_GRAPH)
    lists = tmp_path / "lists.txt"
    lists.write_text("1: 11 12 13\n2: 21 22 23\n3: 31 32 33\n")
    code, out, _ = run_cli(
        capsys, "color", "--graph", str(graph), "--family", "acyclic-gamma",
        "--kappa", "3", "--seed", "5", "--budget", "40",
        "--lists", str(lists))
    assert code == 0
    colors = {int(line.split("\t")[0]): int(line.split("\t")[1])
              for line in out.splitlines()}
    assert colors[1] in (11, 12, 13)
    assert colors[2] in (21, 22, 23)


@pytest.mark.parametrize("text", ["x: 1 2\n", "# lists\n1: 1 y\n", "1 2 3\n"])
def test_color_lists_file_names_its_bad_line(capsys, tmp_path, text):
    graph = tmp_path / "k3.txt"
    graph.write_text(K3_GRAPH)
    lists = tmp_path / "lists.txt"
    lists.write_text(text)
    code, out, err = run_cli(
        capsys, "color", "--graph", str(graph), "--family", "acyclic-gamma",
        "--kappa", "3", "--seed", "5", "--budget", "40",
        "--lists", str(lists))
    assert code == 2 and out == ""
    line = text.count("\n")
    assert f"lists line {line}" in err, err


# --- roundtrip -----------------------------------------------------------------

def test_roundtrip_pass(capsys, tmp_path):
    graph = tmp_path / "k3.txt"
    graph.write_text(K3_GRAPH)
    code, out, _ = run_cli(
        capsys, "roundtrip", "--graph", str(graph),
        "--family", "acyclic-gamma", "--kappa", "4",
        "--seed", "7", "--budget", "50")
    assert code == 0
    assert out.startswith("PASS")


def test_roundtrip_ordered_graph_file_beside_its_embedding(capsys, tmp_path):
    graph = tmp_path / "k3.txt"
    graph.write_text("3 3\norder: 3 1 2\n1 2\n1 3\n2 3\n")
    rotation = tmp_path / "k3.rot"
    rotation.write_text(K3_ROTATION)
    code, out, _ = run_cli(
        capsys, "roundtrip", "--graph", str(graph), "--embedding", str(rotation),
        "--family", "facial-thue-vertex", "--kappa", "3",
        "--seed", "4", "--budget", "40")
    assert code == 0
    assert out.startswith("PASS")


def test_roundtrip_exhausted_run_still_passes(capsys, tmp_path):
    graph = tmp_path / "k3.txt"
    graph.write_text(K3_GRAPH)
    code, out, _ = run_cli(
        capsys, "roundtrip", "--graph", str(graph),
        "--family", "acyclic-gamma", "--kappa", "2",
        "--seed", "3", "--budget", "6")
    assert code == 0
    assert out == "PASS\t6\n"


@pytest.mark.parametrize("target, error, code, message", [
    ("decode", DecodeError("replay diverged"), 3,
     "contract violation: replay diverged"),
    ("run", FamilyContractError("class out of range"), 3,
     "contract violation: class out of range"),
    ("decode", ValueError("bad value"), 2, "error: bad value"),
])
def test_roundtrip_error_exit_codes(capsys, tmp_path, monkeypatch,
                                    target, error, code, message):
    # a DecodeError is a ValueError, but it reports a broken contract
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(recolor.engine, target, broken)
    graph = tmp_path / "k3.txt"
    graph.write_text(K3_GRAPH)
    got, out, err = run_cli(
        capsys, "roundtrip", "--graph", str(graph),
        "--family", "acyclic-gamma", "--kappa", "4",
        "--seed", "7", "--budget", "50")
    assert (got, out) == (code, "")
    assert message in err


# --- count-records ---------------------------------------------------------------

def test_count_records_catalan(capsys):
    code, out, err = run_cli(capsys, "count-records", "--terms", "1:2",
                             "--level-cap", "10", "--tmax", "6", "--brute")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert rows[0] == ["t", "b", "r", "bound"]
    assert [r[1] for r in rows[1:]] == ["1", "0", "1", "0", "2", "0", "5"]
    assert "agrees" in err


def test_count_records_bound_past_float_range(capsys):
    # the bound column leaves the float range near t = 209; the rows go on
    # in scientific notation instead of raising OverflowError
    code, out, _ = run_cli(capsys, "count-records", "--problem",
                           "nonrepetitive-vertex", "--delta", "3",
                           "--exact-n", "20", "--level-cap", "20",
                           "--tmax", "240")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(241))
    bounds = [float(r[3]) for r in rows]
    assert all(b < c for b, c in zip(bounds[:200], bounds[1:201]))
    mantissa, _, exponent = rows[240][3].partition("e+")
    assert 1 <= float(mantissa) < 10 and int(exponent) > 308
    log_ratio = (math.log10(float(mantissa)) + int(exponent)
                 - math.log10(bounds[200])) / 40
    assert log_ratio == pytest.approx(math.log10(bounds[200] / bounds[199]))


def test_count_records_huge_ceiling(capsys):
    code, out, _ = run_cli(capsys, "count-records", "--terms", "1e300:1",
                           "--level-cap", "3", "--tmax", "3")
    assert code == 0
    bounds = [line.split("\t")[3] for line in out.splitlines()[1:]]
    assert bounds == ["1e+300", "1e+600", "1e+900", "1e+1200"]


@pytest.mark.parametrize("term", ["1e400:1", "inf:2", "nan:1"])
def test_count_records_rejects_non_finite_ceiling(capsys, term):
    code, out, err = run_cli(capsys, "count-records", "--terms", term,
                             "--level-cap", "3", "--tmax", "3")
    assert code == 2 and out == ""
    assert "must be finite" in err


def test_count_records_ceiling_sum_past_float_range(capsys):
    code, out, err = run_cli(capsys, "count-records", "--terms",
                             "1.7e308:1 1.7e308:1 1.7e308:1",
                             "--level-cap", "3", "--tmax", "3")
    assert code == 2 and out == ""
    assert "ceiling sum" in err


def test_count_records_brute_refuses_huge_counts(capsys):
    code, out, err = run_cli(capsys, "count-records", "--terms", "1e300:1",
                             "--level-cap", "3", "--tmax", "3", "--brute")
    assert code == 2 and out == ""
    assert "refusing to enumerate" in err


def test_count_records_preset_needs_exact_terms(capsys):
    code, _, err = run_cli(capsys, "count-records", "--problem",
                           "facial-thue-edge", "--level-cap", "3",
                           "--tmax", "4")
    assert code == 2
    assert "--exact-n" in err
    code, out, _ = run_cli(capsys, "count-records", "--problem",
                           "facial-thue-edge", "--exact-n", "6",
                           "--level-cap", "3", "--tmax", "4", "--brute")
    assert code == 0
    assert len(out.splitlines()) == 6


def test_count_records_sub_unit_ceilings(capsys):
    # every ceiling floors to 0 classes: b_t = 0 and r_t = 1 (t plain
    # climbs), while the bound keeps the unfloored ceiling.  For 5e-324 the
    # root of the characteristic system sits near 2^537, whose square is
    # past the float range
    code, out, _ = run_cli(capsys, "count-records", "--terms", "5e-324:2",
                           "--level-cap", "3", "--tmax", "3")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert [(r[1], r[2]) for r in rows] == [("1", "1")] + [("0", "1")] * 3
    assert all(math.isfinite(float(r[3])) for r in rows)
    code, out, _ = run_cli(capsys, "count-records", "--terms", "0.5:2",
                           "--level-cap", "3", "--tmax", "3")
    assert code == 0
    assert out == ("t\tb\tr\tbound\n"
                   "0\t1\t1\t2.000000000000001\n"
                   "1\t0\t1\t2.828427124746191\n"
                   "2\t0\t1\t4.000000000000001\n"
                   "3\t0\t1\t5.6568542494923815\n")


@pytest.mark.parametrize("terms", ["0:2", "0:1", "0:1 0:3"])
def test_count_records_all_zero_ceilings(capsys, terms):
    # Q = 1: base and prefactor 1, so the growth check reads b_t <= 1
    code, out, _ = run_cli(capsys, "count-records", "--terms", terms,
                           "--level-cap", "3", "--tmax", "3")
    assert code == 0
    assert out == ("t\tb\tr\tbound\n"
                   "0\t1\t1\t1.0\n"
                   "1\t0\t1\t1.0\n"
                   "2\t0\t1\t1.0\n"
                   "3\t0\t1\t1.0\n")


def test_count_records_requires_input(capsys):
    code, _, err = run_cli(capsys, "count-records", "--level-cap", "2",
                           "--tmax", "3")
    assert code == 2
    assert "--terms or --problem" in err


# --- verify --------------------------------------------------------------------

def test_verify_accept_and_reject(capsys, tmp_path):
    graph = tmp_path / "k3.txt"
    graph.write_text(K3_GRAPH)
    good = tmp_path / "good.phi"
    good.write_text("1 1\n2 2\n3 3\n")
    code, out, _ = run_cli(capsys, "verify", "--graph", str(graph),
                           "--coloring", str(good), "--property", "proper")
    assert code == 0
    assert out == "ACCEPT\n"
    bad = tmp_path / "bad.phi"
    bad.write_text("1 1\n2 1\n3 3\n")
    code, out, err = run_cli(capsys, "verify", "--graph", str(graph),
                             "--coloring", str(bad), "--property", "proper")
    assert code == 1
    assert out.startswith("REJECT")
    assert "monochromatic" in err


@pytest.mark.parametrize("flag, prop", [("--graph", "proper"),
                                        ("--embedding", "facial-thue-vertex")])
def test_verify_refuses_a_huge_header(capsys, tmp_path, flag, prop):
    # the header is refused before any per-vertex table is allocated
    graph = tmp_path / "huge.txt"
    graph.write_text("1000000000 0\n")
    phi = tmp_path / "one.phi"
    phi.write_text("1 1\n")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", flag, str(graph),
                             "--coloring", str(phi), "--property", prop)
    assert code == 2 and out == ""
    assert "line 1: header announces 1000000000 vertices" in err
    assert time.perf_counter() - start < 5


def test_verify_facial_edge(capsys, tmp_path):
    rotation = tmp_path / "k3.rot"
    rotation.write_text(K3_ROTATION)
    phi = tmp_path / "edges.phi"
    phi.write_text("1 1\n2 2\n3 3\n")
    code, out, _ = run_cli(capsys, "verify", "--embedding", str(rotation),
                           "--coloring", str(phi),
                           "--property", "facial-thue-edge")
    assert code == 0
    assert out == "ACCEPT\n"


def test_verify_r_acyclic(capsys, tmp_path):
    graph = tmp_path / "c6.txt"
    graph.write_text("6 6\n1 2\n2 3\n3 4\n4 5\n5 6\n1 6\n")
    phi = tmp_path / "c6.phi"
    phi.write_text("1 1\n2 2\n3 3\n4 1\n5 2\n6 3\n")
    code, out, _ = run_cli(capsys, "verify", "--graph", str(graph),
                           "--coloring", str(phi),
                           "--property", "r-acyclic", "--r", "4")
    assert code == 1
    assert "REJECT" in out


def test_verify_bad_coloring_file(capsys, tmp_path):
    graph = tmp_path / "k3.txt"
    graph.write_text(K3_GRAPH)
    phi = tmp_path / "garbled.phi"
    phi.write_text("1 red\n")
    code, _, err = run_cli(capsys, "verify", "--graph", str(graph),
                           "--coloring", str(phi), "--property", "proper")
    assert code == 2
    assert "expected 'object color'" in err


def test_verify_missing_file(capsys):
    code, _, err = run_cli(capsys, "verify", "--graph", "/nonexistent.txt",
                           "--coloring", "/also-missing.phi",
                           "--property", "proper")
    assert code == 2


# --- wiring --------------------------------------------------------------------

def _cli_process(*argv):
    """`python -m recolor.cli ARGV` in a child importing this recolor."""
    path = [str(Path(recolor.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return subprocess.run(
        [sys.executable, "-m", "recolor.cli", *argv], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})


def test_module_entry_point_runs():
    proc = _cli_process("bound", "--problem", "facial-thue-edge")
    assert proc.returncode == 0
    assert "kappa_total\t10" in proc.stdout


def test_argparse_usage_error_is_exit_two():
    proc = _cli_process("bound", "--problem", "nope")
    assert proc.returncode == 2


# --- fuzzed argv ---------------------------------------------------------------

_CEILINGS = st.one_of(
    st.floats(),
    st.floats(min_value=1e300, max_value=sys.float_info.max),
    st.integers(0, 5).map(float))
_TERMS = st.lists(st.tuples(_CEILINGS, st.integers(-1, 5)), max_size=4).map(
    lambda terms: " ".join(f"{c!r}:{s}" for c, s in terms))


_SHAPES = st.lists(st.one_of(
    st.tuples(st.integers(-1, 8), st.integers(-1, 20)).map(
        lambda nm: f"{nm[0]}:{nm[1]}"),
    st.sampled_from(["4", "4:3:2", ":", "4:", ":3", "x:3", "1.5:2"])),
    max_size=3).map(" ".join)


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        return exc.code


@settings(max_examples=60, deadline=None)
@given(terms=_TERMS, level_cap=st.integers(-1, 30), tmax=st.integers(-1, 30))
def test_count_records_fuzzed_argv_keeps_exit_codes(terms, level_cap, tmax):
    code = _exit_code(["count-records", f"--terms={terms}",
                       f"--level-cap={level_cap}", f"--tmax={tmax}"])
    assert code in (0, 1, 2, 3)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_bound_fuzzed_argv_keeps_exit_codes(tmp_path, data):
    if data.draw(st.booleans(), label="family file"):
        path = tmp_path / "terms.txt"
        path.write_text(data.draw(_TERMS, label="terms"))
        argv = ["bound", f"--family-file={path}"]
    else:
        argv = ["bound", f"--problem={data.draw(st.sampled_from(PROBLEMS))}",
                f"--delta={data.draw(st.integers(-1, 10 ** 6))}",
                f"--alpha={data.draw(st.floats())!r}",
                f"--gamma={data.draw(st.integers(-1, 5))}",
                f"--r={data.draw(st.integers(-1, 8))}",
                f"--form={data.draw(st.sampled_from(('vertex', 'edge')))}"]
        if data.draw(st.booleans(), label="exact n"):
            argv.append(f"--exact-n={data.draw(st.integers(-1, 30))}")
        if data.draw(st.booleans(), label="optimize alpha"):
            argv.append("--optimize-alpha")
        if data.draw(st.booleans(), label="pattern shape"):
            argv.append(f"--pattern-shape={data.draw(_SHAPES)}")
    assert _exit_code(argv) in (0, 1, 2, 3)


# Malformed input files: valid documents garbled by dropped, repeated or
# appended lines and replaced tokens.  Numbers stay small, because a graph
# header's vertex count is allocated as given.
_TOKEN = st.one_of(st.integers(-2, 12).map(str), st.sampled_from(
    ["x", "1.5", "1e3", ":", "#", "order:", "-", "\u00e9", "1:2"]))
_GRAPH_DOCS = (K3_GRAPH, "4 4\n1 2\n2 3\n3 4\n4 1\n",
               "4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n",
               "5 4\n1 2\n1 3\n1 4\n1 5\norder: 5 4 3 2 1\n",
               "1 0\n", "0 0\n", "2 1\n1 2\n")
_ROTATION_DOCS = (K3_ROTATION, TWO_EDGES_ROTATION,
                  "4 6\n1: 2 3 4\n2: 1 4 3\n3: 1 2 4\n4: 1 3 2\n",
                  "1 0\n1:\n", "2 1\n1: 2\n2: 1\n")
_COLORING_DOCS = ("1 1\n2 2\n3 3\n", "1 1\n2 1\n3 2\n4 2\n",
                  "1 1\n2 2\n3 3\n4 1\n5 2\n6 3\n", "")
_LIST_DOCS = ("1: 1 2 3\n2: 2 3 4\n3: 1 3 5\n",
              "1: 1 2\n2: 1 2\n3: 1 2\n4: 1 2\n5: 1 2\n6: 1 2\n")


@st.composite
def _garbled(draw, docs):
    lines = draw(st.sampled_from(docs)).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(("drop", "repeat", "token", "append")))
        if op == "append" or not lines:
            lines.append(" ".join(draw(st.lists(_TOKEN, max_size=4))))
            continue
        i = draw(st.integers(0, len(lines) - 1))
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif tokens := lines[i].split():
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_TOKEN)
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _file(data, tmp_path, name, docs):
    path = tmp_path / name
    path.write_text(data.draw(_garbled(docs), label=name))
    return str(path)


def _run_argv(data, tmp_path, command):
    family = data.draw(st.sampled_from(FAMILIES), label="family")
    argv = [command, f"--family={family}",
            f"--kappa={data.draw(st.integers(-1, 6))}",
            f"--gamma={data.draw(st.integers(-1, 4))}",
            f"--alpha={data.draw(st.floats())!r}",
            f"--estar={data.draw(st.integers(-1, 8))}"]
    if family.startswith("facial") or data.draw(st.booleans()):
        argv.append(f"--embedding={_file(data, tmp_path, 'rot', _ROTATION_DOCS)}")
    if not family.startswith("facial") or data.draw(st.booleans()):
        argv.append(f"--graph={_file(data, tmp_path, 'graph', _GRAPH_DOCS)}")
    if data.draw(st.booleans(), label="vector"):
        vector = data.draw(st.lists(st.integers(-1, 6), max_size=30))
        argv.append("--vector=" + ",".join(map(str, vector)))
    else:
        argv += [f"--seed={data.draw(st.integers(-1, 2 ** 40))}",
                 f"--budget={data.draw(st.integers(-1, 40))}"]
    if data.draw(st.booleans(), label="lists"):
        argv.append(f"--lists={_file(data, tmp_path, 'lists', _LIST_DOCS)}")
    return argv


_FILE_FUZZ = settings(max_examples=60, deadline=None,
                      suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FILE_FUZZ
@given(data=st.data())
def test_color_fuzzed_files_keep_exit_codes(tmp_path, data):
    argv = _run_argv(data, tmp_path, "color")
    if data.draw(st.booleans(), label="record out"):
        argv.append(f"--record-out={tmp_path / 'run.rec'}")
    assert _exit_code(argv) in (0, 1, 2, 3)


@_FILE_FUZZ
@given(data=st.data())
def test_roundtrip_fuzzed_files_keep_exit_codes(tmp_path, data):
    assert _exit_code(_run_argv(data, tmp_path, "roundtrip")) in (0, 1, 2, 3)


@_FILE_FUZZ
@given(data=st.data())
def test_verify_fuzzed_files_keep_exit_codes(tmp_path, data):
    prop = data.draw(st.sampled_from(PROPERTIES), label="property")
    argv = ["verify", f"--property={prop}",
            f"--coloring={_file(data, tmp_path, 'phi', _COLORING_DOCS)}",
            f"--r={data.draw(st.integers(-1, 6))}"]
    if prop.startswith("facial") or data.draw(st.booleans()):
        argv.append(f"--embedding={_file(data, tmp_path, 'rot', _ROTATION_DOCS)}")
    if not prop.startswith("facial") or data.draw(st.booleans()):
        argv.append(f"--graph={_file(data, tmp_path, 'graph', _GRAPH_DOCS)}")
    if data.draw(st.booleans(), label="pattern"):
        argv.append(f"--pattern={_file(data, tmp_path, 'pattern', _GRAPH_DOCS)}")
    assert _exit_code(argv) in (0, 1, 2, 3)
