import ast
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import sierpindex as sx
from sierpindex import cli, closedform


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture()
def k3_file(tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text(sx.render_edge_list(sx.complete_graph(3)))
    return str(path)


@pytest.fixture()
def k5_file(tmp_path):
    path = tmp_path / "k5.txt"
    path.write_text(sx.render_edge_list(sx.complete_graph(5)))
    return str(path)


@pytest.fixture()
def k4_file(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text(sx.render_edge_list(sx.complete_graph(4)))
    return str(path)


@pytest.fixture()
def k2_file(tmp_path):
    path = tmp_path / "k2.txt"
    path.write_text(sx.render_edge_list(sx.complete_graph(2)))
    return str(path)


def test_gen_writes_edge_list(capsys):
    rc, out, _ = run(capsys, "gen", "complete", "3")
    assert rc == 0
    assert out == "p 3 3\n1 2\n1 3\n2 3\n"


def test_gen_demo_graph(capsys):
    rc, out, _ = run(capsys, "gen", "demo")
    assert rc == 0
    assert out.startswith("p 7 8\n")


def test_gen_usage_error(capsys):
    rc, _, err = run(capsys, "gen", "cycle", "2")
    assert rc == 2
    assert "cycle needs n >= 3" in err


def test_expand_pair_gives_path(capsys, k2_file):
    rc, out, _ = run(capsys, "expand", k2_file, "--variant", "S", "--t", "2")
    assert rc == 0
    assert out == "p 4 3\n1 2\n2 3\n3 4\n"


def test_expand_polymeric_level1(capsys, k3_file):
    rc, out, _ = run(capsys, "expand", k3_file, "--variant", "P", "--t", "1")
    assert rc == 0
    g = sx.parse_edge_list(out)
    assert (g.n, g.m) == (4, 6)


def test_expand_budget_refusal(capsys, k3_file):
    rc, _, err = run(capsys, "expand", k3_file, "--variant", "S", "--t", "30")
    assert rc == 3
    assert "vertex budget exceeded" in err


def test_expand_budget_env_override(capsys, k3_file, monkeypatch):
    monkeypatch.setenv("SIERPINDEX_VERTEX_BUDGET", "5")
    rc, _, err = run(capsys, "expand", k3_file, "--variant", "S", "--t", "2")
    assert rc == 3 and "budget" in err
    monkeypatch.setenv("SIERPINDEX_VERTEX_BUDGET", "100")
    rc, out, _ = run(capsys, "expand", k3_file, "--variant", "S", "--t", "2")
    assert rc == 0 and out.startswith("p 9 12\n")


def test_a_non_integer_budget_variable_is_refused_by_name(capsys, k3_file, monkeypatch):
    monkeypatch.setenv("SIERPINDEX_VERTEX_BUDGET", "abc")
    rc, out, err = run(capsys, "expand", k3_file, "--variant", "S", "--t", "2")
    assert (rc, out, err) == (2, "", "error: SIERPINDEX_VERTEX_BUDGET must be an integer, got 'abc'\n")


def test_expand_labels_sidecar(capsys, k2_file, tmp_path):
    labels = tmp_path / "labels.tsv"
    rc, _, _ = run(capsys, "expand", k2_file, "--variant", "S", "--t", "2",
                   "--labels", str(labels))
    assert rc == 0
    assert labels.read_text() == "1\t11\n2\t12\n3\t21\n4\t22\n"


def test_closed_json(capsys, k3_file):
    rc, out, _ = run(capsys, "closed", k3_file, "--variant", "S", "--t", "2",
                     "--alpha", "-0.5")
    assert rc == 0
    doc = json.loads(out)
    assert doc["variant"] == "S" and doc["t"] == 2
    assert math.isclose(doc["value"], 2 + math.sqrt(6), rel_tol=1e-12)
    assert "breakdown" not in doc


def test_closed_exact_big_t(capsys, k3_file):
    rc, out, _ = run(capsys, "closed", k3_file, "--variant", "S", "--t", "100",
                     "--alpha", "1", "--exact")
    assert rc == 0
    doc = json.loads(out)
    assert doc["exact"].isdigit() and len(doc["exact"]) > 40
    # spot-check the same pipeline at a size the oracle can confirm
    small = sx.sierpinski_randic(sx.complete_graph(3), 2, sx.IndexParams(1, exact=True))
    assert small.exact == 90


def test_closed_breakdown(capsys, k3_file):
    rc, out, _ = run(capsys, "closed", k3_file, "--variant", "P", "--t", "2",
                     "--alpha", "-0.5", "--breakdown")
    doc = json.loads(out)
    parts = doc["breakdown"]["parts"]
    assert list(parts) == ["hub_root", "first_copy", "hub_mid", "copies_mid",
                           "level_links", "hub_top", "copies_top"]
    assert parts["hub_mid"] == 0 and parts["copies_mid"] == 0


@pytest.mark.parametrize("variant", ["S", "P"])
def test_closed_breakdown_answers_where_the_value_does(capsys, k2_file, variant):
    # some counts at t=1100 are past the double range, the value is not
    argv = ["closed", k2_file, "--variant", variant, "--t", "1100", "--alpha", "-100"]
    rc, out, err = run(capsys, *argv, "--breakdown")
    assert (rc, err) == (0, "")
    assert json.loads(out)["value"] == json.loads(run(capsys, *argv)[1])["value"]


def test_closed_breakdown_is_byte_identical_across_hash_seeds(tmp_path):
    path = tmp_path / "demo.txt"
    path.write_text(sx.render_edge_list(sx.demo_graph()))
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = "import sys; from sierpindex.cli import main; sys.exit(main(sys.argv[1:]))"
    for variant in "SP":
        argv = ["closed", str(path), "--variant", variant, "--t", "3", "--alpha", "-0.5", "--breakdown"]
        outs = [subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=60,
                               env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed))
                for seed in ("1", "2")]
        assert [out.returncode for out in outs] == [0, 0], outs[0].stderr + outs[1].stderr
        assert outs[0].stdout == outs[1].stdout
        assert len(json.loads(outs[0].stdout)["breakdown"]["edge_class"]) == 8


def test_closed_rejects_zero_alpha(capsys, k3_file):
    rc, _, err = run(capsys, "closed", k3_file, "--variant", "S", "--t", "2", "--alpha", "0")
    assert rc == 2
    assert "alpha must be nonzero" in err


def test_closed_rejects_fractional_exact(capsys, k3_file):
    rc, _, err = run(capsys, "closed", k3_file, "--variant", "S", "--t", "2",
                     "--alpha", "-0.5", "--exact")
    assert rc == 2
    assert "exact mode" in err


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_closed_rejects_non_finite_alpha(capsys, k3_file, alpha):
    rc, out, err = run(capsys, "closed", k3_file, "--variant", "P", "--t", "2", f"--alpha={alpha}")
    assert (rc, out) == (2, "")
    assert "alpha must be finite" in err


def test_closed_refuses_values_beyond_double_range(capsys, k5_file):
    # a float conversion that overflows, and a float product that overflowed to inf
    for argv in (("--t", "1000", "--alpha", "-0.5"), ("--t", "150", "--alpha", "150")):
        rc, out, err = run(capsys, "closed", k5_file, "--variant", "S", *argv)
        assert (rc, out) == (4, "")
        assert err.startswith("error: out of double range") and err.count("\n") == 1


def test_closed_refuses_an_astronomical_level_by_name(capsys, k4_file):
    # t has no float value, and n**(t-2) would not fit in memory: the refusal is read from bit lengths
    t = 10 ** 400
    rc, out, err = run(capsys, "closed", k4_file, "--variant", "S", "--t", str(t), "--alpha", "-0.5")
    assert (rc, out) == (4, "")
    assert err == f"error: out of double range: float S index at t={t}, alpha=-0.5 exceeds the double range\n"


def test_budget_refusal_keeps_exit_3(capsys, k3_file):
    # VertexBudgetError is an OverflowError; it must not fall into exit 4
    assert issubclass(sx.VertexBudgetError, OverflowError)
    rc, _, err = run(capsys, "expand", k3_file, "--variant", "P", "--t", "30")
    assert rc == 3 and "vertex budget exceeded" in err
    rc, _, err = run(capsys, "verify", k3_file, "--t", "30", "--budget", "10")
    assert rc == 3 and "vertex budget exceeded" in err


@pytest.mark.parametrize("argv", [["expand", "--variant", "S"], ["expand", "--variant", "P"], ["verify"]])
def test_a_budget_refusal_at_any_level_keeps_exit_3(capsys, k4_file, argv):
    # 4**10000 vertices is past CPython's 4300-digit int->str limit: the refusal names a power of two
    rc, out, err = run(capsys, argv[0], k4_file, *argv[1:], "--t", "10000")
    assert (rc, out) == (3, "")
    assert err.startswith("error: vertex budget exceeded: construction needs at least 2**20000 vertices")
    assert err.count("\n") == 1


def test_a_level_range_is_not_materialised():
    tracemalloc.start()
    try:
        levels = cli._parse_t_range("2..1000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (levels[0], levels[-1], len(levels)) == (2, 1_000_000, 999_999)
    assert peak < 64 * 1024


def test_the_cli_restates_no_library_decision():
    # sizes, the budget comparison and the double-range refusal belong to construct and graphs
    tree = ast.parse(inspect.getsource(cli))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not {"repunit", "total_vertices", "total_edges", "pow"} & (names | attrs)
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)]
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Compare)
                and {"budget", "_budget"} & {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}]
    catchers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)
                if isinstance(node, ast.ExceptHandler) and "OverflowError" in ast.unparse(node.type or ast.Tuple([]))}
    assert catchers == {"main"}


def test_closed_output_is_byte_identical(capsys, k3_file):
    outs = []
    for _ in range(2):
        rc, out, _ = run(capsys, "closed", k3_file, "--variant", "P", "--t", "3",
                         "--alpha", "-0.5", "--breakdown")
        assert rc == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_direct(capsys, k3_file):
    rc, out, _ = run(capsys, "direct", k3_file, "--alpha", "-0.5")
    doc = json.loads(out)
    assert rc == 0 and math.isclose(doc["value"], 1.5)
    rc, out, _ = run(capsys, "direct", k3_file, "--alpha", "1", "--degree-sum")
    assert json.loads(out)["value"] == 6.0
    rc, out, _ = run(capsys, "direct", k3_file, "--alpha", "2", "--exact")
    assert json.loads(out)["exact"] == "48"


def test_direct_degree_sum_takes_a_zero_alpha(capsys, k3_file):
    # M_0 counts the vertices; only the Randic-index commands refuse alpha = 0
    rc, out, err = run(capsys, "direct", k3_file, "--degree-sum", "--alpha=0")
    assert (rc, err) == (0, "")
    assert out == '{\n  "index": "degree_power_sum",\n  "alpha": 0.0,\n  "value": 3.0\n}\n'
    rc, out, err = run(capsys, "direct", k3_file, "--alpha=0")
    assert (rc, out, err) == (2, "", "error: alpha must be nonzero\n")


def test_direct_exact_beyond_double_range(capsys, k5_file):
    rc, out, _ = run(capsys, "direct", k5_file, "--alpha", "300", "--exact")
    assert rc == 0
    doc = json.loads(out)
    assert doc["value"] is None
    assert doc["exact"] == str(sx.randic_index(sx.complete_graph(5), sx.IndexParams(300, exact=True)))
    rc, out, err = run(capsys, "direct", k5_file, "--alpha", "300")
    assert (rc, out) == (4, "") and "out of double range" in err
    rc, _, err = run(capsys, "direct", k5_file, "--alpha", "nan")
    assert rc == 2 and "alpha must be finite" in err


@pytest.mark.parametrize("argv, index, alpha", [
    (("--alpha", "1e6"), "randic", "1e+06"),  # a power past the double range
    (("--alpha", "400"), "randic", "400"),  # 9**400
    (("--degree-sum", "--alpha", "1e6"), "degree_power_sum", "1e+06"),
])
def test_direct_names_the_index_past_the_double_range(capsys, k4_file, argv, index, alpha):
    rc, out, err = run(capsys, "direct", k4_file, *argv)
    assert (rc, out) == (4, "")
    assert err == f"error: out of double range: float {index} index at alpha={alpha} exceeds the double range\n"


@pytest.mark.parametrize("alpha", ["0.5", "2", "700"])
def test_direct_refuses_exact_degree_sums(capsys, k4_file, alpha):
    rc, out, err = run(capsys, "direct", k4_file, "--degree-sum", "--alpha", alpha, "--exact")
    assert (rc, out) == (2, "")
    assert err == "error: --exact applies to the randic index only, not to --degree-sum\n"


def test_verify_passes_and_reports(capsys, k3_file, tmp_path):
    report = tmp_path / "report.json"
    rc, out, _ = run(capsys, "verify", k3_file, "--t", "1..3",
                     "--alpha", "-0.5", "--alpha", "1", "--out", str(report))
    assert rc == 0
    assert "0 failed" in out
    doc = json.loads(report.read_text())
    assert doc["ok"] and doc["failed"] == 0
    assert len(doc["cells"]) == 2 * 3 * 2  # variants x t x alphas
    assert all(c["pass"] for c in doc["cells"])
    assert all(c.keys() == {"graph", "variant", "t", "alpha", "closed", "oracle", "pass"} for c in doc["cells"])
    assert "tolerance" not in doc
    keys = [(c["graph"], c["variant"], c["t"], c["alpha"]) for c in doc["cells"]]
    assert keys == sorted(keys)


def test_verify_checks_a_repeated_graph_once(capsys, k4_file):
    rc, out, _ = run(capsys, "verify", k4_file, k4_file, "--t", "2", "--alpha", "1")
    assert rc == 0 and "2 cells: 2 ok" in out


# a cell passes only when the closed form equals the oracle: a 1e-6 relative skew, a
# factor 2 on an index of 1.64e-15 (below any absolute floor) and one ulp all fail
@pytest.mark.parametrize("skew, alpha", [(lambda v: v * (1 + 1e-6), "-0.5"), (lambda v: v * 2, "-20"),
                                         (lambda v: math.nextafter(v, math.inf), "-0.5")],
                         ids=["relative-1e-6", "double-a-tiny-index", "one-ulp"])
def test_verify_detects_a_perturbed_formula(capsys, k3_file, monkeypatch, skew, alpha):
    true_weigh = closedform.CountTable.weigh

    def skewed(table, params):
        form = true_weigh(table, params)
        true_at = form.at

        def at(t, include_breakdown=False):
            report = true_at(t, include_breakdown)
            return closedform.IndexReport(
                report.variant, report.t, report.alpha,
                skew(report.value), report.exact, report.breakdown,
            )

        form.at = at
        return form

    # the CLI reaches the closed forms through a weighed count table
    monkeypatch.setattr(closedform.CountTable, "weigh", skewed)
    rc, out, _ = run(capsys, "verify", k3_file, "--variant", "S", "--t", "2", "--alpha", alpha)
    assert rc == 1
    assert "FAIL" in out


def test_verify_compiles_once_per_graph_variant_and_alpha(capsys, k3_file, monkeypatch):
    counted, weighed = [], []
    true_count, true_weigh = closedform.count_table, closedform.CountTable.weigh
    monkeypatch.setattr(closedform, "count_table", lambda base, variant: counted.append(variant) or true_count(base, variant))
    monkeypatch.setattr(closedform.CountTable, "weigh",
                        lambda table, params: weighed.append((params, table.variant)) or true_weigh(table, params))
    rc, out, _ = run(capsys, "verify", k3_file, "--t", "1..3", "--alpha", "-0.5", "--alpha", "2")
    assert rc == 0 and "12 cells: 12 ok" in out
    assert sorted(counted) == ["P", "S"]
    assert sorted(weighed) == [(-0.5, "P"), (-0.5, "S"), (2.0, "P"), (2.0, "S")]


@pytest.mark.parametrize("argv", [["verify", "--t", "0..2"], ["bench", "--t", "0..2"], ["expand", "--variant", "P", "--t", "0"],
                                  ["closed", "--variant", "S", "--t", "0", "--alpha", "1"]])
def test_levels_below_one_are_refused_with_the_library_message(capsys, k3_file, argv):
    rc, out, err = run(capsys, argv[0], k3_file, *argv[1:])
    assert (rc, out, err) == (2, "", "error: t must be >= 1\n")


@pytest.mark.parametrize("command", ["verify", "bench"])
@pytest.mark.parametrize("text", ["2..", "..3", "x", "3..2"])
def test_a_bad_level_range_is_refused_by_name(capsys, k3_file, command, text):
    rc, out, err = run(capsys, command, k3_file, "--t", text)
    assert (rc, out, err) == (2, "", f"error: bad t range {text!r}\n")


@pytest.mark.parametrize("alpha, message", [("0", "alpha must be nonzero"), ("nan", "alpha must be finite"),
                                            ("-inf", "alpha must be finite")])
@pytest.mark.parametrize("t", ["2", "12"])
def test_verify_refuses_a_bad_alpha_before_any_build(capsys, k4_file, monkeypatch, alpha, message, t):
    # K4 at t=12 needs 27962025 vertices: the budget used to answer first (exit 3),
    # and at t=2 the refusal came only after an expansion had been built
    built = []
    for variant, spec in cli._VARIANTS.items():
        monkeypatch.setitem(cli._VARIANTS, variant, spec._replace(
            build=lambda base, t, budget, build=spec.build: built.append(t) or build(base, t, budget)))
    rc, out, err = run(capsys, "verify", k4_file, "--t", t, "--alpha", "1", f"--alpha={alpha}")
    assert (rc, out, err) == (2, "", f"error: {message}\n")
    assert built == []


def test_verify_includes_polymeric_level_one(capsys, k3_file):
    rc, out, _ = run(capsys, "verify", k3_file, "--variant", "P", "--t", "1",
                     "--alpha", "-0.5")
    assert rc == 0 and "1 cells: 1 ok" in out


def test_bench_csv(capsys, k3_file):
    rc, out, _ = run(capsys, "bench", k3_file, "--variant", "S", "--t", "2..12",
                     "--alpha", "-0.5", "--budget", "1000")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "variant,t,closed_ns,construct_ns,vertices,edges"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[1] for r in rows] == [str(t) for t in range(2, 13)]
    for r in rows:
        t = int(r[1])
        assert int(r[2]) > 0
        assert int(r[4]) == 3 ** t
        assert int(r[5]) == 3 * sx.repunit(3, t)
        if 3 ** t <= 1000:
            assert int(r[3]) > 0
        else:
            assert r[3] == "skipped: budget"


def test_bench_polymeric_counts(capsys, k2_file):
    rc, out, _ = run(capsys, "bench", k2_file, "--variant", "P", "--t", "1..4",
                     "--alpha", "1")
    assert rc == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    # the closed vertex/edge counts are asserted against the built graphs inside bench
    assert [int(r[4]) for r in rows] == [(2 + 1) * sx.repunit(2, t) for t in range(1, 5)]


@pytest.mark.parametrize("n", [2**63 - 1, 3_037_000_499])
def test_a_vertex_count_past_the_int64_keys_is_refused(capsys, tmp_path, n):
    # no graph is built: its n-entry degree table alone would not fit in memory
    path = tmp_path / "huge.txt"
    path.write_text(f"p {n} 1\n1 2\n")
    rc, out, err = run(capsys, "closed", str(path), "--variant", "S", "--t", "2", "--alpha", "1")
    assert (rc, out) == (2, "")
    assert err == f"error: n={n} is more vertices than int64 edge keys hold (at most 3037000498)\n"


def test_parse_error_reports_line(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("p 3 2\n1 2\n1 2\n")
    rc, _, err = run(capsys, "direct", str(bad), "--alpha", "1")
    assert rc == 2
    assert "line 3" in err and "duplicate" in err
