"""The benchmark's own tests: self-time arithmetic, span bookkeeping, and a
smoke run of every workload at tiny size in both modes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span, Tracer, self_times_ns  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_the_union_of_clipped_children():
    spans = [
        Span("root", 0, 100, None, 0, "op"),
        Span("a", 10, 40, 0, 0, "op"),
        Span("a.inner", 15, 25, 1, 0, "op"),
        Span("b", 35, 60, 0, 0, "op"),  # overlaps a: together they cover 10..60
        Span("c", 90, 120, 0, 0, "op"),  # runs past its parent: counts 90..100
    ]
    assert self_times_ns(spans) == [100 - 50 - 10, 30 - 10, 10, 25, 30]


def test_self_seconds_group_by_name_and_phase():
    spans = [
        Span("op", 0, 3_000_000_000, None, 0, "op"),
        Span("graphs.parse_edge_list", 0, 1_000_000_000, 0, 0, "op"),
        Span("check", 0, 500_000_000, None, 1, "check"),
        Span("graphs.parse_edge_list", 0, 500_000_000, 2, 1, "check"),
    ]
    by_name = tracing.self_seconds_by_name(spans)
    assert by_name["graphs.parse_edge_list"] == {"op": 1.0, "check": 0.5}
    assert by_name["op"] == {"op": 2.0}
    assert by_name["check"] == {"check": 0.0}


def test_tracer_nests_spans_and_charges_a_failure_to_the_innermost_call():
    tr = Tracer()

    def boom():
        raise OverflowError("too big")

    with tr.root("op", 7):
        tr.call("cli.render", lambda: tr.call("closedform.IndexReport.to_json_dict", lambda: 1))
        with pytest.raises(OverflowError):
            tr.call("cli.render", lambda: tr.call("closedform.sierpinski_randic", boom))
    names = [(s.name, s.parent, s.op_id, s.phase) for s in tr.spans]
    assert names == [
        ("op", None, 7, "op"),
        ("cli.render", 0, 7, "op"),
        ("closedform.IndexReport.to_json_dict", 1, 7, "op"),
        ("cli.render", 0, 7, "op"),
        ("closedform.sierpinski_randic", 3, 7, "op"),
    ]
    assert [s.error for s in tr.spans] == [None, None, None, None, "OverflowError"]
    assert dict(tr.failures) == {"closedform.failed.OverflowError": 1}
    assert all(s.end_ns >= s.start_ns for s in tr.spans)


def test_metric_names_match_the_benchmark_spec():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == ["sweep", "deep_levels", "oracle_verify"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["sweep", "deep_levels", "oracle_verify"])
def test_smoke_run_at_tiny_size(workload, trace, tmp_path, capsys):
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace), "--tiny", "--out", str(tmp_path)])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    record = json.loads((tmp_path / f"{workload}-seed3-trace{trace}.json").read_text())
    assert record["provenance"]["seed"] == 3 and record["provenance"]["nproc"] >= 1
    assert sum(record["op_counts"].values()) == last["attempted"]
    if trace:
        assert (tmp_path / f"{workload}-seed3-spans.jsonl").stat().st_size > 0
        assert all(last["metrics"][f"{name}.self_s"]["value"] > 0 for name in run.TIMED_SPANS)
    else:
        assert all(m["value"] > 0 for m in last["metrics"].values())


def test_deep_levels_counts_the_known_overflow_failures(tmp_path, capsys):
    rc = run.main(["--workload", "deep_levels", "--seed", "5", "--seconds", "0",
                   "--tiny", "--out", str(tmp_path)])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 0 and last["correct"] is True
    assert 0 < last["failed"] < last["attempted"]
    record = json.loads((tmp_path / "deep_levels-seed5-trace0.json").read_text())
    assert record["failures_by_type"].get("OverflowError", 0) > 0


def test_deep_levels_cells_do_not_depend_on_the_seed():
    import workloads

    one, two = (workloads.DeepLevels(seed, workloads.TINY).cells() for seed in (1, 2))
    assert one != two
    assert sorted(one, key=repr) == sorted(two, key=repr)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
