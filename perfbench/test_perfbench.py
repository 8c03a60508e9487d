"""Tests of the benchmark harness itself (not of tracelab).

    python3 -m pytest perfbench/test_perfbench.py -q

The smoke tests run every workload at the tiny job size for about a second
each, so they check the plumbing, not the timings.
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import checks
from tracer import Tracer

HERE = Path(__file__).resolve().parent


def _run(*args: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def test_smoke_untraced_all_workloads():
    rc, lines = _run("--workload", "all", "--size", "tiny", "--seconds", "1", "--seed", "3")
    assert rc == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            entry = result["metrics"][f"{w['name']}.{m['name']}"]
            assert entry["unit"] == m["unit"] and entry["value"] > 0
        assert any(line.startswith(w["name"]) and "fail_ratio" in line for line in lines)


def test_smoke_traced_run_reports_every_layer_metric():
    rc, lines = _run("--workload", "sweep_highdim", "--size", "tiny", "--seconds", "1", "--trace", "1")
    assert rc == 0
    result = json.loads(lines[-1])
    assert result["correct"]
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["trace.missing"]["value"] == 0
    assert result["metrics"]["matcore.eigh.calls"]["value"] > 0


def test_self_time_excludes_children_and_counts_outermost_calls():
    tr = Tracer()
    tr.spans = [[0, 0.0, 10.0, -1], [1, 1.0, 4.0, 0], [1, 2.0, 3.0, 1], [2, 5.0, 9.0, 0]]
    tr.names = ["explorer.run_cell", "matcore.draw", "matcore.eigh"]
    tr._name_ids = {n: i for i, n in enumerate(tr.names)}
    m = tr.per_layer_metrics()
    assert m["explorer.run_cell.self_s"] == 3.0
    assert m["matcore.draw.self_s"] == 3.0  # 2 outer + 1 nested
    assert m["matcore.draw.calls"] == 1
    assert m["matcore.eigh.self_s"] == 4.0


def test_missing_names_are_reported_not_raised():
    mod = types.SimpleNamespace(__name__="matcore", eigh=lambda a: a * 2)
    tr = Tracer()
    tr.patch(mod, "eigh", "matcore.eigh")
    tr.patch(mod, "gone", "matcore.eigh")
    assert mod.eigh(3) == 6
    assert tr.missing == ["matcore.gone"]
    tr.uninstall()
    assert not hasattr(mod.eigh, "__wrapped__")


def test_verify_check_catches_count_mismatch_and_fail():
    rec = {"case": "X", "verdict": "PASS", "gap": 0.5}
    ok = checks.check_verify([json.dumps(rec)] * 2, ["verify: 2 records, 0 FAIL, 0 SKIPPED"], {"rc": 0})
    assert not ok.problems and ok.attempted == 2 and ok.failed == 0
    short = checks.check_verify([json.dumps(rec)], ["verify: 2 records, 0 FAIL, 0 SKIPPED"], {"rc": 0})
    assert short.problems and short.failed == short.attempted
    bad = checks.check_verify([json.dumps(dict(rec, verdict="FAIL"))], ["verify: 1 records, 1 FAIL, 0 SKIPPED"], {"rc": 1})
    assert bad.problems and bad.failed == 1


def test_search_check_requires_expected_verdicts():
    lines = [json.dumps({"case": "COR_ABQ", "verdict": "PASS", "gap": 1.0})]
    got = checks.check_search(lines, [("COR_ABQ", "FAIL")], {"evals": 10})
    assert got.problems and got.failed == 10
