"""Tests for the command-line front end: exit codes, formats, determinism."""

import hashlib
import json
import re
from collections import Counter

import numpy as np
import pytest

from tracelab import cli
from tracelab import explorer as ex
from tracelab import ineq
from tracelab.ineq import TrialRecord


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRepro:
    def test_default_table(self, capsys):
        code, out, _ = run(["repro"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4  # header + three rows
        assert "closed lhs" in lines[0]
        assert all(line.endswith("yes") for line in lines[1:])

    def test_q_override_and_jsonl(self, tmp_path, capsys):
        out_file = tmp_path / "repro.jsonl"
        code, out, _ = run(["repro", "--q", "2.5,3,4,5", "--out", str(out_file)], capsys)
        assert code == 0
        records = [TrialRecord.from_json(json.loads(line)) for line in out_file.read_text().splitlines()]
        assert [r.verdict for r in records] == ["PASS", "PASS", "FAIL", "FAIL"]


class TestVerify:
    def test_small_selection_passes(self, tmp_path, capsys):
        out_file = tmp_path / "records.jsonl"
        code, out, _ = run(
            ["verify", "--case", "MCCARTHY,PROP_Q4", "--trials", "24",
             "--dim", "2,3", "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines
        records = [TrialRecord.from_json(json.loads(line)) for line in lines]
        assert all(r.verdict in ("PASS", "SKIPPED") for r in records)
        assert "0 FAIL" in out

    def test_stdout_stream_is_pure_jsonl(self, capsys):
        code, out, err = run(["verify", "--case", "MCCARTHY", "--trials", "6", "--dim", "2"], capsys)
        assert code == 0
        for line in out.strip().splitlines():
            TrialRecord.from_json(json.loads(line))
        assert "FAIL" in err  # summary goes to stderr when streaming to stdout

    def test_records_stream_before_the_last_plan(self, tmp_path, capsys, monkeypatch):
        out_file = tmp_path / "records.jsonl"
        written_before_call = []
        sweep_records = ex.sweep_records

        def spy(plan):
            written_before_call.append(out_file.read_text().count("\n") if out_file.exists() else 0)
            return sweep_records(plan)

        monkeypatch.setattr(ex, "sweep_records", spy)
        code, out, _ = run(
            ["verify", "--case", "MCCARTHY,ALT", "--trials", "6", "--dim", "2", "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        assert len(written_before_call) == 2
        assert written_before_call[-1] > 0  # MCCARTHY's records are out before ALT runs
        assert "verify: 12 records, 0 FAIL, 0 SKIPPED" in out

    def test_trials_is_a_minimum_per_case(self, tmp_path, capsys):
        out_file = tmp_path / "records.jsonl"
        code, out, _ = run(["verify", "--trials", "200", "--out", str(out_file)], capsys)
        assert code == 0
        counts = Counter(json.loads(line)["case"] for line in out_file.read_text().splitlines())
        assert set(counts) == set(ineq.CASES)
        assert min(counts.values()) >= 200

    def test_pmean_grid_from_q_or_p(self, capsys):
        argv = ["verify", "--case", "COR_PMEAN", "--trials", "4", "--dim", "2"]
        code, out, _ = run(argv + ["--q", "2.5"], capsys)
        assert code == 0
        assert {json.loads(line)["q"] for line in out.splitlines()} == {2.5}
        assert run(argv + ["--p", "2.5", "--q", "7"], capsys)[1] == out  # --p wins

    def test_unknown_case_is_usage_error(self, capsys):
        code, _, err = run(["verify", "--case", "NOSUCH"], capsys)
        assert code == 2
        assert "NOSUCH" in err

    def test_forcing_counterexample_matrices_fails(self, tmp_path, capsys):
        config = {
            "matrix_a": {"dim": 2, "re": [[1.0, 0.0], [0.0, 0.0]]},
            "matrix_b": {"dim": 2, "re": [[0.5, 0.5], [0.5, 0.5]]},
            "case": "COR_ABQ",
            "q": [4.0],
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out_file = tmp_path / "records.jsonl"
        code, _, _ = run(["verify", "--config", str(cfg), "--out", str(out_file)], capsys)
        assert code == 1
        rec = TrialRecord.from_json(json.loads(out_file.read_text().splitlines()[0]))
        assert rec.verdict == "FAIL"
        assert rec.lhs == pytest.approx(6.5, rel=1e-10)

    def test_parameterless_cases_run_once(self, tmp_path, capsys):
        # MAIN_TRACE (a scalar function) and PROP_Q4 (fixed at q = 4) take no --q
        config = {
            "matrix_a": {"dim": 2, "re": [[2.0, 1.0], [1.0, 1.0]]},
            "matrix_b": {"dim": 2, "re": [[1.0, 0.0], [0.0, 3.0]]},
            "case": "MAIN_TRACE,PROP_Q4",
            "q": [1, 2, 3],
            "func": {"variant": "power", "q": 0.5},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(["verify", "--config", str(cfg)], capsys)
        assert code == 0
        assert [json.loads(line)["case"] for line in out.splitlines()] == ["MAIN_TRACE", "PROP_Q4"]
        assert "verify: 2 records" in err
        code, out, err = run(["verify", "--case", "PROP_Q4", "--q", "2,3", "--dim", "2", "--trials", "3"], capsys)
        assert code == 0
        assert "verify: 3 records" in err  # one cell, not one per --q value

    def test_matrix_file_indirection(self, tmp_path, capsys):
        mat = tmp_path / "a.json"
        mat.write_text(json.dumps({"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]]}))
        config = {
            "matrix_a": str(mat),
            "matrix_b": {"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]]},
            "case": "MCCARTHY",
            "q": [2.0],
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, _ = run(["verify", "--config", str(cfg)], capsys)
        assert code == 0


C_UPPER = {"dim": 2, "re": [[0.0, 1.0], [0.0, 0.0]]}  # a general block: not Hermitian
D_DIAG = {"dim": 2, "re": [[1.0, 0.0], [0.0, 2.0]]}
IDENTITY_3 = {"dim": 3, "re": np.eye(3).tolist()}
EXPLICIT_CONFIGS = {
    "COR_ABQ3": {"case": "COR_ABQ3", "q": [1.5], "matrix_c": C_UPPER, "matrix_d": D_DIAG},
    "NORM_COMPRESSION": {
        "case": "NORM_COMPRESSION", "q": [1.5],
        "matrix_b": {"dim": 2, "re": [[2.0, 0.0], [0.0, 1.0]]}, "matrix_c": C_UPPER, "matrix_d": D_DIAG,
    },
}


class TestExplicitMatrices:
    @pytest.mark.parametrize("case", sorted(EXPLICIT_CONFIGS))
    def test_general_block_is_read_as_given(self, case, tmp_path, capsys):
        # the config path gives what the API gives on the same matrices
        config = EXPLICIT_CONFIGS[case]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, _ = run(["verify", "--config", str(cfg)], capsys)
        assert code == 0
        (line,) = out.splitlines()
        rec = json.loads(line)
        inputs = {k[-1]: np.array(v["re"]) for k, v in config.items() if k.startswith("matrix_")}
        api = ineq.evaluate_one(case, inputs, 1.5)
        assert abs(rec["lhs"] - api.lhs) <= 1e-12 and abs(rec["rhs"] - api.rhs) <= 1e-12
        assert rec["verdict"] == api.verdict == "PASS"

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_entry_is_usage_error(self, value, tmp_path, capsys):
        config = {
            "case": "COR_ABQ", "q": [2.0],
            "matrix_a": {"dim": 2, "re": [[value, 0.0], [0.0, 1.0]]},
            "matrix_b": {"dim": 2, "re": [[2.0, 1.0], [1.0, 1.0]]},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))  # written as the JSON extensions NaN / Infinity
        code, out, err = run(["verify", "--config", str(cfg)], capsys)
        assert code == 2
        assert "finite" in err and out == ""

    @pytest.mark.parametrize("config,message", [
        (
            {"case": "COR_ABQ", "q": [2.0], "matrix_a": D_DIAG, "matrix_b": IDENTITY_3},
            "matrix_a (2x2) must have the same side as matrix_b (3x3)",
        ),
        (
            {"case": "COR_ABQ3", "q": [1.5], "matrix_c": IDENTITY_3, "matrix_d": D_DIAG},
            "matrix_c (3x3) must have as many rows as matrix_d (2x2)",
        ),
        (
            {"case": "NORM_COMPRESSION", "q": [1.5], "matrix_b": D_DIAG, "matrix_c": IDENTITY_3, "matrix_d": IDENTITY_3},
            "matrix_c (3x3) must have as many columns as matrix_b (2x2)",
        ),
    ], ids=["PAIR", "CD", "BLOCKS"])
    def test_mismatched_shapes_are_usage_errors(self, config, message, tmp_path, capsys):
        # the error names the config keys, where numpy's broadcast error names none
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(["verify", "--config", str(cfg)], capsys)
        assert code == 2 and out == ""
        assert err == f"error: case {config['case']}: {message}\n"

    def test_out_of_domain_case_is_a_skipped_record(self, tmp_path, capsys):
        # A is not PSD: the power corollaries skip it, as a sweep does, and
        # Golden-Thompson (any Hermitian pair) still runs
        config = {
            "case": "COR_ABQ,MCCARTHY,GOLDEN_THOMPSON", "q": [2.0],
            "matrix_a": {"dim": 2, "re": [[1.0, 0.0], [0.0, -0.5]]},
            "matrix_b": {"dim": 2, "re": [[2.0, 1.0], [1.0, 1.0]]},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(["verify", "--config", str(cfg)], capsys)
        assert code == 0
        records = [TrialRecord.from_json(json.loads(line)) for line in out.splitlines()]
        reason = "matrix is not PSD: min eigenvalue -5.000e-01 (scale 1.000e+00)"
        assert [(r.case, r.verdict, r.reason) for r in records] == [
            ("COR_ABQ", "SKIPPED", reason), ("MCCARTHY", "SKIPPED", reason), ("GOLDEN_THOMPSON", "PASS", ""),
        ]
        assert "verify: 3 records, 0 FAIL, 2 SKIPPED" in err


def job_seed(seed, child, job):
    """A 56-bit program seed hashed from (workload seed, child, job), as the
    benchmark harness derives the seeds of its jobs."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{child}:{job}".encode()).digest()[:7], "big")


@pytest.mark.parametrize("seed", [job_seed(1, child, job) for child in range(2) for job in range(4)])
def test_benchmark_verify_job(seed, capsys):
    # the benchmark's verify job: every record a verdict (no FAIL, no
    # SKIPPED), as many as the summary line counts, exit code 0
    code, out, err = run(["verify", "--trials", "60", "--seed", str(seed)], capsys)
    assert code == 0
    verdicts = Counter(json.loads(line)["verdict"] for line in out.splitlines())
    assert verdicts["FAIL"] == verdicts["SKIPPED"] == 0
    summary = re.match(r"verify: (\d+) records, 0 FAIL, 0 SKIPPED", err)
    assert summary is not None and int(summary.group(1)) == sum(verdicts.values()) > 0


class TestSweep:
    def test_csv_header_contract(self, capsys):
        code, out, _ = run(
            ["sweep", "--case", "COR_ABQ", "--q", "2", "--dim", "2",
             "--trials", "5", "--format", "csv"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "case,q,dim,ensemble,trials,violations,min_gap,worst_seed"

    def test_byte_identical_reruns(self, tmp_path, capsys):
        argv = ["sweep", "--case", "COR_ABQ", "--q", "0.5,1.5", "--dim", "2,3",
                "--trials", "10", "--format", "csv"]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(argv + ["--out", str(f1)]) == 0
        assert cli.main(argv + ["--out", str(f2)]) == 0
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()

    def test_seed_overlapping_trials_are_usage_errors(self, capsys):
        # a cell of 10**6 trials would reuse the next cell's seeds
        for argv in (["sweep", "--case", "COR_ABQ", "--q", "2"], ["verify", "--case", "MCCARTHY"]):
            code, out, err = run(argv + ["--dim", "2", "--trials", "3000000"], capsys)
            assert code == 2
            assert "disjoint seed ranges" in err and out == ""

    def test_requires_single_case(self, capsys):
        code, _, err = run(["sweep", "--q", "1"], capsys)
        assert code == 2
        code, _, err = run(["sweep", "--case", "COR_ABQ,MCCARTHY", "--q", "1"], capsys)
        assert code == 2

    def test_defaults_to_verdict_grid(self, capsys):
        code, out, _ = run(["sweep", "--case", "MCCARTHY", "--dim", "2", "--trials", "3"], capsys)
        assert code == 0
        assert json.loads(out)["plan"]["q_grid"] == [0.5, 1.0, 2.0]

    def test_fixed_exponent_case_runs_once(self, capsys):
        code, out, _ = run(["sweep", "--case", "PROP_Q4", "--q", "2,3", "--dim", "2", "--trials", "3"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["plan"]["q_grid"] == [None] and len(doc["cells"]) == 1

    def test_func_case_without_func_is_usage_error(self, capsys):
        code, _, err = run(["sweep", "--case", "MAIN_TRACE", "--dim", "2", "--trials", "3"], capsys)
        assert code == 2
        assert "func" in err

    def test_func_case_via_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"func": {"variant": "power", "q": 2.5}}))
        code, out, _ = run(
            ["sweep", "--case", "TRACE_SUBADD", "--config", str(cfg),
             "--dim", "2", "--trials", "5"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["violations"] == 0

    def test_json_summary_shape(self, capsys):
        code, out, _ = run(
            ["sweep", "--case", "NORM_COMPRESSION", "--q", "1.5", "--dim", "2", "--trials", "5"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "PASS"
        assert doc["plan"]["case"] == "NORM_COMPRESSION"
        assert len(doc["cells"]) == 1


class TestSearch:
    def test_counterexample_exit_code(self, capsys):
        code, out, _ = run(
            ["search", "--case", "COR_ABQ", "--q", "4", "--dim", "2",
             "--budget", "10", "--seed", "1"],
            capsys,
        )
        assert code == 1
        assert json.loads(out)["verdict"] == "FAIL"

    def test_pmean_takes_q_as_p(self, capsys):
        # COR_PMEAN's parameter is p; --q stands in for it, as in sweep and verify
        argv = ["search", "--case", "COR_PMEAN", "--dim", "2", "--budget", "3", "--seed", "1"]
        code, out, _ = run(argv + ["--q", "2"], capsys)
        assert code == 0
        assert json.loads(out)["q"] == 2.0
        assert run(argv + ["--p", "2"], capsys)[1] == out

    def test_needs_a_parameter(self, capsys):
        code, out, err = run(["search", "--case", "COR_ABQ", "--dim", "2", "--budget", "2"], capsys)
        assert code == 2
        assert "--q" in err and out == ""

    def test_fixed_exponent_case_ignores_q(self, capsys):
        argv = ["search", "--case", "PROP_Q4", "--dim", "2", "--budget", "2", "--seed", "3"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert json.loads(out)["q"] == 4.0
        assert run(argv + ["--q", "2"], capsys)[1] == out

    def test_clean_region_exit_zero(self, capsys):
        code, out, _ = run(
            ["search", "--case", "COR_ABQ", "--q", "2", "--dim", "2",
             "--budget", "5", "--seed", "1"],
            capsys,
        )
        assert code == 0


class TestProbe:
    def test_probe_exits_zero(self, capsys):
        code, out, err = run(
            ["probe", "--case", "FALTQ_HIGH", "--q", "3.5", "--dim", "2", "--trials", "10"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["violations"] == 0
        assert "min observed gap" in err

    def test_probe_unknown_region(self, capsys):
        code, _, err = run(["probe", "--case", "COR_ABQ"], capsys)
        assert code == 2

    def test_probe_default_grid(self, capsys):
        code, out, _ = run(["probe", "--case", "NORMCOMP_HIGH", "--dim", "2", "--trials", "5"], capsys)
        assert code == 0
        assert json.loads(out)["plan"]["q_grid"] == [4.0]

    @pytest.mark.parametrize("region", ["FALTQ_HIGH", "FALTQ_NEG"])
    def test_probe_grid_comes_from_the_case_entry(self, region, capsys):
        code, out, _ = run(["probe", "--case", region, "--dim", "2", "--trials", "2", "--p", "9"], capsys)
        assert code == 0
        plan = json.loads(out)["plan"]
        assert plan["case"] == "COR_FALTQ"
        assert plan["q_grid"] == list(ineq.CASES["COR_FALTQ"].probes[region])


class TestConfigHandling:
    def test_malformed_json(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code, _, err = run(["verify", "--config", str(cfg)], capsys)
        assert code == 2
        assert "not valid JSON" in err

    def test_unknown_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trails": 10}))
        code, _, err = run(["verify", "--config", str(cfg)], capsys)
        assert code == 2
        assert "trails" in err

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "trials": 3}))
        code, out, _ = run(
            ["sweep", "--case", "COR_ABQ", "--q", "2", "--dim", "2",
             "--config", str(cfg), "--seed", "99"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["plan"]["base_seed"] == 99
        assert doc["plan"]["trials_per_cell"] == 3

    def test_env_seed_when_flag_absent(self, capsys, monkeypatch):
        monkeypatch.setenv("TRACELAB_SEED", "123")
        code, out, _ = run(["sweep", "--case", "COR_ABQ", "--q", "2", "--dim", "2", "--trials", "3"], capsys)
        assert code == 0
        assert json.loads(out)["plan"]["base_seed"] == 123

    def test_flag_beats_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("TRACELAB_SEED", "123")
        code, out, _ = run(
            ["sweep", "--case", "COR_ABQ", "--q", "2", "--dim", "2", "--trials", "3", "--seed", "7"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["plan"]["base_seed"] == 7

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("TRACELAB_SEED", "pi")
        code, _, err = run(["repro"], capsys)
        assert code == 2
        assert "TRACELAB_SEED" in err

    def test_bad_format(self, capsys):
        code, _, err = run(["sweep", "--case", "COR_ABQ", "--q", "2", "--format", "xml"], capsys)
        assert code == 2

    def test_bad_ensemble(self, capsys):
        code, _, err = run(["sweep", "--case", "COR_ABQ", "--q", "2", "--ensemble", "cauchy"], capsys)
        assert code == 2

    def test_missing_command_usage(self, capsys):
        assert cli.main([]) == 2

    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_bad_tolerance_is_usage_error(self, value, capsys):
        code, out, err = run(["verify", "--case", "COR_ABQ", "--trials", "20", "--tol", value], capsys)
        assert code == 2
        assert "tolerance" in err and out == ""

    def test_zero_tolerance_is_valid(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol_rel": 0}))
        code, out, _ = run(["sweep", "--case", "COR_ABQ", "--q", "2.5", "--dim", "2", "--trials", "3", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["plan"]["tol_rel"] == 0

    @pytest.mark.parametrize(
        "func",
        [
            {"variant": "power", "q": float("inf")},
            {"variant": "exp_kernel", "t": float("nan")},
            {"variant": "cm0_discrete", "nodes": [float("nan"), 1.0], "weights": [1.0, 1.0]},
        ],
    )
    def test_non_finite_func_spec_is_usage_error(self, func, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"func": func}))  # written as the JSON extensions Infinity / NaN
        code, out, err = run(["sweep", "--case", "MAIN_TRACE", "--dim", "2", "--trials", "3", "--config", str(cfg)], capsys)
        assert code == 2
        assert "finite" in err and out == ""

    @pytest.mark.parametrize(
        "func",
        [
            {"variant": "bfk_discrete", "k": 2.7, "nodes": [1.0], "weights": [1.0]},
            {"variant": "exp_kernel", "t": 1.0, "sign": -1.9},
        ],
    )
    def test_non_integral_func_spec_is_usage_error(self, func, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"func": func}))
        for argv in (["sweep", "--dim", "2", "--trials", "3"], ["verify", "--dim", "2", "--trials", "3"]):
            code, out, err = run(argv + ["--case", "TRACE_SUBADD", "--config", str(cfg)], capsys)
            assert code == 2
            assert "integer" in err and out == ""

    @pytest.mark.parametrize("flag", ["--q", "--p"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_numbers_are_usage_errors(self, flag, value, capsys):
        code, _, err = run(["sweep", "--case", "COR_ABQ", flag, value, "--dim", "2", "--trials", "2"], capsys)
        assert code == 2
        assert "finite" in err

