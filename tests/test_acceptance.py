"""Acceptance suite.

One test per criterion, run at the stated tolerances and runtime budgets.
Each prints an `ACCEPTANCE n: PASS/FAIL` line (visible with `pytest -s`;
`pytest -v` shows the same verdicts through the test names).
"""

import contextlib
import json
import math
import time

import numpy as np
import pytest

from tracelab import cli
from tracelab import explorer as ex
from tracelab import funclass as fc
from tracelab import ineq
from tracelab import matcore as mc


@contextlib.contextmanager
def criterion(num: int, label: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {label}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {label} ({time.perf_counter() - t0:.1f}s)")


def test_criterion_1_counterexample_reproduction():
    with criterion(1, "explicit 2x2 counterexample closed forms and verdicts"):
        t0 = time.perf_counter()
        s = math.sqrt(2.0) / 2.0
        for q in (2.5, 3.0, 4.0, 5.0):
            rec = ex.repro_counterexample(q)
            lhs_cf = (1.0 + s) ** q + (1.0 - s) ** q - 2.0
            rhs_cf = (2.0**q - 2.0) / 2.0
            assert abs(rec.lhs - lhs_cf) <= 1e-10 * abs(lhs_cf)
            assert abs(rec.rhs - rhs_cf) <= 1e-10 * abs(rhs_cf)
            assert (rec.verdict == "FAIL") == (q in (4.0, 5.0))
        rec3 = ex.repro_counterexample(3.0)
        assert abs(rec3.lhs - rec3.rhs) <= 1e-10
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_quadratic_equality_suite():
    with criterion(2, "main trace inequality equality cases g in {1, x, x^2}"):
        t0 = time.perf_counter()
        gs = (fc.Quadratic(1, 0, 0), fc.Quadratic(0, 1, 0), fc.Quadratic(0, 0, 1))
        pairs = 0
        for k in range(1000):
            dim = 2 + (k % 5)  # dims 2..6
            rng = np.random.default_rng(20_000 + k)
            a = mc.psd_from_rng(rng, dim, dim)
            b = mc.psd_from_rng(rng, dim, dim)
            for g in gs:
                rec = ineq.evaluate_one("MAIN_TRACE", {"a": a, "b": b}, func=g)
                scale = max(abs(rec.lhs), abs(rec.rhs), 1.0)
                assert abs(rec.lhs - rec.rhs) <= 1e-9 * scale
            pairs += 1
        assert pairs == 1000
        assert time.perf_counter() - t0 < 30.0


REGION_SWEEPS = (
    ("COR_ABQ", (-1.0, 0.5, 1.5, 2.5)),
    ("COR_FALTQ", (-3.0, 0.5, 1.5, 2.5)),
    ("MCCARTHY", (0.5, 2.0)),
    ("NORM_COMPRESSION", (0.5, 1.5, 2.5)),
    ("PROP_Q4", (None,)),
)


def test_criterion_3_theorem_region_sweeps():
    with criterion(3, "zero violations in 10,000 trials per theorem region"):
        t0 = time.perf_counter()
        for case, grid in REGION_SWEEPS:
            n_cells = len(grid) * 3
            per_cell = -(-10_000 // n_cells)
            plan = ex.SweepPlan(
                case=case, q_grid=grid, dims=(2, 3, 4),
                trials_per_cell=per_cell, ensemble="wishart", base_seed=30_000,
            )
            summary = ex.run_sweep(plan)
            total = sum(c.trials for c in summary.cells)
            assert total >= 10_000
            assert summary.violations == 0, f"{case}: {summary.worst_record()}"
            if case == "PROP_Q4":
                # a skipped PROP_Q4 trial would mean the expansion identity
                # exceeded 1e-9 * scale
                assert all(c.skipped == 0 for c in summary.cells)
        assert time.perf_counter() - t0 < 600.0


SCALAR_REPRESENTATIVES = {
    "CM0": (fc.DiscreteMeasureCM0((0.5, 2.0), (1.0, 0.5)), fc.PowerFunction(-0.5)),
    "BF0": (fc.DiscreteMeasureBFk(0, (1.0, 2.0), (1.0, 0.5)), fc.PowerFunction(0.5)),
    "BF1": (fc.DiscreteMeasureBFk(1, (1.0,), (1.0,)), fc.PowerFunction(1.5)),
    "BF2": (fc.DiscreteMeasureBFk(2, (0.7, 1.5), (1.0, 1.0)), fc.PowerFunction(2.5)),
}


def _gap_arrays(f, a, b):
    root = np.sqrt(a * b)
    gap_add = f(a + b) - f(a) - f(b)
    gap_geo = f(2.0 * root) - 2.0 * f(root)
    return gap_add, gap_geo


def _chain_margin(tag, gap_add, gap_geo):
    if tag == "CM0":
        return np.minimum(gap_geo - gap_add, -gap_geo)
    if tag == "BF0":
        return np.minimum(gap_add - gap_geo, -gap_add)
    if tag == "BF1":
        return np.minimum(gap_geo - gap_add, gap_add)
    return np.minimum(gap_add - gap_geo, gap_geo)  # BF2


def test_criterion_4_scalar_chain_and_bf3_breakdown():
    with criterion(4, "two-sided scalar chain per class; BF3 power breaks it"):
        n = 10_000
        rng = np.random.default_rng(40_000)
        for tag, reps in SCALAR_REPRESENTATIVES.items():
            for f in reps:
                if getattr(f, "domain", "real") == "positive":
                    a = np.exp(rng.uniform(np.log(1e-2), np.log(50.0), n))
                    b = np.exp(rng.uniform(np.log(1e-2), np.log(50.0), n))
                else:
                    a = rng.uniform(0.0, 20.0, n)
                    b = rng.uniform(0.0, 20.0, n)
                    a[rng.uniform(size=n) < 0.02] = 0.0
                gap_add, gap_geo = _gap_arrays(f, a, b)
                scale = np.maximum(np.maximum(np.abs(gap_add), np.abs(gap_geo)), 1.0)
                tol = 1e-10 * scale
                assert np.all(_chain_margin(tag, gap_add, gap_geo) >= -tol)
                # Lemma-level sub/superadditivity sign
                if tag in ("CM0", "BF0"):
                    assert np.all(gap_add <= tol)
                else:
                    assert np.all(gap_add >= -tol)

        # x^3.5 (class BF3): the stated-sense comparison must break on at
        # least one sampled pair
        g = fc.PowerFunction(3.5)
        a = rng.uniform(0.0, 20.0, n)
        b = rng.uniform(0.0, 20.0, n)
        gap_add, gap_geo = _gap_arrays(g, a, b)
        scale = np.maximum(np.maximum(np.abs(gap_add), np.abs(gap_geo)), 1.0)
        assert np.sum(gap_add - gap_geo > 1e-10 * scale) >= 1


def test_criterion_5_integral_representation_oracle():
    with criterion(5, "power-function quadrature grid and gamma value"):
        for q in (-1.5, -0.5, 0.3, 0.7):
            for x in (0.1, 0.5, 1.0, 2.0, 10.0):
                got = fc.power_via_quadrature(q, x)
                assert abs(got - x**q) <= 1e-6 * abs(x**q)
        assert abs(fc.gamma_fn(0.5) - math.sqrt(math.pi)) <= 1e-10 * math.sqrt(math.pi)


def test_criterion_6_structural_equivalences():
    with criterion(6, "block spectrum identity, substitution match, projector completeness"):
        qs = (0.5, 1.5, 2.5)
        for k in range(1000):
            dim = 2 + (k % 2)  # dims 2 and 3
            rng = np.random.default_rng(60_000 + k)
            c = mc.random_complex_gaussian(rng, dim, dim)
            d = mc.psd_from_rng(rng, dim, dim) + 0.1 * np.eye(dim)

            z = mc.assemble_blocks(ineq._z_block(c, d)[1], c, d)
            z_scale = max(1.0, float(np.max(np.abs(mc.eigh(z).eigenvalues))))
            assert ineq.z_spectrum_check(c, d) <= 1e-9 * z_scale

            dih = mc.matrix_power(d, -0.5)
            a_sub = dih @ c @ c.conj().T @ dih
            q = qs[k % 3]
            r1 = ineq.evaluate_one("COR_ABQ3", {"c": c, "d": d}, q)
            r2 = ineq.evaluate_one("COR_FALTQ", {"a": a_sub, "b": d}, q)
            scale = max(abs(r1.lhs), abs(r1.rhs), 1.0)
            assert abs(r1.lhs - r2.lhs) <= 1e-9 * scale
            assert abs(r1.rhs - r2.rhs) <= 1e-9 * scale

            a = mc.psd_from_rng(rng, dim, dim)
            b = mc.psd_from_rng(rng, dim, dim)
            assert ineq.projector_overlap_total(a, b) == pytest.approx(dim, abs=1e-10)


PROBE_PLANS = (
    ("FALTQ_HIGH", "COR_FALTQ", (3.5, 4.0, 6.0), (2, 3)),
    ("FALTQ_NEG", "COR_FALTQ", (-1.0,), (2, 3)),
    ("NORMCOMP_HIGH", "NORM_COMPRESSION", (4.0,), (2,)),
)


def test_criterion_7_conjecture_probes():
    with criterion(7, "conjecture probes complete, observation records only"):
        for region, case, grid, dims in PROBE_PLANS:
            plan = ex.SweepPlan(
                case=case, q_grid=grid, dims=dims,
                trials_per_cell=2000, ensemble="wishart", base_seed=70_000,
            )
            summary = ex.probe_conjecture(region, plan)
            for cell in summary.cells:
                assert cell.trials == 2000
                assert cell.violations == 0
                assert cell.conjecture + cell.skipped == cell.trials
                assert cell.conjecture > 0
            assert summary.min_gap is not None
            worst = summary.worst_record()
            assert worst.verdict == "CONJECTURE_OBS"
            parsed = ineq.TrialRecord.from_json(json.loads(json.dumps(worst.to_json())))
            assert parsed.case == case


def test_criterion_8_sweep_determinism(tmp_path):
    with criterion(8, "byte-identical cmd_sweep reruns"):
        argv = [
            "sweep", "--case", "COR_ABQ", "--q", "0.5,1.5,2.5", "--dim", "2,3",
            "--trials", "25", "--seed", "7", "--format", "csv",
        ]
        f1, f2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
        assert cli.main(argv + ["--out", str(f1)]) == 0
        assert cli.main(argv + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

        argv_json = argv[:-1] + ["json"]
        j1, j2 = tmp_path / "run1.json", tmp_path / "run2.json"
        assert cli.main(argv_json + ["--out", str(j1)]) == 0
        assert cli.main(argv_json + ["--out", str(j2)]) == 0
        assert j1.read_bytes() == j2.read_bytes()
