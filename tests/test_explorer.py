"""Tests for sweeps, reproduction, counterexample search and probes."""

import json
import math

import numpy as np
import pytest

from tracelab import explorer as ex
from tracelab import funclass as fc
from tracelab import ineq
from tracelab import matcore as mc


def small_plan(**kw):
    base = dict(case="COR_ABQ", q_grid=(0.5, 2.5), dims=(2, 3), trials_per_cell=25, base_seed=7)
    base.update(kw)
    return ex.SweepPlan(**base)


class TestSweepPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            ex.SweepPlan("NOPE", (1.0,), (2,), 5)
        with pytest.raises(ValueError):
            small_plan(trials_per_cell=0)
        with pytest.raises(ValueError):
            small_plan(q_grid=())
        with pytest.raises(ValueError):
            small_plan(ensemble="cauchy")
        with pytest.raises(ValueError):
            ex.SweepPlan("MAIN_TRACE", (None,), (2,), 5)  # func missing

    def test_rejects_seed_overlapping_cells(self):
        # cell i draws seeds base + i * 10**6 + j: a cell of 10**6 trials
        # would reuse the next cell's seeds
        with pytest.raises(ValueError, match="disjoint seed ranges"):
            small_plan(trials_per_cell=ex.CELL_SEED_STRIDE)
        assert small_plan(trials_per_cell=ex.CELL_SEED_STRIDE - 1).trials_per_cell == 999_999

    @pytest.mark.parametrize("case", ["COR_ABQ", "GOLDEN_THOMPSON"])
    def test_rejects_a_non_finite_parameter(self, case):
        for q in (math.nan, math.inf):
            with pytest.raises(ValueError, match="must be finite"):
                ex.SweepPlan(case, (1.0, q), (2,), 1)
            with pytest.raises(ValueError, match="must be finite"):
                ex.search_counterexample(case, q, 2, budget=1, seed=0)
        assert ex.SweepPlan("PROP_Q4", (None,), (2,), 1).q_grid == (None,)

    def test_cell_order_is_grid_major(self):
        plan = small_plan()
        assert plan.cells() == [(0.5, 2), (0.5, 3), (2.5, 2), (2.5, 3)]

    def test_plan_json_includes_func(self):
        plan = ex.SweepPlan(
            "MAIN_TRACE", (None,), (2,), 5, func=fc.PowerFunction(1.5)
        )
        assert plan.to_json()["func"] == {"variant": "power", "q": 1.5}


class TestRunSweep:
    def test_quadratic_equality_cell(self):
        plan = ex.SweepPlan("COR_ABQ", (2.0,), (2,), trials_per_cell=100, base_seed=1)
        summary = ex.run_sweep(plan)
        assert summary.violations == 0
        cell = summary.cells[0]
        assert cell.trials == 100 and cell.skipped == 0
        assert abs(cell.min_gap) <= 1e-9 * 1e3  # equality region: gap ~ 0

    def test_theorem_cells_clean(self):
        plan = ex.SweepPlan("COR_ABQ", (0.5, 1.5, 2.5), (2, 3, 4), trials_per_cell=40, base_seed=3)
        summary = ex.run_sweep(plan)
        assert summary.violations == 0
        assert summary.verdict == "PASS"

    def test_determinism_byte_for_byte(self):
        s1 = ex.run_sweep(small_plan())
        s2 = ex.run_sweep(small_plan())
        assert json.dumps(s1.to_json()) == json.dumps(s2.to_json())
        assert s1.to_csv() == s2.to_csv()

    def test_seed_isolation(self):
        full = ex.run_sweep(small_plan())
        # dropping the second q leaves the first q's cells untouched
        reduced = ex.run_sweep(small_plan(q_grid=(0.5,)))
        assert reduced.cells[0].to_json() == full.cells[0].to_json()
        assert reduced.cells[1].to_json() == full.cells[1].to_json()

    def test_trial_seed_formula(self):
        plan = small_plan(trials_per_cell=3)
        records = ex.sweep_records(plan)
        seeds = [r.seed for r in records]
        expected = [7 + i * 10**6 + j for i in range(4) for j in range(3)]
        assert seeds == expected

    def test_negative_q_skips_near_singular(self):
        # rank-deficient draws must be SKIPPED, not crash or FAIL
        plan = ex.SweepPlan(
            "COR_ABQ", (-1.0,), (3,), trials_per_cell=40,
            ensemble="rank_deficient", base_seed=11,
        )
        summary = ex.run_sweep(plan)
        cell = summary.cells[0]
        assert cell.skipped == 40  # every rank-deficient draw violates A > 0
        assert cell.violations == 0
        assert cell.min_gap is None

    def test_skipped_records_are_valid_json(self):
        plan = ex.SweepPlan(
            "COR_ABQ", (-1.0,), (3,), trials_per_cell=5,
            ensemble="rank_deficient", base_seed=11,
        )
        for rec in ex.sweep_records(plan):
            parsed = ineq.TrialRecord.from_json(json.loads(json.dumps(rec.to_json())))
            assert parsed.verdict == "SKIPPED"
            assert parsed.reason

    def test_norm_compression_blocks_and_main_trace_func(self):
        s = ex.run_sweep(ex.SweepPlan("NORM_COMPRESSION", (1.5,), (2,), 20, base_seed=5))
        assert s.violations == 0
        s = ex.run_sweep(
            ex.SweepPlan("MAIN_TRACE", (None,), (2,), 20, base_seed=5, func=fc.PowerFunction(2.5))
        )
        assert s.violations == 0
        assert s.cells[0].worst.func == "power(q=2.5)"

    def test_prop_q4_cells(self):
        s = ex.run_sweep(ex.SweepPlan("PROP_Q4", (None,), (2, 4), 25, base_seed=9))
        assert s.violations == 0 and all(c.skipped == 0 for c in s.cells)


class TestRepro:
    def test_closed_forms(self):
        for q in (2.5, 3.0, 4.0, 5.0):
            rec = ex.repro_counterexample(q)
            lhs_cf, rhs_cf = ex.repro_closed_forms(q)
            assert rec.lhs == pytest.approx(lhs_cf, rel=1e-10)
            assert rec.rhs == pytest.approx(rhs_cf, rel=1e-10)

    def test_verdict_pattern(self):
        assert ex.repro_counterexample(2.5).verdict == "PASS"
        assert ex.repro_counterexample(3.0).verdict == "PASS"
        assert ex.repro_counterexample(4.0).verdict == "FAIL"
        assert ex.repro_counterexample(5.0).verdict == "FAIL"

    def test_boundary_equality_at_q3(self):
        rec = ex.repro_counterexample(3.0)
        assert abs(rec.lhs - rec.rhs) <= 1e-10

    def test_closed_form_values(self):
        # frozen from the expansion of (1 +- sqrt(2)/2)^q at q = 4
        lhs, rhs = ex.repro_closed_forms(4.0)
        assert lhs == pytest.approx(6.5, abs=1e-12)
        assert rhs == pytest.approx(7.0, abs=1e-12)


class TestSearch:
    def test_finds_counterexample_beyond_theorem(self):
        rec = ex.search_counterexample("COR_ABQ", 4.0, 2, budget=20, seed=1)
        assert rec.verdict == "FAIL"
        assert rec.gap < 0

    def test_equality_region_stays_clean(self):
        rec = ex.search_counterexample("COR_ABQ", 2.0, 2, budget=10, seed=2)
        assert rec.gap >= -rec.tol

    def test_theorem_region_main_trace(self):
        g = fc.DiscreteMeasureBFk(2, (1.0,), (1.0,))
        rec = ex.search_counterexample("MAIN_TRACE", None, 2, budget=15, seed=3, func=g)
        assert rec.gap >= -rec.tol

    def test_reevaluation_consistency(self):
        rec = ex.search_counterexample("COR_ABQ", 4.0, 2, budget=10, seed=4)
        again = ex.evaluate_case("COR_ABQ", rec.detail, q=4.0)
        scale = max(abs(rec.lhs), abs(rec.rhs), 1.0)
        assert abs(again.gap - rec.gap) <= 1e-12 * scale

    def test_determinism(self):
        r1 = ex.search_counterexample("COR_ABQ", 4.0, 2, budget=5, seed=9)
        r2 = ex.search_counterexample("COR_ABQ", 4.0, 2, budget=5, seed=9)
        assert r1.gap == r2.gap and r1.lhs == r2.lhs

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            ex.search_counterexample("COR_ABQ", 4.0, 2, budget=0, seed=1)

    @pytest.mark.parametrize("seed", [21545083216210389, 51219875489557407, 43221104217750621])
    def test_q4_counterexample_found_in_64_restarts(self, seed):
        # 64 full-rank restarts missed it on these seeds
        assert ex.search_counterexample("COR_ABQ", 4.0, 2, budget=64, seed=seed).verdict == "FAIL"

    @pytest.mark.parametrize("q,dim", [(3.05, 2), (3.2, 2), (3.2, 3), (3.5, 3), (3.2, 4)])
    def test_planted_recall(self, q, dim):
        # the paper's pair of rank-one projectors violates COR_ABQ at every
        # q > 3, and at every dim when embedded with a zero block
        verdicts = [ex.search_counterexample("COR_ABQ", q, dim, budget=200, seed=s).verdict for s in range(100, 110)]
        assert verdicts == ["FAIL"] * 10

    def test_restart_ranks(self):
        params = np.random.default_rng(0).standard_normal((4, ineq.PAIR.param_count(3)))
        restarts = np.arange(4)
        a = ineq.PAIR.unpack(params * ineq.PAIR.rank_mask(3, restarts), 3)["a"]
        assert [np.linalg.matrix_rank(m) for m in a] == [1, 2, 3, 1]
        assert np.array_equal(a[2], ineq.PAIR.unpack(params, 3)["a"][2])
        d = ineq.CD.unpack(params * ineq.CD.rank_mask(3, restarts), 3)["d"]
        assert [np.linalg.matrix_rank(m) for m in d] == [1, 2, 3, 1]

    def test_parameter_layout(self):
        # a factor's parameters are the real, then the imaginary parts of G
        # (row-major); COR_ABQ3's general block C is G itself
        params = np.arange(1.0, 1.0 + ineq.CD.param_count(2))[None]
        c = ineq.CD.unpack(params, 2)["c"][0]
        assert np.array_equal(c, np.array([[1.0, 2.0], [3.0, 4.0]]) + 1j * np.array([[5.0, 6.0], [7.0, 8.0]]))

    def test_singular_inputs_only_inside_the_domain(self):
        # the kernels alone decide: a rank-one Gram pair, as a rank-reduced
        # search restart builds it, is skipped exactly outside the domain
        params = np.random.default_rng(3).standard_normal((1, ineq.PAIR.param_count(3)))
        pair = {k: m[0] for k, m in ineq.PAIR.unpack(params * ineq.PAIR.rank_mask(3, np.array([0])), 3).items()}

        def skipped(case, q=None, func=None):
            return ex.evaluate_case(case, pair, q=q, func=func).verdict == "SKIPPED"

        assert not skipped("COR_ABQ", 4.0)
        assert skipped("COR_ABQ", -1.0)
        assert not skipped("PROP_Q4", -1.0)  # evaluated at q = 4
        bf = fc.DiscreteMeasureBFk(2, (1.0,), (1.0,))
        cm = fc.DiscreteMeasureCM0((0.5,), (1.0,))
        assert not skipped("MAIN_TRACE", func=bf)
        assert skipped("MAIN_TRACE", func=cm)  # stated for A, B > 0
        assert not skipped("TRACE_SUBADD", func=cm)
        assert skipped("TRACE_SUBADD", func=fc.PowerFunction(-0.5))


class TestProbe:
    def test_faltq_high(self):
        plan = ex.SweepPlan("COR_FALTQ", (3.5, 4.0), (2,), 25, base_seed=5)
        summary = ex.probe_conjecture("FALTQ_HIGH", plan)
        for cell in summary.cells:
            assert cell.violations == 0
            assert cell.conjecture + cell.skipped == cell.trials
        assert summary.min_gap is not None

    def test_faltq_neg_reversed_orientation(self):
        plan = ex.SweepPlan("COR_FALTQ", (-1.0,), (2,), 25, base_seed=6)
        summary = ex.probe_conjecture("FALTQ_NEG", plan)
        assert summary.cells[0].violations == 0
        assert summary.cells[0].conjecture > 0

    def test_normcomp_high(self):
        plan = ex.SweepPlan("NORM_COMPRESSION", (4.0,), (2,), 25, base_seed=7)
        summary = ex.probe_conjecture("NORMCOMP_HIGH", plan)
        assert summary.cells[0].conjecture == 25

    def test_region_membership_follows_the_rule(self):
        # the regions as stated spans; membership now comes from the case rule
        stated = {
            "FALTQ_HIGH": ("COR_FALTQ", lambda q: q > 3),
            "FALTQ_NEG": ("COR_FALTQ", lambda q: -2 < q < 0),
            "NORMCOMP_HIGH": ("NORM_COMPRESSION", lambda q: q > 3),
        }
        grid = [x + d for x in (-2.0, 0.0, 3.0) for d in (-1e-12, 0.0, 1e-12)]
        grid += [-3.0, -1.0, 0.5, 1.0, 2.0, 3.5, 4.0, 6.0, -np.inf, np.inf]
        for region, (case, member) in stated.items():
            entry = ineq.CASES[case]
            assert ineq.probe_case(region) == case
            for q in grid + list(entry.probes[region]):
                assert entry.in_region(region, q) == member(q), (region, q)
            assert not entry.in_region(region, None)

    def test_region_validation(self):
        plan = ex.SweepPlan("COR_FALTQ", (2.0,), (2,), 5, base_seed=1)
        with pytest.raises(ValueError):
            ex.probe_conjecture("FALTQ_HIGH", plan)  # q inside the theorem
        with pytest.raises(ValueError):
            ex.probe_conjecture("NO_SUCH_REGION", plan)
        plan2 = ex.SweepPlan("COR_ABQ", (4.0,), (2,), 5, base_seed=1)
        with pytest.raises(ValueError):
            ex.probe_conjecture("FALTQ_HIGH", plan2)  # wrong case for region
