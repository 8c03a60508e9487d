"""Stacked-trial evaluation against one-trial evaluation, and the lockstep
counterexample search against a restart-by-restart reference loop."""

import math
from dataclasses import replace

import numpy as np
import pytest

from tracelab import explorer as ex
from tracelab import funclass as fc
from tracelab import ineq
from tracelab import matcore as mc

CM0 = fc.DiscreteMeasureCM0((0.5, 2.0), (1.0, 0.5))

# case -> (q, func, how every third trial is changed, whether that change
# takes it out of the case's domain)
SETUPS = {
    "MCCARTHY": (0.5, None, "negate", True),
    "GOLDEN_THOMPSON": (1.0, None, "negate", False),  # any Hermitian pair is valid
    "MAIN_TRACE": (None, CM0, "rank_deficient", True),
    "COR_ABQ": (-1.0, None, "rank_deficient", True),
    "COR_PMEAN": (2.0, None, "negate", True),
    "COR_FALTQ": (-3.0, None, "rank_deficient", True),
    "ALT": (0.5, None, "negate", True),
    "PROP_Q4": (None, None, "negate", False),  # integer powers: every pair is valid
    "COR_ABQ3": (-2.5, None, "rank_deficient", True),
    "NORM_COMPRESSION": (2.5, None, "negate", True),
    "TRACE_SUBADD": (None, fc.PowerFunction(0.5), "negate", True),
}


def mixed_trials(case, how, dim, count, seed):
    """One input dict per trial; every third trial is pushed out of domain."""
    trials = []
    for j in range(count):
        rng = np.random.default_rng(seed + j)
        bad = j % 3 == 1
        ensemble = "rank_deficient" if bad and how == "rank_deficient" else "wishart"
        inputs = ex.draw_inputs(case, dim, ensemble, rng)
        if bad and how == "negate":
            inputs = {k: -v for k, v in inputs.items()}
        trials.append(inputs)
    return trials


def test_setups_cover_the_catalog():
    assert set(SETUPS) == set(ineq.CASES)


@pytest.mark.parametrize("case", sorted(SETUPS))
@pytest.mark.parametrize("dim", [2, 3])
def test_stack_matches_one_trial_wrapper(case, dim):
    q, func, how, out_of_domain = SETUPS[case]
    trials = mixed_trials(case, how, dim, 9, seed=500 + dim)
    seeds = range(100, 109)
    stacked = {k: np.stack([t[k] for t in trials]) for k in trials[0]}
    records = ineq.evaluate(case, stacked, q, func).records(seeds, "mixed")
    skipped = 0
    for seed, inputs, rec in zip(seeds, trials, records):
        one = ex.evaluate_case(case, inputs, q=q, func=func, seed=seed, ensemble="mixed")
        if one.verdict == "SKIPPED":
            skipped += 1
            assert rec.verdict == "SKIPPED" and rec.reason == one.reason and one.reason
            assert (rec.q, rec.dim) == (one.q, one.dim)
            continue
        assert rec.lhs == pytest.approx(one.lhs, rel=1e-12, abs=0.0)
        assert rec.rhs == pytest.approx(one.rhs, rel=1e-12, abs=0.0)
        assert (rec.verdict, rec.reason, rec.q, rec.dim, rec.func) == (one.verdict, "", one.q, one.dim, one.func)
    assert skipped == (3 if out_of_domain else 0)


def test_parameter_outside_the_case_skips_every_trial():
    plan = ex.SweepPlan("MCCARTHY", (-1.0,), (2,), trials_per_cell=4, base_seed=3)
    records = ex.sweep_records(plan)
    assert [r.verdict for r in records] == ["SKIPPED"] * 4
    assert records[0].reason == "McCarthy inequality needs q > 0, got -1.0"


def test_skipped_records_carry_the_evaluated_q_and_dim(monkeypatch):
    # NORM_COMPRESSION's record dim is the side of the block matrix (2 * dim)
    # and PROP_Q4's q is its fixed exponent, skipped or not
    plan = ex.SweepPlan("NORM_COMPRESSION", (-1.0, 1.5), (2,), 4)
    records = ex.sweep_records(plan)
    assert [(r.q, r.dim, r.verdict) for r in records] == [(-1.0, 4, "SKIPPED")] * 4 + [(1.5, 4, "PASS")] * 4
    # two nearly orthogonal rank-one inputs of norm 1e6: the q=4 expansion
    # identity misses by far more than its residual bound, so PROP_Q4 skips
    c, s = math.cos(1e-6), math.sin(1e-6)
    pair = {"a": np.diag([1e6, 0.0]), "b": 1e6 * np.array([[s * s, -s * c], [-s * c, c * c]])}
    def draw(self, stream, ensemble, dim, count):
        return {k: np.stack([m] * count) for k, m in pair.items()}

    monkeypatch.setattr(ineq.InputKind, "draw", draw)
    records = ex.sweep_records(ex.SweepPlan("PROP_Q4", (None,), (2,), 2))
    assert [(r.q, r.dim, r.verdict) for r in records] == [(4.0, 2, "SKIPPED")] * 2


@pytest.mark.parametrize("case,q,func,ensemble,trials", [
    pytest.param("COR_ABQ", -1.0, None, "rank_deficient", 10, id="COR_ABQ--1.0-None"),
    pytest.param("NORM_COMPRESSION", 1.5, None, "rank_deficient", 10, id="NORM_COMPRESSION-1.5-None"),
    pytest.param("MAIN_TRACE", None, CM0, "rank_deficient", 10, id="MAIN_TRACE-None-func2"),
    # a PAIR, a CD and a BLOCKS case on the other ensembles
    ("COR_ABQ", 2.5, None, "wishart", 7),
    ("COR_ABQ3", 1.5, None, "wishart", 8),
    ("NORM_COMPRESSION", 2.5, None, "wishart", 11),
    ("ALT", 1.5, None, "rotated_uniform", 7),
    ("COR_ABQ3", 0.5, None, "rotated_uniform", 8),
    ("NORM_COMPRESSION", 1.5, None, "rotated_uniform", 11),
])
def test_cell_records_do_not_depend_on_the_chunk_size(case, q, func, ensemble, trials, monkeypatch):
    plan = ex.SweepPlan(case, (q,), (2, 3), trials_per_cell=trials, ensemble=ensemble, base_seed=9, func=func)
    whole = [r.to_json() for r in ex.sweep_records(plan)]
    monkeypatch.setattr(ex, "CHUNK_TRIALS", 3)
    assert [r.to_json() for r in ex.sweep_records(plan)] == whole


@pytest.mark.parametrize("ensemble", sorted(mc.ENSEMBLES))
def test_a_cell_prefix_does_not_depend_on_the_trial_count(ensemble):
    k = 4
    plan = ex.SweepPlan("ALT", (1.5,), (2, 3), trials_per_cell=k, ensemble=ensemble, base_seed=5)
    short = [r.to_json() for r in ex.sweep_records(plan)]
    long = [r.to_json() for r in ex.sweep_records(replace(plan, trials_per_cell=3 * k))]
    assert short == long[:k] + long[3 * k : 4 * k]


def test_cell_streams_are_spawned_from_the_cell_seed():
    # cell i reads quantity STREAMS[k] from child k of SeedSequence([base_seed, i])
    plan = ex.SweepPlan("COR_ABQ3", (1.5,), (2, 3), trials_per_cell=5, ensemble="rotated_uniform", base_seed=21)
    streams = dict(zip(ex.STREAMS, map(np.random.default_rng, np.random.SeedSequence([21, 1]).spawn(3))))
    inputs = ineq.CD.draw(streams.__getitem__, "rotated_uniform", 3, 5)
    seeds = range(21 + ex.CELL_SEED_STRIDE, 21 + ex.CELL_SEED_STRIDE + 5)
    expected = ineq.evaluate("COR_ABQ3", inputs, 1.5).records(seeds, "rotated_uniform")
    assert [r.to_json() for r in ex.sweep_records(plan)[5:]] == [r.to_json() for r in expected]


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_rank_deficient_draws_have_their_drawn_rank(dim):
    # each Gram factor's rank is 1 + floor(u * (dim - 1)), u its uniform of
    # the ranks stream, which is read row-major by trial
    count = 40
    streams = {quantity: np.random.default_rng(k) for k, quantity in enumerate(ex.STREAMS)}
    inputs = ineq.PAIR.draw(streams.__getitem__, "rank_deficient", dim, count)
    ranks = 1 + (np.random.default_rng(1).random((count, 2)) * (dim - 1)).astype(int)
    assert set(ranks.ravel().tolist()) == set(range(1, dim))
    got = [[np.linalg.matrix_rank(inputs[k][j], hermitian=True) for k in "ab"] for j in range(count)]
    assert got == ranks.tolist()


def sequential_search(case, q, dim, budget, seed, func):
    """Reference: the restarts run one after another, one evaluation of every
    input each step; restart k has rank 1 + (k mod n), or full rank where
    the kernel skips that rank-reduced start point."""
    kind = ineq.CASES[case].kind
    rng, nparams = np.random.default_rng(seed), kind.param_count(dim)

    def inputs(params):
        return {key: m[0] for key, m in kind.unpack(params[None], dim).items()}

    def gap_of(params):
        rec = ex.evaluate_case(case, inputs(params), q=q, func=func)
        return math.inf if rec.verdict == "SKIPPED" else rec.gap

    best_gap, best = math.inf, None
    for k in range(budget):
        start = rng.standard_normal(nparams)
        live = kind.rank_mask(dim, np.array([k]))[0]
        if ex.evaluate_case(case, inputs(start * live), q=q, func=func).verdict == "SKIPPED":
            live = np.ones(nparams, bool)
        params = start * live
        gap, step = gap_of(params), ex.SEARCH_INITIAL_STEP
        for it in range(ex.SEARCH_REFINE_STEPS):
            cand = params.copy()
            cand[it % nparams] += step * rng.standard_normal() * live[it % nparams]
            cand_gap = gap_of(cand)
            if cand_gap < gap:
                params, gap = cand, cand_gap
            else:
                step *= 0.5
        if gap < best_gap:
            best_gap, best = gap, params
    return ex.evaluate_case(case, inputs(best), q=q, func=func, seed=seed, ensemble="search"), inputs(best)


@pytest.mark.parametrize("case,q,func", [
    ("COR_ABQ", 2.0, None),
    ("COR_ABQ", 4.0, None),
    ("NORM_COMPRESSION", 4.0, None),
    ("MAIN_TRACE", None, fc.DiscreteMeasureBFk(2, (1.0,), (1.0,))),
    ("COR_ABQ3", -2.5, None),
    ("COR_FALTQ", 2.5, None),
    ("ALT", -1.0, None),
    ("COR_PMEAN", 2.0, None),
    ("COR_ABQ", -1.0, None),
    ("COR_ABQ3", 1.5, None),
])
@pytest.mark.parametrize("dim", [2, 3])
def test_lockstep_search_matches_sequential_restarts(case, q, func, dim, monkeypatch):
    monkeypatch.setattr(ex, "CHUNK_TRIALS", 3)  # restarts cross chunk boundaries
    for seed in (11, 12, 13):
        rec = ex.search_counterexample(case, q, dim, 5, seed, func=func)
        ref, ref_inputs = sequential_search(case, q, dim, 5, seed, func)
        assert rec.to_json() == ref.to_json()
        assert all(np.array_equal(rec.detail[k], ref_inputs[k]) for k in ref_inputs)


def test_search_step_decomposes_only_the_perturbed_input(monkeypatch):
    # a step perturbs one parameter, which feeds A or B: the other input's
    # decomposition is kept, so each step decomposes one matrix per restart
    counted, eigh = [], mc.eigh

    def counting_eigh(a):
        counted.append(int(np.prod(a.shape[:-2])) if isinstance(a, np.ndarray) else 1)
        return eigh(a)

    monkeypatch.setattr(mc, "eigh", counting_eigh)
    restarts = 5
    ex.search_counterexample("COR_ABQ", 4.0, 2, restarts, 7)
    # start points (A and B), one input per step, then the best point's record
    assert sum(counted) == restarts * (2 + ex.SEARCH_REFINE_STEPS) + 2


def test_skipped_rank_reduced_starts_cost_one_more_evaluation(monkeypatch):
    # start points, one evaluation per step and the best point's record; at
    # q = -1 the kernel skips the rank-reduced starts, which are evaluated
    # again at full rank, once for the whole chunk
    calls, evaluate = [], ineq.evaluate

    def counting_evaluate(*args, **kwargs):
        calls.append(1)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(ineq, "evaluate", counting_evaluate)
    counts = []
    for q in (4.0, -1.0):
        calls.clear()
        ex.search_counterexample("COR_ABQ", q, 2, 5, 7)
        counts.append(len(calls))
    assert counts == [ex.SEARCH_REFINE_STEPS + 2, ex.SEARCH_REFINE_STEPS + 3]


def test_nan_gap_never_wins(monkeypatch):
    # a NaN gap is never improved on and never selected, like an +inf one
    gaps = ineq.Batch.gaps

    def search_with_first_restart_at(value):
        def patched(self):
            out = gaps(self)
            out[0] = value
            return out

        monkeypatch.setattr(ineq.Batch, "gaps", patched)
        return ex.search_counterexample("COR_ABQ", 4.0, 2, 3, 5)

    assert search_with_first_restart_at(math.nan).to_json() == search_with_first_restart_at(math.inf).to_json()
