"""Randomized ensembles, parameter sweeps, counterexample search and
conjecture probing over the inequality catalog.

Sweeps are deterministic: trial j of cell i reads row j of streams spawned
from SeedSequence([base_seed, i]), whatever the cell's size or CHUNK_TRIALS.
So a record (seed: the trial id base_seed + i*10**6 + j) is reproducible
from its (case, cell, index), and cells are seed-isolated from each other.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
import numpy as np

from . import funclass as fc
from . import ineq
from . import matcore as mc
from .ineq import DEFAULT_TOL_REL, TrialRecord
from .matcore import DomainError

__all__ = [
    "SweepPlan",
    "CellSummary",
    "SweepSummary",
    "run_sweep",
    "evaluate_case",
    "draw_inputs",
    "repro_counterexample",
    "repro_closed_forms",
    "COUNTEREXAMPLE_A",
    "COUNTEREXAMPLE_B",
    "search_counterexample",
    "probe_conjecture",
    "SWEEP_CSV_HEADER",
]

SWEEP_CSV_HEADER = "case,q,dim,ensemble,trials,violations,min_gap,worst_seed"

CELL_SEED_STRIDE = 10**6

STREAMS = ("normals", "ranks", "uniforms")

# Trials per stacked evaluation: bounds memory for any cell or search size.
CHUNK_TRIALS = 256

# Gaussian refinement inside search_counterexample.
SEARCH_REFINE_STEPS = 50
SEARCH_INITIAL_STEP = 0.5


@dataclass(frozen=True)
class SweepPlan:
    """One sweep: a case evaluated over a (q, dim) grid of seeded cells."""

    case: str
    q_grid: tuple[float | None, ...]
    dims: tuple[int, ...]
    trials_per_cell: int
    ensemble: str = "wishart"
    base_seed: int = 42
    func: fc.ScalarFunction | None = None
    tol_rel: float = DEFAULT_TOL_REL

    def __post_init__(self):
        if self.case not in ineq.CASES:
            raise ValueError(f"unknown case {self.case!r}; choose from {sorted(ineq.CASES)}")
        if not 1 <= self.trials_per_cell < CELL_SEED_STRIDE:
            raise ValueError(
                f"trials_per_cell must be in [1, {CELL_SEED_STRIDE}), so that cells "
                f"draw from disjoint seed ranges; got {self.trials_per_cell}"
            )
        if not self.q_grid or not self.dims:
            raise ValueError("q_grid and dims must be non-empty")
        if not all(q is None or math.isfinite(q) for q in self.q_grid):
            raise ValueError(f"q values must be finite, got {self.q_grid}")
        if self.ensemble not in mc.ENSEMBLES:
            raise ValueError(f"unknown ensemble {self.ensemble!r}")
        if ineq.CASES[self.case].needs_func and self.func is None:
            raise ValueError(f"case {self.case} needs a scalar function spec")
        object.__setattr__(self, "q_grid", tuple(self.q_grid))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    def cells(self) -> list[tuple[float | None, int]]:
        return [(q, d) for q in self.q_grid for d in self.dims]

    def to_json(self) -> dict:
        out = {
            "case": self.case,
            "q_grid": list(self.q_grid),
            "dims": list(self.dims),
            "trials_per_cell": self.trials_per_cell,
            "ensemble": self.ensemble,
            "base_seed": self.base_seed,
            "tol_rel": self.tol_rel,
        }
        if self.func is not None:
            out["func"] = self.func.to_json()
        return out


@dataclass(frozen=True)
class CellSummary:
    case: str
    q: float | None
    dim: int
    ensemble: str
    trials: int
    violations: int
    skipped: int
    conjecture: int
    min_gap: float | None
    max_gap: float | None
    worst_seed: int | None
    worst: TrialRecord | None = field(repr=False)

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "q": self.q,
            "dim": self.dim,
            "ensemble": self.ensemble,
            "trials": self.trials,
            "violations": self.violations,
            "skipped": self.skipped,
            "conjecture": self.conjecture,
            "min_gap": self.min_gap,
            "max_gap": self.max_gap,
            "worst_seed": self.worst_seed,
            "worst": self.worst.to_json() if self.worst is not None else None,
        }

    def csv_row(self) -> str:
        qtxt = "" if self.q is None else repr(float(self.q))
        min_gap = "" if self.min_gap is None else repr(self.min_gap)
        worst_seed = "" if self.worst_seed is None else str(self.worst_seed)
        return (
            f"{self.case},{qtxt},{self.dim},{self.ensemble},"
            f"{self.trials},{self.violations},{min_gap},{worst_seed}"
        )


@dataclass(frozen=True)
class SweepSummary:
    plan: SweepPlan
    cells: tuple[CellSummary, ...]

    @property
    def violations(self) -> int:
        return sum(c.violations for c in self.cells)

    @property
    def verdict(self) -> str:
        return "PASS" if self.violations == 0 else "FAIL"

    @property
    def min_gap(self) -> float | None:
        gaps = [c.min_gap for c in self.cells if c.min_gap is not None]
        return min(gaps) if gaps else None

    def worst_record(self) -> TrialRecord | None:
        worst = None
        for c in self.cells:
            if c.worst is not None and (worst is None or c.worst.gap < worst.gap):
                worst = c.worst
        return worst

    def to_json(self) -> dict:
        return {
            "plan": self.plan.to_json(),
            "verdict": self.verdict,
            "violations": self.violations,
            "min_gap": self.min_gap,
            "cells": [c.to_json() for c in self.cells],
        }

    def to_csv(self) -> str:
        lines = [SWEEP_CSV_HEADER]
        lines.extend(c.csv_row() for c in self.cells)
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Input generation and case dispatch
# ---------------------------------------------------------------------------


def draw_inputs(case: str, dim: int, ensemble: str, rng: np.random.Generator) -> dict:
    """One trial's inputs {key: matrix}: one row of the stacked draw, all from rng."""
    return {k: m[0] for k, m in ineq.CASES[case].kind.draw(lambda quantity: rng, ensemble, dim, 1).items()}


# Evaluate one catalog case on explicit inputs {key: matrix}; a trial a sweep
# would skip gives a SKIPPED record.
evaluate_case = ineq.evaluate_one


def run_cell(plan: SweepPlan, cell_index: int, q: float | None, dim: int) -> list[TrialRecord]:
    """All trial records of one cell, drawn and evaluated CHUNK_TRIALS at a
    time; trial j has seed base_seed + cell_index * 10**6 + j and reads row j
    of each stream.  A stream is made when the draw first reads it."""
    first = plan.base_seed + cell_index * CELL_SEED_STRIDE
    kind = ineq.CASES[plan.case].kind
    stream = functools.cache(lambda quantity: np.random.default_rng(np.random.SeedSequence(
        [plan.base_seed, cell_index], spawn_key=(STREAMS.index(quantity),))))
    records: list[TrialRecord] = []
    for lo in range(0, plan.trials_per_cell, CHUNK_TRIALS):
        seeds = range(first + lo, first + min(lo + CHUNK_TRIALS, plan.trials_per_cell))
        inputs = kind.draw(stream, plan.ensemble, dim, len(seeds))
        batch = ineq.evaluate(plan.case, inputs, q, plan.func, plan.tol_rel)
        records.extend(batch.records(seeds, plan.ensemble))
    return records


def sweep_records(plan: SweepPlan) -> list[TrialRecord]:
    """Every record of the sweep, in deterministic cell-major order."""
    out: list[TrialRecord] = []
    for i, (q, dim) in enumerate(plan.cells()):
        out.extend(run_cell(plan, i, q, dim))
    return out


def run_sweep(plan: SweepPlan) -> SweepSummary:
    """Execute the plan cell by cell; domain rejections become SKIPPED
    records, never crashes."""
    cells = []
    for i, (q, dim) in enumerate(plan.cells()):
        cells.append(_summarize_cell(plan, q, dim, run_cell(plan, i, q, dim)))
    return SweepSummary(plan=plan, cells=tuple(cells))


def _summarize_cell(plan: SweepPlan, q, dim, records) -> CellSummary:
    evaluated = [r for r in records if r.verdict != "SKIPPED"]
    violations = sum(1 for r in evaluated if r.verdict == "FAIL")
    conjecture = sum(1 for r in evaluated if r.verdict == "CONJECTURE_OBS")
    worst = min(evaluated, key=lambda r: r.gap) if evaluated else None
    return CellSummary(
        case=plan.case,
        q=q,
        dim=dim,
        ensemble=plan.ensemble,
        trials=len(records),
        violations=violations,
        skipped=len(records) - len(evaluated),
        conjecture=conjecture,
        min_gap=worst.gap if worst is not None else None,
        max_gap=max(r.gap for r in evaluated) if evaluated else None,
        worst_seed=worst.seed if worst is not None else None,
        worst=worst,
    )


# ---------------------------------------------------------------------------
# Explicit counterexample reproduction
# ---------------------------------------------------------------------------

COUNTEREXAMPLE_A = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
COUNTEREXAMPLE_B = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=np.complex128)
COUNTEREXAMPLE_A.setflags(write=False)
COUNTEREXAMPLE_B.setflags(write=False)


def repro_closed_forms(q: float) -> tuple[float, float]:
    """Closed forms for the explicit 2x2 example:
    lhs = (1 + sqrt(2)/2)^q + (1 - sqrt(2)/2)^q - 2, rhs = (2^q - 2)/2."""
    s = math.sqrt(2.0) / 2.0
    return (1.0 + s) ** q + (1.0 - s) ** q - 2.0, (2.0**q - 2.0) / 2.0


def repro_counterexample(q: float, tol_rel: float = DEFAULT_TOL_REL) -> TrialRecord:
    """Evaluate COR_ABQ on the explicit pair A = diag(1, 0),
    B = [[1,1],[1,1]]/2; for q > 3 the stated sense fails (FAIL verdict)."""
    return ineq.evaluate_one(
        "COR_ABQ", {"a": COUNTEREXAMPLE_A, "b": COUNTEREXAMPLE_B}, q,
        tol_rel=tol_rel, seed=0, ensemble="explicit_pair",
    )


# ---------------------------------------------------------------------------
# Counterexample search
# ---------------------------------------------------------------------------


def search_counterexample(
    case: str,
    q: float | None,
    dim: int,
    budget: int,
    seed: int,
    func: fc.ScalarFunction | None = None,
    tol_rel: float = DEFAULT_TOL_REL,
) -> TrialRecord:
    """Minimize the oriented gap over `budget` random restarts, each refined
    by coordinate-wise Gaussian perturbations with step halving on
    non-improvement.  Returns the most negative-gap record found; the record's
    `detail` carries the input matrices so the gap can be re-evaluated.

    Restart k builds its inputs from factors of rank 1 + (k mod n), n the
    factor's side, so restarts reach the edge of the PSD cone where
    counterexamples such as two rank-one projectors live.  Where the kernel
    skips such a rank-reduced start point (singular inputs outside the
    case's domain), the restart starts instead at full rank from the same
    normal draw, and the chunk is evaluated once more.

    Up to CHUNK_TRIALS independent restarts advance in lockstep, one stacked
    evaluation per step.  Row k of a (restarts, nparams + SEARCH_REFINE_STEPS)
    normal draw holds restart k's start point and step scalars, the stream of
    running restarts one after another, so candidates and decisions match
    that loop.  A step perturbs one parameter, so only the inputs it feeds
    are rebuilt and decomposed again; the others and their decompositions
    are kept.  Out-of-domain candidates have gap +inf; NaN never wins.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if case not in ineq.CASES:
        raise ValueError(f"unknown case {case!r}")
    if q is not None and not math.isfinite(q):
        raise ValueError(f"q must be finite, got {q}")
    kind = ineq.CASES[case].kind
    rng = np.random.default_rng(seed)
    nparams = kind.param_count(dim)

    best_params = None
    best_gap = math.inf
    for lo in range(0, budget, CHUNK_TRIALS):
        draws = rng.standard_normal((min(CHUNK_TRIALS, budget - lo), nparams + SEARCH_REFINE_STEPS))
        # a parameter a restart's rank leaves out stays 0: its steps change nothing
        live = kind.rank_mask(dim, np.arange(lo, lo + len(draws)))
        for _ in range(2):  # the second pass only where the first skipped a rank-reduced start
            params = draws[:, :nparams] * live
            inputs = kind.unpack(params, dim)
            batch = ineq.evaluate(case, inputs, q, func, tol_rel)
            retry = np.array([bool(r) for r in batch.reasons]) & ~live.all(axis=1)
            if not retry.any():
                break
            live[retry] = True  # singular inputs outside the case's domain: start at full rank
        gap = batch.gaps()
        decomps = {k: mc.SpectralDecomposition(*map(np.array, d)) for k, d in batch.decomps.items()}  # writable
        step = np.full(len(params), SEARCH_INITIAL_STEP)
        for it in range(SEARCH_REFINE_STEPS):
            column = it % nparams
            candidate = params.copy()
            candidate[:, column] += step * draws[:, nparams + it] * live[:, column]
            changed = kind.unpack(candidate, dim, column)
            kept = {k: d for k, d in decomps.items() if k not in changed}
            cand = ineq.evaluate(case, {**inputs, **changed}, q, func, tol_rel, kept)
            cand_gap = cand.gaps()
            better = cand_gap < gap
            step[~better] *= 0.5
            if not better.any():
                continue
            rows = (better, better[:, None], better[:, None, None])  # by the ndim of the kept array
            accepted = [(params, candidate), (gap, cand_gap)] + [(inputs[k], changed[k]) for k in changed]
            accepted += [pair for k in changed if k in decomps for pair in zip(decomps[k], cand.decomps[k])]
            for old, new in accepted:
                np.copyto(old, new, where=rows[old.ndim - 1])
        k = int(np.argmin(np.where(np.isnan(gap), math.inf, gap)))
        if gap[k] < best_gap:
            best_gap, best_params = float(gap[k]), params[k]

    if best_params is None or not math.isfinite(best_gap):
        raise DomainError(f"search produced no evaluable candidate for {case} (q={q}, dim={dim})")

    inputs = {key: m[0] for key, m in kind.unpack(best_params[None], dim).items()}
    rec = evaluate_case(
        case, inputs, q=q, func=func, tol_rel=tol_rel, seed=seed, ensemble="search"
    )
    return replace(rec, detail=inputs)


# ---------------------------------------------------------------------------
# Conjecture probes
# ---------------------------------------------------------------------------

def probe_conjecture(region: str, plan: SweepPlan) -> SweepSummary:
    """Sweep restricted to one of the open parameter regions a case entry
    names.  Every emitted verdict is CONJECTURE_OBS (or SKIPPED); the summary
    reports the minimum observed gap and the seed of the minimizing input."""
    case = ineq.probe_case(region)
    if plan.case != case:
        raise ValueError(f"region {region} probes case {case}, plan has {plan.case}")
    outside = [q for q in plan.q_grid if not ineq.CASES[case].in_region(region, q)]
    if outside:
        raise ValueError(f"q values {outside} fall outside region {region}")
    summary = run_sweep(plan)
    if any(c.violations for c in summary.cells):
        raise AssertionError("conjecture probes must not emit FAIL verdicts")
    return summary
