"""One benchmark process: imports tracelab from `src`, runs jobs of one workload
in a closed loop, and reports its timings on stderr.

Run from the checkout root by `perfbench/run.py`; not meant to be started by
hand.  Program output goes to stdout exactly as tracelab writes it, with a
marker line after each job.  The last stderr line is `PERFBENCH-REPORT <json>`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback

JOB_END = "\x1ePERFBENCH-JOB-END"
REPORT_PREFIX = "PERFBENCH-REPORT "

# Job sizes.  "tiny" exists for the harness smoke test only.
VERIFY_TRIALS = {"full": 60, "tiny": 11}
SWEEP_TRIALS_PER_CELL = {"full": 3, "tiny": 1}

SWEEP_PLANS = (  # (case, q grid, dims, ensemble)
    ("COR_ABQ", (1.5, 2.5), (8, 16), "wishart"),
    ("COR_FALTQ", (2.5,), (8, 16), "rank_deficient"),
    ("NORM_COMPRESSION", (2.5,), (8,), "wishart"),
)
PLAN_SEED_STRIDE = 10**8
SEARCH_DIM = 2
# (case, q, restarts, expected verdict).  One COR_ABQ restart finds the q=4
# counterexample with probability about 0.18 (108 of 600 seeds), so 64
# restarts miss it with probability about 3e-6.  NORM_COMPRESSION at q=4 is a
# conjecture region: its verdict is CONJECTURE_OBS whatever the budget.
SEARCHES = (
    ("COR_ABQ", 4.0, 64, "FAIL"),
    ("NORM_COMPRESSION", 4.0, 6, "CONJECTURE_OBS"),
)

EIGH_PROBE_CALLS = {2: 200, 3: 200, 4: 150, 8: 40, 16: 10}
CASE_PROBE_DIM = 3
CASE_PROBE_CALLS = 20
CASE_PROBE_PARAMS = {  # one verdict-region parameter per case
    "MCCARTHY": (2.0, None),
    "GOLDEN_THOMPSON": (1.0, None),
    "MAIN_TRACE": (None, {"variant": "bfk_discrete", "k": 1, "nodes": [1.0], "weights": [1.0]}),
    "COR_ABQ": (2.5, None),
    "COR_PMEAN": (2.0, None),
    "COR_FALTQ": (2.5, None),
    "ALT": (1.5, None),
    "PROP_Q4": (None, None),
    "COR_ABQ3": (2.5, None),
    "NORM_COMPRESSION": (2.5, None),
    "TRACE_SUBADD": (None, {"variant": "power", "q": 0.5}),
}


def job_seed(seed: int, child: int, job: int) -> int:
    """The program seed of one job: 56 bits hashed from the workload seed, so
    no two jobs share inputs (tracelab derives its trial seeds by adding
    offsets below 10**11 to this one)."""
    digest = hashlib.sha256(f"{seed}:{child}:{job}".encode()).digest()
    return int.from_bytes(digest[:7], "big")


def _emit(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


class VerifyCatalog:
    """`tracelab verify` over the default catalog, dims 2-4, wishart."""

    def __init__(self, tracelab, size):
        self.cli = tracelab.cli
        self.trials = VERIFY_TRIALS[size]

    def prepare(self, seed, tracer):
        return ["verify", "--trials", str(self.trials), "--seed", str(seed)]

    def run(self, argv, tracer):
        return {"rc": self.cli.main(argv)}


class SweepHighdim:
    """`explorer.run_sweep` over three plans at dims 8 and 16; summaries only."""

    def __init__(self, tracelab, size):
        self.ex = tracelab.explorer
        self.trials = SWEEP_TRIALS_PER_CELL[size]

    def prepare(self, seed, tracer):
        with _span(tracer, "cli.setup"):
            return [
                self.ex.SweepPlan(
                    case=case, q_grid=qs, dims=dims, trials_per_cell=self.trials,
                    ensemble=ensemble, base_seed=seed + k * PLAN_SEED_STRIDE,
                )
                for k, (case, qs, dims, ensemble) in enumerate(SWEEP_PLANS)
            ]

    def run(self, plans, tracer):
        for plan in plans:
            summary = self.ex.run_sweep(plan)
            with _span(tracer, "cli.emit"):
                _emit(json.dumps(summary.to_json()))
        return {}


class SearchD2:
    """`explorer.search_counterexample` at dim 2: COR_ABQ and NORM_COMPRESSION, q=4."""

    def __init__(self, tracelab, size):
        self.ex = tracelab.explorer

    def prepare(self, seed, tracer):
        with _span(tracer, "cli.setup"):
            return [(case, q, SEARCH_DIM, budget, seed + k) for k, (case, q, budget, _) in enumerate(SEARCHES)]

    def run(self, searches, tracer):
        evals = 0
        for args in searches:
            record = self.ex.search_counterexample(*args)
            with _span(tracer, "cli.emit"):
                _emit(json.dumps(record.to_json()))
            # Each restart evaluates its start point and every refinement
            # step; the best point is evaluated once more for the record.
            evals += args[3] * (1 + self.ex.SEARCH_REFINE_STEPS) + 1
        return {"evals": evals}


WORKLOADS = {
    "verify_catalog": VerifyCatalog,
    "sweep_highdim": SweepHighdim,
    "search_d2": SearchD2,
}


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def machine_facts() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})

    def lib(kind):
        info = deps.get(kind, {})
        return f"{info.get('name', '?')} {info.get('version', '?')}"

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": lib("blas"),
        "lapack": lib("lapack"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "machine": platform.machine(),
    }


def probe_eigh(mc, seed) -> dict:
    """Mean microseconds per `matcore.eigh` call on Wishart matrices by size."""
    import numpy as np

    out = {}
    for n, calls in EIGH_PROBE_CALLS.items():
        rng = np.random.default_rng(seed + n)
        mats = [mc.random_ensemble("wishart", n, rng) for _ in range(calls)]
        t0 = time.perf_counter()
        for m in mats:
            mc.eigh(m)
        out[f"matcore.eigh.us.n{n}"] = (time.perf_counter() - t0) / calls * 1e6
    return out


def probe_cases(tracelab, seed) -> dict:
    """Mean microseconds per `explorer.evaluate_case` call per case at dim 3."""
    import numpy as np

    ex, fc, mc = tracelab.explorer, tracelab.funclass, tracelab.matcore
    out = {}
    for i, (case, (q, func_spec)) in enumerate(CASE_PROBE_PARAMS.items()):
        func = fc.function_from_json(func_spec) if func_spec else None
        rng = np.random.default_rng(seed + i)
        inputs = [ex.draw_inputs(case, CASE_PROBE_DIM, "wishart", rng) for _ in range(CASE_PROBE_CALLS)]
        t0 = time.perf_counter()
        for inp in inputs:
            try:
                ex.evaluate_case(case, inp, q=q, func=func)
            except mc.DomainError:
                pass
        out[f"ineq.case_us.{case}"] = (time.perf_counter() - t0) / CASE_PROBE_CALLS * 1e6
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0, help="workload seed")
    p.add_argument("--child", type=int, default=0, help="index of this child in the run")
    p.add_argument("--slice", type=float, default=0.0, help="seconds of jobs; the first job always runs")
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--trace-file", help="trace the jobs and write the spans here")
    p.add_argument("--facts", action="store_true", help="print machine facts and exit")
    args = p.parse_args(argv)

    import tracelab

    if args.facts:
        print(json.dumps(machine_facts()))
        return 0

    tracer = None
    if args.trace_file:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(tracelab)
    workload = WORKLOADS[args.workload](tracelab, args.size)
    job = workload.prepare(job_seed(args.seed, args.child, 0), tracer)
    ready = time.perf_counter()
    deadline = ready + args.slice
    jobs = []
    while True:
        t0 = time.perf_counter()
        entry = {"t0": t0}
        try:
            entry.update(workload.run(job, tracer))
        except Exception:  # reported as a failed job, never a crash of the harness
            entry["error"] = traceback.format_exc()
        sys.stdout.flush()  # the job's output is delivered inside its timed span
        entry["t1"] = time.perf_counter()
        _emit(JOB_END)
        print(JOB_END, file=sys.stderr, flush=True)
        jobs.append(entry)
        # Start another job only if one more like the last ends within the slice.
        if "error" in entry or time.perf_counter() + (entry["t1"] - t0) > deadline:
            break
        job = workload.prepare(job_seed(args.seed, args.child, len(jobs)), tracer)

    report = {"ready": ready, "jobs": jobs}
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.per_layer_metrics()
        try:
            probe_seed = job_seed(args.seed, args.child, -1)
            layers.update(probe_eigh(tracelab.matcore, probe_seed))
            layers.update(probe_cases(tracelab, probe_seed))
        except Exception:  # a probe on a renamed layer leaves its metrics missing
            report["probe_error"] = traceback.format_exc()
        report["layers"] = layers
        report["missing"] = tracer.missing
        tracer.dump(args.trace_file)
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(REPORT_PREFIX + json.dumps(report), file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
