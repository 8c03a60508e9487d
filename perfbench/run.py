"""tracelab benchmark harness.

    python3 perfbench/run.py --workload verify_catalog --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the repository root.  Each measurement runs in a fresh single-process
Python child (`perfbench/child.py`) with `src` on the path and BLAS pinned to
one thread; children run one after another, never side by side.  The load is
a closed loop: each job starts when the previous one has ended.

--trace 0 launches several children and reports the end-to-end metrics of
BENCHMARK.json as medians: trials per second over the jobs, and set-up time,
time to the first record and peak RSS over the children.

--trace 1 alternates one untraced child with two traced children on the same
inputs, checks that tracing changes no result and that every count repeats,
and reports the per-layer metrics of BENCHMARK.json.

Every job's output is checked (see checks.py).  The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DEADLINE_S = 170.0
# Many short children rather than a few long ones: set-up and first-record
# times are taken once per child, so their medians need many children.
SECONDS_PER_CHILD = 2.5
TRACE_DIR = ROOT / ".perfbench_out"


@dataclass
class ChildRun:
    launch: float
    rc: int
    stdout_jobs: list = field(default_factory=list)  # per job: [(arrival time, line)]
    stderr_jobs: list = field(default_factory=list)  # per job: [line]
    report: dict | None = None
    stderr_tail: str = ""


def _split_jobs(items, text_of):
    jobs, current = [], []
    for item in items:
        text = text_of(item)
        if text.endswith(child.JOB_END):
            prefix = text[: -len(child.JOB_END)]
            if prefix.strip():
                current.append(item if isinstance(item, str) else (item[0], prefix))
            jobs.append(current)
            current = []
        elif text.strip():
            current.append(item)
    if current:
        jobs.append(current)
    return jobs


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def launch_child(args: list[str], timeout: float) -> ChildRun:
    """Run one child to completion, time-stamping each stdout line on arrival."""
    out: list[tuple[float, str]] = []
    err: list[str] = []
    t_launch = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )

    def read_stdout():
        for raw in proc.stdout:
            out.append((time.perf_counter(), raw.decode("utf-8", "replace").rstrip("\n")))

    def read_stderr():
        # split on newlines only: str.splitlines also splits at the \x1e of the job marker
        err.extend(proc.stderr.read().decode("utf-8", "replace").split("\n"))

    readers = [threading.Thread(target=read_stdout), threading.Thread(target=read_stderr)]
    for t in readers:
        t.start()
    try:
        rc = proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        rc = proc.wait()
        err.append(f"child killed after {timeout:.0f} s")
    for t in readers:
        t.join()
    proc.stdout.close()
    proc.stderr.close()

    run = ChildRun(launch=t_launch, rc=rc)
    for line in reversed(err):
        if line.startswith(child.REPORT_PREFIX):
            run.report = json.loads(line[len(child.REPORT_PREFIX):])
            break
    run.stdout_jobs = _split_jobs(out, lambda item: item[1])
    run.stderr_jobs = _split_jobs(err, lambda item: item)
    run.stderr_tail = "\n".join(err[-30:])
    return run


def check_job(workload: str, size: str, run: ChildRun, index: int) -> checks.JobCheck:
    jobs = run.report["jobs"] if run.report else []
    if index >= len(jobs) or index >= len(run.stdout_jobs):
        return checks.JobCheck().fail_job(f"job {index} has no report; child exit {run.rc}:\n{run.stderr_tail}")
    entry = jobs[index]
    lines = [text for _, text in run.stdout_jobs[index]]
    if workload == "verify_catalog":
        stderr = run.stderr_jobs[index] if index < len(run.stderr_jobs) else []
        return checks.check_verify(lines, [s for s in stderr if s.startswith("verify:")], entry)
    if workload == "sweep_highdim":
        per_cell = child.SWEEP_TRIALS_PER_CELL[size]
        plans = [(case, qs, dims, per_cell) for case, qs, dims, _ in child.SWEEP_PLANS]
        return checks.check_sweep(lines, plans, entry)
    expected = [(case, verdict) for case, _, _, verdict in child.SEARCHES]
    return checks.check_search(lines, expected, entry)


def job_wall(run: ChildRun, index: int) -> float:
    entry = run.report["jobs"][index]
    return entry["t1"] - entry["t0"]


def read_steal() -> tuple[int, int] | None:
    """(steal, total) jiffies from /proc/stat, or None where unavailable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def quartiles(values):
    return (values[0],) * 3 if len(values) < 2 else statistics.quantiles(values, n=4)


class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, dict] = {}
        self.notes: list[str] = []

    def add_check(self, check: checks.JobCheck, where: str) -> None:
        self.attempted += check.attempted
        self.failed += check.failed
        self.problems.extend(f"{where}: {p}" for p in check.problems)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0 and self.attempted > 0


def timed_run(spec, workload: str, size: str, seed: int, seconds: float, deadline: float) -> Result:
    """Untraced children; end-to-end metrics as medians."""
    res = Result()
    n_children = max(2, min(12, round(seconds / SECONDS_PER_CHILD)))
    rates, setups, firsts, rss = [], [], [], []
    for k in range(n_children):
        if time.perf_counter() > deadline:
            res.problems.append(f"run deadline reached after {k} of {n_children} children")
            break
        run = launch_child(
            ["--workload", workload, "--seed", str(seed), "--child", str(k),
             "--slice", str(seconds / n_children), "--size", size],
            deadline - time.perf_counter(),
        )
        if run.report is None:
            res.add_check(checks.JobCheck().fail_job(f"no report, exit {run.rc}:\n{run.stderr_tail}"), f"child {k}")
            continue
        if run.rc != 0:
            res.problems.append(f"child {k}: exit code {run.rc}")
        setups.append(run.report["ready"] - run.launch)
        rss.append(run.report["maxrss_kb"] / 1024.0)
        if run.stdout_jobs and run.stdout_jobs[0]:
            firsts.append(run.stdout_jobs[0][0][0] - run.launch)
        for j in range(len(run.report["jobs"])):
            check = check_job(workload, size, run, j)
            res.add_check(check, f"child {k} job {j}")
            wall = job_wall(run, j)
            if check.attempted and wall > 0:
                rates.append(check.attempted / wall)
    samples = {"trials_per_s": rates, "setup_s": setups, "first_record_s": firsts, "peak_rss_mb": rss}
    for metric in spec["end_to_end"]:
        values = samples[metric["name"]]
        if not values:
            res.problems.append(f"no samples for {metric['name']}")
            continue
        q1, med, q3 = quartiles(values)
        res.metrics[metric["name"]] = {"value": med, "unit": metric["unit"]}
        res.notes.append(f"{metric['name']}: median of {len(values)}, quartiles {q1:.6g} .. {q3:.6g}")
    return res


def traced_run(spec, workload: str, size: str, seed: int, seconds: float, deadline: float) -> Result:
    """Rounds of one untraced and two traced children on the same inputs."""
    res = Result()
    TRACE_DIR.mkdir(exist_ok=True)
    base = ["--workload", workload, "--seed", str(seed), "--size", size]
    untraced_walls, traced_walls = [], []
    layers, signatures, counts, missing = [], [], [], set()
    start = time.perf_counter()
    round_s = 0.0
    rounds = 0
    while rounds == 0 or (
        time.perf_counter() - start < seconds and deadline - time.perf_counter() > 2 * round_s
    ):
        rounds += 1
        round_start = time.perf_counter()
        for traced in (False, True, True):
            extra = []
            if traced:
                extra = ["--trace-file", str(TRACE_DIR / f"trace-{workload}-seed{seed}-{len(layers)}.json")]
            run = launch_child(base + extra, deadline - time.perf_counter())
            where = f"round {rounds} {'traced' if traced else 'untraced'}"
            check = check_job(workload, size, run, 0)
            res.add_check(check, where)
            if check.problems or run.report is None:
                return res
            out_bytes = sum(len(text.encode("utf-8")) + 1 for _, text in run.stdout_jobs[0])
            signatures.append((check.signature, out_bytes))
            if not traced:
                untraced_walls.append(job_wall(run, 0))
                continue
            traced_walls.append(job_wall(run, 0))
            found = dict(run.report["layers"])
            found["cli.emit.bytes"] = out_bytes
            layers.append(found)
            counts.append({m["name"]: found.get(m["name"]) for m in spec["per_layer"] if m["unit"] == "count"})
            missing.update(run.report.get("missing", []))
            if "probe_error" in run.report:
                res.notes.append("probe failed:\n" + run.report["probe_error"])
        round_s = time.perf_counter() - round_start
    if any(s != signatures[0] for s in signatures):
        res.problems.append("traced and untraced runs of the same seed gave different results")
    if any(c != counts[0] for c in counts):
        res.problems.append("per-layer counts differ between two traced runs of the same seed")
    overhead = statistics.median(traced_walls) / statistics.median(untraced_walls)
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name == "trace.overhead_ratio":
            value = overhead
        else:
            values = [found[name] for found in layers if name in found]
            if not values:
                missing.add(f"metric {name}")
                value = 0
            elif metric["unit"] in ("count", "B"):
                value = values[0]  # identical in every traced child, checked above
            else:
                value = statistics.median(values)
        res.metrics[name] = {"value": value, "unit": metric["unit"]}
    res.notes.append(f"{rounds} round(s): {len(untraced_walls)} untraced and {len(traced_walls)} traced children")
    if missing:
        res.notes.append("missing (reported as 0): " + ", ".join(sorted(missing)))
    return res


def machine_facts(deadline: float) -> dict | None:
    """Warm-up child: imports tracelab once (filling bytecode and file caches)
    and reports the machine facts."""
    run = launch_child(["--facts"], min(60.0, deadline - time.perf_counter()))
    if run.rc == 0 and run.stdout_jobs:
        return json.loads(run.stdout_jobs[0][0][1])
    print(f"perfbench: cannot import tracelab (exit {run.rc}):\n{run.stderr_tail}", file=sys.stderr)
    return None


def run_workload(spec, name: str, args, deadline: float) -> Result | None:
    steal0 = read_steal()
    facts = machine_facts(deadline)
    if facts is None:
        return None
    runner = traced_run if args.trace else timed_run
    res = runner(spec, name, args.size, args.seed, args.seconds, deadline)
    steal1 = read_steal()
    if steal0 and steal1 and steal1[1] > steal0[1]:
        facts["steal_share"] = round((steal1[0] - steal0[0]) / (steal1[1] - steal0[1]), 4)
    print(f"# {name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# machine " + json.dumps(facts, sort_keys=True))
    for note in res.notes:
        print("# " + note.replace("\n", "\n# "))
    for metric, entry in res.metrics.items():
        print(f"{name:<15} {metric:<34} {entry['value']:>14.6g} {entry['unit']}")
    ratio = res.failed / res.attempted if res.attempted else 1.0
    print(f"{name:<15} {'fail_ratio':<34} {ratio:>14.6g} ratio ({res.failed} of {res.attempted})")
    for problem in res.problems:
        print("# CHECK FAILED " + problem.replace("\n", "\n# "))
    return res


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    names = [w["name"] for w in json.loads(spec_path.read_text())["workloads"]] if spec_path.is_file() else []
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every job, for the harness smoke test")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "tracelab" / "__init__.py").is_file():
        print(f"perfbench: no tracelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    chosen = names if args.workload == "all" else [args.workload]
    start = time.perf_counter()
    results = {}
    for name in chosen:
        share = (RUN_DEADLINE_S * len(chosen) - (time.perf_counter() - start)) / (len(chosen) - len(results))
        res = run_workload(spec, name, args, time.perf_counter() + share)
        if res is None:
            return 1
        results[name] = res
    if len(results) == 1:
        metrics = next(iter(results.values())).metrics
    else:
        metrics = {f"{n}.{m}": v for n, r in results.items() for m, v in r.metrics.items()}
    print(json.dumps({
        "correct": all(r.correct for r in results.values()),
        "attempted": sum(r.attempted for r in results.values()),
        "failed": sum(r.failed for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
