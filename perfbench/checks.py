"""Output checks for one job of each workload.

They test invariants only (parsing, counts, verdicts), never last digits, so a
later change to the numerics keeps passing them.  Each check returns a
`JobCheck`: the operations attempted and failed, what went wrong, and a
signature (verdict counts and minimum gaps) that must be identical between a
traced and an untraced run of the same seed.

A failed operation is a SKIPPED record, an unexpected FAIL, a raised error or
a failed output check; when a check on the whole job fails, every operation of
the job counts as failed.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field

VERIFY_SUMMARY = re.compile(r"^verify: (\d+) records, (\d+) FAIL, (\d+) SKIPPED")


@dataclass
class JobCheck:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    signature: object = None

    def fail_job(self, problem: str) -> "JobCheck":
        self.problems.append(problem)
        self.attempted = max(self.attempted, 1)
        self.failed = self.attempted
        return self


def _parse_lines(lines: list[str], check: JobCheck) -> list[dict] | None:
    objs = []
    for i, line in enumerate(lines):
        try:
            objs.append(json.loads(line))
        except json.JSONDecodeError:
            check.fail_job(f"stdout line {i + 1} is not JSON: {line[:80]!r}")
            return None
    return objs


def check_verify(lines: list[str], summaries: list[str], entry: dict) -> JobCheck:
    """Every line parses, no FAIL or SKIPPED, the record count matches the
    command's own `verify: N records` line, and the exit code is 0."""
    check = JobCheck()
    objs = _parse_lines(lines, check)
    if objs is None:
        return check
    records = [o for o in objs if isinstance(o, dict) and "verdict" in o]
    verdicts = Counter(r["verdict"] for r in records)
    check.attempted = len(records)
    check.failed = verdicts["FAIL"] + verdicts["SKIPPED"]
    gaps = [r["gap"] for r in records if r["verdict"] != "SKIPPED"]
    check.signature = (sorted(verdicts.items()), min(gaps) if gaps else None)
    if "error" in entry:
        return check.fail_job("verify raised:\n" + entry["error"])
    if entry.get("rc") != 0:
        check.fail_job(f"verify exit code {entry.get('rc')}, expected 0")
    matches = [VERIFY_SUMMARY.match(s) for s in summaries]
    if len(summaries) != 1 or matches[0] is None:
        return check.fail_job(f"expected one 'verify: N records' line, got {summaries!r}")
    if int(matches[0].group(1)) != len(records):
        check.fail_job(f"stdout has {len(records)} records, summary says {matches[0].group(1)}")
    if not records:
        check.fail_job("verify wrote no records")
    return check


def check_sweep(lines: list[str], expected_plans: list[tuple], entry: dict) -> JobCheck:
    """One summary per plan, in order; 0 violations; the trial count of each
    summary equals its plan's (cells x trials per cell)."""
    check = JobCheck()
    objs = _parse_lines(lines, check)
    if objs is None:
        return check
    signature = []
    for summary in objs:
        cells = summary.get("cells", [])
        trials = sum(c.get("trials", 0) for c in cells)
        check.attempted += trials
        check.failed += sum(c.get("skipped", 0) for c in cells) + summary.get("violations", 0)
        signature.append((summary.get("plan", {}).get("case"), summary.get("violations"), summary.get("min_gap")))
    check.signature = signature
    if "error" in entry:
        return check.fail_job("sweep raised:\n" + entry["error"])
    if len(objs) != len(expected_plans):
        return check.fail_job(f"expected {len(expected_plans)} summaries, got {len(objs)}")
    for summary, (case, qs, dims, trials_per_cell) in zip(objs, expected_plans):
        plan = summary.get("plan", {})
        cells = summary.get("cells", [])
        want = len(qs) * len(dims) * trials_per_cell
        got = sum(c.get("trials", 0) for c in cells)
        if plan.get("case") != case:
            check.fail_job(f"summary for {plan.get('case')!r}, expected {case!r}")
        if got != want:
            check.fail_job(f"{case}: {got} trials, plan has {want}")
        if summary.get("violations") != 0:
            check.fail_job(f"{case}: {summary.get('violations')} violations, expected 0")
    return check


def check_search(lines: list[str], expected: list[tuple], entry: dict) -> JobCheck:
    """One record per search, in order, each with its expected verdict."""
    check = JobCheck(attempted=entry.get("evals", 0))
    objs = _parse_lines(lines, check)
    if objs is None:
        return check
    check.signature = [(o.get("case"), o.get("verdict"), o.get("gap")) for o in objs]
    if "error" in entry:
        return check.fail_job("search raised:\n" + entry["error"])
    if len(objs) != len(expected):
        return check.fail_job(f"expected {len(expected)} search records, got {len(objs)}")
    for obj, (case, verdict) in zip(objs, expected):
        if obj.get("case") != case or obj.get("verdict") != verdict:
            check.fail_job(f"search {case}: got {obj.get('case')} {obj.get('verdict')}, expected {verdict}")
    return check
