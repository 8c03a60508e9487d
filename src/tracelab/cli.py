"""Command-line front end.

Subcommands: verify (full catalog over its verdict regions), sweep (one case
over a q x dim grid), search (randomized counterexample search), probe (the
open conjecture regions, report-only) and repro (the explicit 2x2 example
against its closed forms).

Exit codes: 0 = no FAIL verdicts, 1 = at least one FAIL, 2 = usage or config
error.  Runs are configured by a JSON file (--config) plus flag overrides;
flags win.  TRACELAB_SEED overrides the default seed only when neither --seed
nor a config seed is given.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass, field

from . import explorer as ex
from . import funclass as fc
from . import ineq
from . import matcore as mc

__all__ = ["main", "RunConfig"]

DEFAULT_SEED = 42
DEFAULT_TRIALS = 1000
DEFAULT_DIMS = (2, 3, 4)
DEFAULT_BUDGET = 200

REPRO_DEFAULT_QS = (3.0, 4.0, 5.0)
REPRO_REL_TOL = 1e-10

ALLOWED_CONFIG_KEYS = {
    "case", "q", "p", "dim", "dims", "trials", "seed", "tol_rel", "ensemble",
    "format", "out", "budget", "func",
    "matrix_a", "matrix_b", "matrix_c", "matrix_d",
}

CASE_SEED_STRIDE = 10**9
PLAN_SEED_STRIDE = 10**8


class UsageError(Exception):
    """Configuration or selection problem; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    cases: tuple[str, ...] = ()
    q_values: tuple[float, ...] = ()
    p_values: tuple[float, ...] = ()
    dims: tuple[int, ...] = DEFAULT_DIMS
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED
    tol_rel: float = ineq.DEFAULT_TOL_REL
    ensemble: str = "wishart"
    out_format: str = "json"
    out: str | None = None
    budget: int = DEFAULT_BUDGET
    func: dict | None = None
    matrices: dict = field(default_factory=dict)


def _parse_number_list(text) -> tuple[float, ...]:
    if isinstance(text, (int, float)):
        values: tuple[float, ...] = (float(text),)
    elif isinstance(text, (list, tuple)):
        values = tuple(float(v) for v in text)
    else:
        values = tuple(float(part) for part in str(text).split(",") if part.strip())
    bad = [v for v in values if not math.isfinite(v)]
    if bad:
        raise UsageError(f"numbers must be finite, got {bad}")
    return values


def _parse_int_list(text) -> tuple[int, ...]:
    return tuple(int(v) for v in _parse_number_list(text))


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise UsageError(f"config file {path!r} must hold a JSON object")
    for key in obj:
        if key not in ALLOWED_CONFIG_KEYS:
            raise UsageError(f"unknown config key {key!r} in {path!r}")
    return obj


def _load_matrix(spec) -> mc.HermitianMatrix:
    if isinstance(spec, str):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                spec = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read matrix file {spec!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"matrix file is not valid JSON: {exc}") from exc
    try:
        return mc.matrix_from_json(spec)
    except (KeyError, TypeError, ValueError, mc.MatcoreError) as exc:
        raise UsageError(f"bad matrix object: {exc}") from exc


def build_config(args: argparse.Namespace) -> RunConfig:
    file_cfg = _load_config_file(args.config) if args.config else {}

    def pick(flag_value, key, parser, default):
        if flag_value is not None:
            return parser(flag_value)
        if key in file_cfg:
            return parser(file_cfg[key])
        return default

    seed = None
    if args.seed is not None:
        seed = int(args.seed)
    elif "seed" in file_cfg:
        seed = int(file_cfg["seed"])
    elif os.environ.get("TRACELAB_SEED"):
        raw = os.environ["TRACELAB_SEED"]
        try:
            seed = int(raw)
        except ValueError:
            raise UsageError(f"TRACELAB_SEED must be an integer, got {raw!r}") from None
    if seed is None:
        seed = DEFAULT_SEED

    cases = pick(args.case, "case", lambda v: tuple(
        part.strip().upper() for part in (v if isinstance(v, (list, tuple)) else str(v).split(",")) if str(part).strip()
    ), ())
    dims = args.dim if args.dim is not None else file_cfg.get("dim", file_cfg.get("dims"))
    dims = _parse_int_list(dims) if dims is not None else DEFAULT_DIMS
    if not dims or any(d < 1 for d in dims):
        raise UsageError(f"dims must be positive integers, got {dims}")

    fmt = pick(args.format, "format", str, "json")
    if fmt not in ("json", "csv"):
        raise UsageError(f"format must be json or csv, got {fmt!r}")

    ensemble = pick(args.ensemble, "ensemble", str, "wishart")
    if ensemble not in mc.ENSEMBLES:
        raise UsageError(f"unknown ensemble {ensemble!r}; choose from {sorted(mc.ENSEMBLES)}")

    matrices = {}
    for key in ("matrix_a", "matrix_b", "matrix_c", "matrix_d"):
        if key in file_cfg:
            matrices[key] = _load_matrix(file_cfg[key])

    tol_rel = pick(args.tol, "tol_rel", float, ineq.DEFAULT_TOL_REL)
    if not (math.isfinite(tol_rel) and tol_rel >= 0):
        raise UsageError(f"tolerance must be finite and >= 0, got {tol_rel}")

    trials = pick(args.trials, "trials", int, DEFAULT_TRIALS)
    budget = pick(args.budget, "budget", int, DEFAULT_BUDGET)
    if trials < 1 or budget < 1:
        raise UsageError("trials and budget must be >= 1")

    return RunConfig(
        cases=cases,
        q_values=pick(args.q, "q", _parse_number_list, ()),
        p_values=pick(args.p, "p", _parse_number_list, ()),
        dims=dims,
        trials=trials,
        seed=seed,
        tol_rel=tol_rel,
        ensemble=ensemble,
        out_format=fmt,
        out=args.out if args.out is not None else file_cfg.get("out"),
        budget=budget,
        func=file_cfg.get("func"),
        matrices=matrices,
    )


def _parse_func(config: RunConfig, case: str) -> fc.ScalarFunction:
    if config.func is None:
        raise UsageError(f"case {case} needs a scalar function: set the config key 'func'")
    try:
        return fc.function_from_json(config.func)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad func spec: {exc}") from exc


def _open_out(out: str | None):
    return contextlib.nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8")


def _write_text(out: str | None, text: str) -> None:
    with _open_out(out) as fh:
        fh.write(text)


def _param_grid(config: RunConfig, case: str, default: tuple = ()) -> tuple[float | None, ...]:
    """The parameter values a command evaluates `case` at: the values of the
    flag the case entry names (--p falls back to --q), else `default`; a
    usage error when both are empty.  A case with no free parameter (a
    scalar function, or one fixed exponent) is evaluated once, at None."""
    entry = ineq.CASES[case]
    if entry.needs_func or entry.fixed_q is not None:
        return (None,)
    values = (config.p_values if entry.param == "p" else ()) or config.q_values
    if not (values or default):
        raise UsageError(f"case {case} needs --q (or --p) values")
    return values or default


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _verify_plans(case: str, config: RunConfig, case_seed: int) -> list[ex.SweepPlan]:
    entry = ineq.CASES[case]
    funcs: tuple = (None,)
    if entry.needs_func:
        funcs = (fc.function_from_json(config.func),) if config.func is not None else entry.funcs
    grid = _param_grid(config, case, entry.grid)
    n_cells = max(1, len(grid) * len(config.dims) * len(funcs))
    per_cell = -(-config.trials // n_cells)  # at least config.trials per case
    plans = []
    for k, func in enumerate(funcs):
        plans.append(
            ex.SweepPlan(
                case=case,
                q_grid=grid,
                dims=config.dims,
                trials_per_cell=per_cell,
                ensemble=config.ensemble,
                base_seed=case_seed + k * PLAN_SEED_STRIDE,
                func=func,
                tol_rel=config.tol_rel,
            )
        )
    return plans


def _explicit_matrix_records(case: str, config: RunConfig) -> list[ineq.TrialRecord]:
    entry = ineq.CASES[case]
    missing = [f"matrix_{k}" for k in entry.kind.keys if f"matrix_{k}" not in config.matrices]
    if missing:
        raise UsageError(f"case {case} with explicit matrices needs config keys {missing}")
    inputs = {k: config.matrices[f"matrix_{k}"] for k in entry.kind.keys}
    func = _parse_func(config, case) if entry.needs_func else None
    return [
        ex.evaluate_case(
            case, inputs, q=q, func=func, tol_rel=config.tol_rel, seed=-1, ensemble="explicit",
        )
        for q in _param_grid(config, case, entry.grid)
    ]


def cmd_verify(config: RunConfig) -> int:
    selection = config.cases or tuple(ineq.CASES)
    unknown = [c for c in selection if c not in ineq.CASES]
    if unknown or not selection:
        raise UsageError(f"empty or unknown case selection: {unknown or '(none)'}")

    # Everything that can fail as a usage error is resolved before the first
    # record is written; plan records are then written as each plan ends.
    if config.matrices:
        batches = [[r for case in selection for r in _explicit_matrix_records(case, config)]]
    else:
        plans = [
            plan
            for idx, case in enumerate(selection)
            for plan in _verify_plans(case, config, config.seed + idx * CASE_SEED_STRIDE)
        ]
        batches = (ex.sweep_records(plan) for plan in plans)

    n_records = n_fail = n_skip = 0
    with _open_out(config.out) as fh:
        for records in batches:
            for r in records:
                fh.write(json.dumps(r.to_json()) + "\n")
            fh.flush()
            n_records += len(records)
            n_fail += sum(1 for r in records if r.verdict == "FAIL")
            n_skip += sum(1 for r in records if r.verdict == "SKIPPED")
    summary_line = (
        f"verify: {n_records} records, {n_fail} FAIL, {n_skip} SKIPPED"
        + (f" -> {config.out}" if config.out else "")
    )
    print(summary_line, file=sys.stderr if config.out is None else sys.stdout)
    return 0 if n_fail == 0 else 1


# ---------------------------------------------------------------------------
# sweep / search / probe / repro
# ---------------------------------------------------------------------------


def _single_case(config: RunConfig) -> str:
    if len(config.cases) != 1:
        raise UsageError("exactly one --case is required")
    case = config.cases[0]
    if case not in ineq.CASES:
        raise UsageError(f"unknown case {case!r}; choose from {sorted(ineq.CASES)}")
    return case


def _build_plan(config: RunConfig, case: str) -> ex.SweepPlan:
    entry = ineq.CASES[case]
    return ex.SweepPlan(
        case=case,
        q_grid=_param_grid(config, case, entry.grid),
        dims=config.dims,
        trials_per_cell=config.trials,
        ensemble=config.ensemble,
        base_seed=config.seed,
        func=_parse_func(config, case) if entry.needs_func else None,
        tol_rel=config.tol_rel,
    )


def _write_summary(summary: ex.SweepSummary, config: RunConfig) -> None:
    if config.out_format == "csv":
        _write_text(config.out, summary.to_csv())
    else:
        _write_text(config.out, json.dumps(summary.to_json(), indent=2) + "\n")


def cmd_sweep(config: RunConfig) -> int:
    case = _single_case(config)
    summary = ex.run_sweep(_build_plan(config, case))
    _write_summary(summary, config)
    if config.out:
        print(f"sweep {case}: {summary.violations} violations -> {config.out}")
    return 0 if summary.violations == 0 else 1


def cmd_search(config: RunConfig) -> int:
    case = _single_case(config)
    func = _parse_func(config, case) if ineq.CASES[case].needs_func else None
    record = ex.search_counterexample(
        case, _param_grid(config, case)[0], config.dims[0], config.budget, config.seed,
        func=func, tol_rel=config.tol_rel,
    )
    _write_text(config.out, json.dumps(record.to_json(), indent=2) + "\n")
    if config.out:
        print(f"search {case}: best gap {record.gap!r} ({record.verdict}) -> {config.out}")
    return 0 if record.verdict != "FAIL" else 1


def cmd_probe(config: RunConfig) -> int:
    if len(config.cases) != 1:
        raise UsageError("probe needs exactly one region via --case")
    region = config.cases[0]
    case = ineq.probe_case(region)
    plan = ex.SweepPlan(
        case=case,
        q_grid=_param_grid(config, case, ineq.CASES[case].probes[region]),
        dims=config.dims,
        trials_per_cell=config.trials,
        ensemble=config.ensemble,
        base_seed=config.seed,
        tol_rel=config.tol_rel,
    )
    summary = ex.probe_conjecture(region, plan)
    _write_summary(summary, config)
    target = sys.stdout if config.out else sys.stderr
    print(f"probe {region}: min observed gap {summary.min_gap!r}", file=target)
    return 0


def cmd_repro(config: RunConfig) -> int:
    qs = config.q_values or REPRO_DEFAULT_QS
    rows = []
    records = []
    ok = True
    for q in qs:
        rec = ex.repro_counterexample(q, tol_rel=config.tol_rel)
        lhs_cf, rhs_cf = ex.repro_closed_forms(q)
        rel = max(
            abs(rec.lhs - lhs_cf) / max(abs(lhs_cf), 1.0),
            abs(rec.rhs - rhs_cf) / max(abs(rhs_cf), 1.0),
        )
        expected = "FAIL" if q > 3 else "PASS"
        row_ok = rel <= REPRO_REL_TOL and rec.verdict == expected
        ok = ok and row_ok
        rows.append((q, rec.lhs, lhs_cf, rec.rhs, rhs_cf, rel, rec.verdict, row_ok))
        records.append(rec)

    header = f"{'q':>6} {'lhs':>16} {'closed lhs':>16} {'rhs':>16} {'closed rhs':>16} {'rel err':>10} {'verdict':>14} match"
    print(header)
    for q, lhs, lhs_cf, rhs, rhs_cf, rel, verdict, row_ok in rows:
        print(
            f"{q:>6g} {lhs:>16.10f} {lhs_cf:>16.10f} {rhs:>16.10f} {rhs_cf:>16.10f} "
            f"{rel:>10.2e} {verdict:>14} {'yes' if row_ok else 'NO'}"
        )
    if config.out:
        _write_text(config.out, "\n".join(json.dumps(r.to_json()) for r in records) + "\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--case", help="case id(s), comma separated (probe: region name)")
    p.add_argument("--q", help="q grid, comma separated")
    p.add_argument("--p", help="p grid for the power-means case")
    p.add_argument("--dim", help="matrix dimensions, comma separated")
    p.add_argument(
        "--trials", type=int, help="trials per cell (sweep/probe), or at least this many per case (verify)"
    )
    p.add_argument("--seed", type=int, help="base seed")
    p.add_argument("--tol", type=float, help="relative verdict tolerance")
    p.add_argument("--ensemble", help="wishart | rank_deficient | rotated_uniform")
    p.add_argument("--format", help="output format: json | csv")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--budget", type=int, help="search restarts")


COMMANDS = {
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "search": cmd_search,
    "probe": cmd_probe,
    "repro": cmd_repro,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tracelab",
        description="Numeric verification lab for the trace-inequality catalog.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        _add_common_flags(sub.add_parser(name))

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2

    try:
        config = build_config(args)
        return COMMANDS[args.command](config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError, mc.MatcoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
