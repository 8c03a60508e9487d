"""In-memory span tracer that wraps tracelab's layer boundaries from outside.

Wrappers are installed by rebinding module globals, class attributes and the
`cli.COMMANDS` dispatch dict, so calls made inside a module (for example
`matcore.eigh` called bare by `matcore.trace_power`, or `explorer.run_cell`
calling `evaluate_case`) go through them too.  A name that no longer exists is
recorded in `Tracer.missing` instead of failing the run.

Each span is `[name_id, start, end, parent_index]`.  Spans stay in memory until
`per_layer_metrics` or `dump` is called at the end of the run.  A span's self
time is its duration minus the durations of its direct children; the program
is single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

# (module attribute, span name)
MATCORE_FUNCS = (
    ("eigh", "matcore.eigh"),
    ("random_ensemble", "matcore.draw"),
    ("random_complex_gaussian", "matcore.draw"),
    ("matrix_power", "matcore.spectral"),
    ("trace_power", "matcore.spectral"),
    ("matrix_exp", "matcore.spectral"),
    ("schatten_norm", "matcore.spectral"),
    ("apply_spectral_function", "matcore.spectral"),
    ("block2x2", "matcore.spectral"),
    ("split_blocks", "matcore.spectral"),
)
FUNCLASS_CLASSES = (
    "PowerFunction", "ExpKernel", "Quadratic", "DiscreteMeasureCM0", "DiscreteMeasureBFk",
)
INEQ_CASE_FUNCS = (
    "mccarthy_gap", "golden_thompson_gap", "main_trace_ineq", "cor_abq_gap",
    "cor_pmean_gap", "cor_faltq_gap", "alt_gap", "prop_q4_check", "cor_abq3_gap",
    "norm_compression_gap", "trace_subadd_gap",
)
EXPLORER_FUNCS = (
    ("draw_inputs", "explorer.draw_inputs"),
    ("evaluate_case", "explorer.evaluate_case"),
    ("run_cell", "explorer.run_cell"),
    ("sweep_records", "explorer.summarize"),
    ("run_sweep", "explorer.summarize"),
    ("search_counterexample", "explorer.search"),
)
CLI_SETUP_FUNCS = ("build_config", "_verify_plans")

# Span names whose self time and outermost-call count are reported.
SELF_TIME_SPANS = (
    "matcore.eigh", "matcore.draw", "matcore.hermitian", "matcore.spectral",
    "funclass.eval", "ineq.case", "explorer.draw_inputs", "explorer.evaluate_case",
    "explorer.run_cell", "explorer.summarize", "explorer.search", "cli.setup", "cli.emit",
)
CALL_COUNT_SPANS = ("matcore.eigh", "matcore.draw", "matcore.hermitian", "funclass.eval", "ineq.case")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.trials = 0
        self.skipped = 0
        self.domain_errors = 0
        self.missing: list[str] = []
        self._patched: list[tuple] = []
        self._domain_error: type | tuple = ()  # matcore.DomainError once installed

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextmanager
    def span(self, name: str):
        spans, stack = self.spans, self._stack
        rec = [self._name_id(name), time.perf_counter(), 0.0, stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        spans, stack, nid = self.spans, self._stack, self._name_id(name)
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            rec = [nid, perf(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except tracer._domain_error as exc:
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    tracer.domain_errors += 1
                raise
            finally:
                rec[2] = perf()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, on_result=None, label: str = "") -> None:
        """Rebind `owner.attr` (module or class; None if it is gone itself) to
        a traced wrapper."""
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            self.missing.append(f"{label or owner.__name__}.{attr}")
            return
        self._patched.append((setattr, owner, attr, fn))
        setattr(owner, attr, self.wrap(name, fn, on_result))

    def patch_item(self, table: dict, key: str, name: str, label: str) -> None:
        if key not in table:
            self.missing.append(f"{label}[{key!r}]")
            return
        self._patched.append((dict.__setitem__, table, key, table[key]))
        table[key] = self.wrap(name, table[key])

    def install(self, tracelab) -> None:
        """Wrap the public layer boundaries of the five tracelab modules."""
        mc, fc, ineq, ex, cli = (
            tracelab.matcore, tracelab.funclass, tracelab.ineq, tracelab.explorer, tracelab.cli,
        )
        self._domain_error = getattr(mc, "DomainError", ())
        for attr, name in MATCORE_FUNCS:
            self.patch(mc, attr, name)
        self.patch(
            getattr(mc, "HermitianMatrix", None), "__post_init__", "matcore.hermitian",
            label="matcore.HermitianMatrix",
        )
        for cls_name in FUNCLASS_CLASSES:
            self.patch(getattr(fc, cls_name, None), "__call__", "funclass.eval", label=f"funclass.{cls_name}")
        for attr in INEQ_CASE_FUNCS:
            self.patch(ineq, attr, "ineq.case")
        for attr, name in EXPLORER_FUNCS:
            self.patch(ex, attr, name, on_result=self._count_cell if attr == "run_cell" else None)
        for attr in CLI_SETUP_FUNCS:
            self.patch(cli, attr, "cli.setup")
        self.patch_item(getattr(cli, "COMMANDS", {}), "verify", "cli.emit", label="cli.COMMANDS")

    def uninstall(self) -> None:
        for setter, owner, key, original in reversed(self._patched):
            setter(owner, key, original)
        self._patched.clear()

    def _count_cell(self, records) -> None:
        self.trials += len(records)
        self.skipped += sum(1 for r in records if getattr(r, "verdict", "") == "SKIPPED")

    def per_layer_metrics(self) -> dict[str, float]:
        """Self times, call counts and ratios from the recorded spans."""
        names, spans = self.names, self.spans
        n = len(spans)
        child_time = [0.0] * n
        under_search = [False] * n
        search_id = self._name_ids.get("explorer.search", -1)
        evaluate_id = self._name_ids.get("explorer.evaluate_case", -1)
        self_s = {name: 0.0 for name in SELF_TIME_SPANS}
        calls = {name: 0 for name in CALL_COUNT_SPANS}
        search_evals = 0
        for i, (nid, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                under_search[i] = under_search[parent] or spans[parent][0] == search_id
            if nid == evaluate_id and under_search[i]:
                search_evals += 1
        for i, (nid, start, end, parent) in enumerate(spans):
            name = names[nid]
            if name in self_s:
                self_s[name] += (end - start) - child_time[i]
            if name in calls and (parent < 0 or spans[parent][0] != nid):
                calls[name] += 1
        out: dict[str, float] = {}
        for name in CALL_COUNT_SPANS:
            out[f"{name}.calls"] = calls[name]
        for name, value in self_s.items():
            out[f"{name}.self_s"] = value
        out["matcore.domain_errors"] = self.domain_errors
        out["explorer.trials"] = self.trials
        out["explorer.search.evals"] = search_evals
        out["explorer.skip_ratio"] = self.skipped / self.trials if self.trials else 0.0
        out["trace.missing"] = len(self.missing)
        return out

    def dump(self, path) -> None:
        """Write every span once, after the run."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans, "missing": self.missing}, fh)
