"""Every name a module exports resolves, so a deletion cannot leave a stale
entry in `__all__`; and the kernel and the catalog export what they should:
matrices are plain complex arrays (no matrix class), and cases are evaluated
through `ineq.evaluate` / `ineq.evaluate_one` (no per-case functions)."""

import importlib

import pytest

MODULES = ("tracelab.matcore", "tracelab.funclass", "tracelab.ineq", "tracelab.explorer", "tracelab.cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


EXPORTS = {
    "tracelab.matcore": {
        "MatcoreError", "ShapeError", "DomainError", "SpectralDecomposition", "eigh", "hermitian_part",
        "spectral_matrix", "checked_spectra", "assemble_blocks", "matrix_power", "singular_values",
        "random_complex_gaussian", "random_ensemble", "ENSEMBLES", "matrix_from_json",
    },
    "tracelab.ineq": {
        "DEFAULT_TOL_REL", "TrialRecord", "InputKind", "Factor", "Case", "Batch", "CASES", "probe_case",
        "evaluate", "evaluate_one", "oriented_gap", "z_spectrum_check",
        "projector_overlap_total",
    },
}


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_exports(name):
    assert set(importlib.import_module(name).__all__) == EXPORTS[name]


# The names the benchmark harness calls by attribute; a rename or deletion
# would otherwise show only when a benchmark run fails.
BENCHMARK_NAMES = (
    ("tracelab.cli", "main"),
    ("tracelab.explorer", "SweepPlan"),
    ("tracelab.explorer", "run_sweep"),
    ("tracelab.explorer", "search_counterexample"),
    ("tracelab.explorer", "SEARCH_REFINE_STEPS"),
    ("tracelab.explorer", "draw_inputs"),
    ("tracelab.explorer", "evaluate_case"),
    ("tracelab.matcore", "random_ensemble"),
    ("tracelab.matcore", "eigh"),
    ("tracelab.matcore", "DomainError"),
    ("tracelab.funclass", "function_from_json"),
)


@pytest.mark.parametrize("module,name", BENCHMARK_NAMES)
def test_benchmark_names_exist(module, name):
    assert hasattr(importlib.import_module(module), name)
