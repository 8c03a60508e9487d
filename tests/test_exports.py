"""Every name a module exports resolves, so a deletion cannot leave a stale
entry in `__all__`."""

import importlib

import pytest

MODULES = ("tracelab.matcore", "tracelab.funclass", "tracelab.ineq", "tracelab.explorer", "tracelab.cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
