"""Every name an ``__all__`` exports resolves, so a deleted name cannot linger."""

import importlib
import pkgutil

import pytest

import driftlab

MODULES = ["driftlab"] + [f"driftlab.{m.name}" for m in pkgutil.iter_modules(driftlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
