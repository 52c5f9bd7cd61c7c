"""Every name an ``__all__`` exports resolves, so a deleted name cannot linger."""

import importlib
import inspect
import pkgutil

import pytest

import driftlab
from driftlab.dataset import ConfigError, ConstraintViolationError

MODULES = ["driftlab"] + [f"driftlab.{m.name}" for m in pkgutil.iter_modules(driftlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES[1:])
def test_each_export_has_one_home(name):
    """A submodule exports only the classes and functions it defines."""
    module = importlib.import_module(name)
    exported = [getattr(module, n) for n in module.__all__]
    assert [
        obj.__name__ for obj in exported
        if (inspect.isclass(obj) or inspect.isfunction(obj)) and obj.__module__ != name
    ] == []


def test_every_error_has_an_exit_code_base():
    """The CLI exits 2 on a ConfigError and 3 on a ConstraintViolationError, so every
    driftlab exception is one of the two, except a model's bad output (exit 4)."""
    errors = {
        obj
        for name in MODULES
        for obj in vars(importlib.import_module(name)).values()
        if isinstance(obj, type) and issubclass(obj, Exception)
        and obj.__module__.startswith("driftlab")
    }
    bases = (ConfigError, ConstraintViolationError)
    assert sorted(e.__name__ for e in errors if not issubclass(e, bases)) == ["ModelOutputError"]
    assert not issubclass(ConfigError, ConstraintViolationError)
    assert not issubclass(ConstraintViolationError, ConfigError)
