"""Export lists: every name that ``stablediff`` or one of its modules lists
in ``__all__`` is defined there."""

import importlib
import pkgutil

import pytest

import stablediff

MODULES = ["stablediff"] + [f"stablediff.{info.name}"
                            for info in pkgutil.iter_modules(stablediff.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
