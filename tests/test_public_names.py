"""Each public name a module lists in ``__all__`` must still be defined there."""

import importlib
import inspect
import pkgutil

import pytest

import slabshift

MODULES = ["slabshift"] + [f"slabshift.{m.name}"
                           for m in pkgutil.iter_modules(slabshift.__path__)]


def test_every_module_is_listed():
    assert {"slabshift.core", "slabshift.reflection", "slabshift.cli"} \
        <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import_succeeds(name):
    module = importlib.import_module(name)
    public = getattr(module, "__all__", [])
    assert len(set(public)) == len(public), f"{name}.__all__ repeats a name"
    missing = [n for n in public if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(public) <= set(namespace)


def test_every_exported_class_and_function_is_defined_in_its_home():
    # a re-export would make the lazy namespace load the module it was
    # taken from, not the numpy-free home _EXPORTS names
    for home, names in slabshift._EXPORTS.items():
        module = importlib.import_module(f"slabshift.{home}")
        for name in names:
            value = getattr(module, name)
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == f"slabshift.{home}", name
