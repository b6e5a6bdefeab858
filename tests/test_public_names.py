"""Each public name a module lists in ``__all__`` must still be defined there."""

import importlib
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
