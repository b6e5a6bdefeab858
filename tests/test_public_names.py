"""Each public name a module lists in ``__all__`` must still be defined there,
and the defaults of the exported names are the listed ones."""

import enum
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
    # taken from, not the home that _EXPORTS names
    for home, names in slabshift._EXPORTS.items():
        module = importlib.import_module(f"slabshift.{home}")
        for name in names:
            value = getattr(module, name)
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == f"slabshift.{home}", name


# every default a caller can override, by exported name: a new option shows
# up as an edit here.  OPTIONS are the settable values; the rest carry a
# result's error bounds, an exception's payload or the QuadratureSpec slot.
OPTIONS = {
    "QuadratureSpec": {"rel_tol": 1e-8, "abs_tol": 1e-14},
    "dipole_sq_from_momentum": {"m": 1.0},
}
CARRIERS = {
    "WPair": {"err_par": 0.0, "err_z": 0.0},
    "ConvergenceError": {"estimate": None, "err_est": None},
    "PoleError": {"k_z": None, "k_par": None},
    **dict.fromkeys(["energy_shift", "s_parallel", "s_perp", "w_pair",
                     "halfspace_S", "nonretarded_k_integral",
                     "nonretarded_shift"], {"q": None}),
}


def test_settable_values_are_the_listed_ones():
    found = {}
    for home, names in slabshift._EXPORTS.items():
        module = importlib.import_module(f"slabshift.{home}")
        for name in names:
            value = getattr(module, name)
            # an Enum's signature is its functional API, not an option
            if not callable(value) or isinstance(value, enum.EnumMeta):
                continue
            defaults = dict(getattr(value, "_field_defaults", {}))
            defaults.update((p.name, p.default) for p in
                            inspect.signature(value).parameters.values()
                            if p.default is not p.empty)
            if defaults:
                found[name] = defaults
    assert found == {**OPTIONS, **CARRIERS}
