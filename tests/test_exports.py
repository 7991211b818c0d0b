"""Every name a module exports exists, so a deleted function leaves no
stale entry in ``__all__`` behind; and every module declares its exports,
so a star import hands out its public functions and classes, not its
imports."""

import importlib
import inspect

import pytest

import petzlab

MODULES = ("channels", "cli", "entropy", "linalg", "recovery", "serialize", "verify")


@pytest.mark.parametrize("name", MODULES)
def test_exports_exist_and_star_import_works(name):
    module = importlib.import_module(f"petzlab.{name}")
    exported = getattr(module, "__all__", ())
    missing = [export for export in exported if not hasattr(module, export)]
    assert missing == []
    namespace = {}
    exec(f"from petzlab.{name} import *", namespace)
    assert set(exported) <= set(namespace)


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_the_public_definitions_and_no_import(name):
    module = importlib.import_module(f"petzlab.{name}")
    defined = {
        key for key, value in vars(module).items()
        if not key.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    }
    assert defined <= set(module.__all__)
    namespace = {}
    exec(f"from petzlab.{name} import *", namespace)
    assert not {"np", "annotations", "dataclass"} & set(namespace)
    assert not any(inspect.ismodule(value) for key, value in namespace.items()
                   if not key.startswith("__"))


def test_rotated_petz_family_is_exported():
    from petzlab.recovery import rotated_petz_family

    assert petzlab.rotated_petz_family is rotated_petz_family
