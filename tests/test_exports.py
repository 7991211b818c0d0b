"""Every name a module exports exists, so a deleted function leaves no
stale entry in ``__all__`` behind."""

import importlib

import pytest

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
