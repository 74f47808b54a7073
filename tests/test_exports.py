"""Every exported name resolves: a stale `__all__` entry would otherwise fail
only when someone star-imports the module."""
import importlib
import pkgutil

import pytest

import blockwalk

MODULES = ["blockwalk"] + sorted(
    f"blockwalk.{m.name}" for m in pkgutil.iter_modules(blockwalk.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
