"""Tests for the package's public surface."""

import importlib
import pkgutil

import adnlab


def test_every_exported_name_resolves():
    modules = [info.name for info in pkgutil.iter_modules(adnlab.__path__)
               if info.name != "__main__"]
    assert {"converters", "limits", "network"} <= set(modules)
    for name in modules:
        module = importlib.import_module(f"adnlab.{name}")
        missing = [n for n in getattr(module, "__all__", ())
                   if not hasattr(module, n)]
        assert not missing, f"adnlab.{name}.__all__ names {missing}"
