"""Tests for the package's public surface."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

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


def test_runtime_imports_only_stdlib_and_numpy():
    src = Path(adnlab.__file__).resolve().parent
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    foreign = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert not foreign, f"imports outside the stdlib and numpy: {foreign}"
