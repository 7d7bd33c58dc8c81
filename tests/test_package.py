"""Tests for the package's public surface."""

import ast
import importlib
import pkgutil
import re
import sys
from collections import Counter
from pathlib import Path

import adnlab

SRC = Path(adnlab.__file__).resolve().parent
README = SRC.parents[1] / "README.md"


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
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    foreign = []
    for path in sorted(SRC.glob("*.py")):
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


def _references(node) -> Counter:
    """Names read and attributes taken anywhere under ``node``."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                   or isinstance(n, ast.Attribute))


def _kernel_calls(tree) -> Counter:
    """Calls written into generated source: ``name(`` inside a string
    constant that is not a docstring."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    return Counter(name for n in ast.walk(tree)
                   if isinstance(n, ast.Constant) and isinstance(n.value, str)
                   and id(n) not in docstrings
                   for name in re.findall(r"\b(\w+)\(", n.value))


def _exports(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _top_level_names(tree) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
    return names


def test_src_holds_only_exported_or_used_code():
    """Every class, function and method in ``src/adnlab`` is a dunder, an
    override of a base-class method, or referenced in ``src/adnlab``
    outside its own definition, a call written into generated kernel
    source included; being in ``__all__`` is not a use.  Every ``__all__``
    entry is defined."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    used = sum((_references(tree) + _kernel_calls(tree)
                for tree in trees.values()), Counter())
    unused, undefined = [], []
    for module, tree in trees.items():
        exported = set(_exports(tree))
        undefined += [f"{module}.{name}"
                      for name in sorted(exported - _top_level_names(tree))]
        overrides = set()     # methods that a base class's callers call
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                bases = getattr(importlib.import_module(f"adnlab.{module}"),
                                cls.name).__mro__[1:]
                overrides.update(
                    id(node) for node in cls.body
                    if isinstance(node, ast.FunctionDef)
                    and any(hasattr(base, node.name) for base in bases))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__") \
                    or id(node) in overrides:
                continue
            if used[name] <= _references(node)[name]:
                unused.append(f"{module}.{name}")
    assert not undefined, f"__all__ names undefined: {undefined}"
    assert not unused, f"not used in src: {unused}"


def test_benchmark_traced_names_resolve():
    """Every function the benchmark's tracer wraps is where it looks: a
    module attribute, or an entry of its class's ``__dict__``.  No call in
    ``src/adnlab`` keeps some of them, ``AssembledSystem.outputs`` and
    ``DaeSystem.limiter_activity`` among them, so deleting one would pass
    the test above and break a traced run with a ``KeyError``.  The names
    some modules bind at import time are wrapped there too."""
    tree = ast.parse((SRC.parents[1] / "perfbench" / "tracing.py")
                     .read_text(encoding="utf-8"))
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and ast.unparse(node.targets[0]) == "TARGETS")
    assert ("network.outputs", "adnlab.network", "outputs",
            "AssembledSystem") in targets
    missing = []
    for name, module, attr, owner in targets:
        mod = importlib.import_module(module)
        if not (hasattr(mod, attr) if owner is None
                else attr in vars(getattr(mod, owner, object))):
            missing.append(name)
    assert not missing, f"traced names that do not resolve: {missing}"
    for module, name, defining in (("contin", "jacobian_fd", "engine"),
                                   ("network", "gfl_rates", "converters"),
                                   ("cli", "integrate", "engine")):
        bound = vars(importlib.import_module(f"adnlab.{module}")).get(name)
        assert bound is getattr(importlib.import_module(
            f"adnlab.{defining}"), name), f"adnlab.{module}.{name}"


def _readme_library_block() -> str:
    text = README.read_text(encoding="utf-8")
    return re.search(r"## Library use\s+```python\n(.*?)```", text,
                     re.DOTALL).group(1)


def test_readme_imports_only_exported_names():
    imports = re.findall(r"^from adnlab\.(\w+) import (.+)$",
                         README.read_text(encoding="utf-8"), re.MULTILINE)
    assert imports
    for module, names in imports:
        exported = importlib.import_module(f"adnlab.{module}").__all__
        missing = [n.strip() for n in names.split(",")
                   if n.strip() not in exported]
        assert not missing, f"README imports {missing} from adnlab.{module}"


def test_readme_library_block_runs(monkeypatch, capsys):
    monkeypatch.chdir(README.parent)
    exec(compile(_readme_library_block(), "README.md", "exec"), {})
    printed = capsys.readouterr().out
    assert "SNB" in printed
