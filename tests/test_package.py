"""The package's public names: each module's ``__all__`` and the re-exports."""
import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import tipcrit


def test_all_lists_only_defined_names_and_covers_the_reexports():
    modules = {info.name: importlib.import_module(f"tipcrit.{info.name}")
               for info in pkgutil.iter_modules(tipcrit.__path__)}
    for name, module in modules.items():
        missing = [n for n in getattr(module, "__all__", ())
                   if not hasattr(module, n)]
        assert missing == [], name
    tree = ast.parse(Path(tipcrit.__file__).read_text(encoding="utf-8"))
    reexports = [(node.module, alias.name) for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 for alias in node.names]
    assert reexports
    unlisted = [(m, n) for m, n in reexports
                if n not in getattr(modules[m], "__all__", ())]
    assert unlisted == []


def test_every_public_function_has_its_own_docstring():
    undocumented = []
    for info in pkgutil.iter_modules(tipcrit.__path__):
        module = importlib.import_module(f"tipcrit.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isfunction(obj) and not (obj.__doc__ or "").strip():
                undocumented.append(f"{info.name}.{name}")
    assert undocumented == []
