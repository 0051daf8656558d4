import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import bookfield

MODULES = sorted(m.name for m in pkgutil.iter_modules(bookfield.__path__, "bookfield."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_every_module_level_import_is_used():
    # __init__ only re-exports, so it is exempt.
    dead = []
    for path in sorted(Path(bookfield.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported += [(a.asname or a.name).split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        exported = set(getattr(importlib.import_module(f"bookfield.{path.stem}"), "__all__", ()))
        dead += [f"{path.stem}.{name}" for name in imported if name not in used | exported]
    assert dead == []
