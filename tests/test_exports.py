import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import pytest

import bookfield

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(bookfield.__path__, "bookfield."))


def program_trees():
    """The parsed files of src, demos and perfbench: every reader of the package but the tests."""
    src = Path(bookfield.__file__).parent
    paths = [*src.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    return [ast.parse(path.read_text()) for path in paths]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_the_package_imports_nothing():
    # Each module's __all__ is the one declaration of its public names; the package
    # declares none a second time.
    tree = ast.parse(Path(bookfield.__file__).read_text())
    assert [n.lineno for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))] == []


def test_every_module_level_import_is_used():
    dead = []
    for path in sorted(Path(bookfield.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported += [(a.asname or a.name).split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        module = "bookfield" if path.name == "__init__.py" else f"bookfield.{path.stem}"
        exported = set(getattr(importlib.import_module(module), "__all__", ()))
        dead += [f"{path.stem}.{name}" for name in imported if name not in used | exported]
    assert dead == []


def test_every_exported_name_is_used():
    # A public name that no module, demo or benchmark reads is reached only by the
    # tests.  cli looks writers up by string, so an identifier string counts as a use;
    # the names inside __all__ lists do not.
    used = set()
    for tree in program_trees():
        listed = {id(n) for node in ast.walk(tree) if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                  for n in ast.walk(node.value)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.split(".")[-1])
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.isidentifier() and id(node) not in listed):
                used.add(node.value)
    unused = [f"{name}.{n}" for name in MODULES
              for n in getattr(importlib.import_module(name), "__all__", ()) if n not in used]
    assert unused == []


def test_every_public_dataclass_field_is_read():
    # A field of a public dataclass that nothing outside the tests reads as an
    # attribute, or names in a string (getattr, meta keys), carries a value no caller uses.
    read = set()
    for tree in program_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    unread = []
    for name in MODULES:
        module = importlib.import_module(name)
        for cls in (getattr(module, n) for n in getattr(module, "__all__", ())):
            if isinstance(cls, type) and dataclasses.is_dataclass(cls):
                unread += [f"{cls.__name__}.{f.name}" for f in dataclasses.fields(cls)
                           if f.name not in read]
    assert unread == []
