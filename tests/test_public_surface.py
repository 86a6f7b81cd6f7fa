"""The package's public names: every ``__all__`` resolves, each name in it has a
reader, and the README lists the package's."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import flowtensor

ROOT = Path(__file__).resolve().parent.parent


def test_every_module_all_resolves():
    for info in pkgutil.iter_modules(flowtensor.__path__):
        module = importlib.import_module(f"flowtensor.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"flowtensor.{info.name}.__all__ names undefined {missing}"
    assert all(hasattr(flowtensor, n) for n in flowtensor.__all__)


def names_read(source: str) -> set:
    """Every name that ``source`` reads, as a name or an attribute.

    A definition, an assignment target, an import line and a string in an
    ``__all__`` list are not reads.
    """
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_every_exported_name_has_a_reader():
    """A name in a module's ``__all__`` that nothing in the package, its tools
    or its demos reads is a wrapper that outlived its callers."""
    read = set()
    for d in ("src", "tools", "demos"):
        for path in (ROOT / d).rglob("*.py"):
            read |= names_read(path.read_text())
    for info in [None, *pkgutil.iter_modules(flowtensor.__path__)]:
        module = importlib.import_module("flowtensor" + (f".{info.name}" if info else ""))
        unread = [n for n in getattr(module, "__all__", ()) if n not in read]
        assert not unread, f"{module.__name__}.__all__ names {unread}, which nothing reads"


def test_definitions_imports_and_all_entries_are_not_reads():
    source = ("from .geometry import gone, kept\n__all__ = ['gone', 'kept', 'also']\n"
              "def gone():\n    pass\nclass also:\n    pass\nattr = 1\n"
              "print(kept, flowtensor.attr)\n")
    read = names_read(source)
    assert {"kept", "attr"} <= read
    assert not {"gone", "also"} & read


def readme_public_names():
    """``(module, name)`` for each name of the README's "Public names" table, in order."""
    text = (ROOT / "README.md").read_text()
    section = text.partition("\n## Public names\n")[2].partition("\n## ")[0]
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", section, re.M)
    assert rows, "README.md has no table under Public names"
    return [(module, name) for module, names in rows for name in re.findall(r"`(\w+)`", names)]


def test_readme_lists_the_package_all():
    listed = readme_public_names()
    assert [name for _, name in listed] == flowtensor.__all__
    for module, name in listed:
        assert getattr(importlib.import_module(f"flowtensor.{module}"), name) is \
            getattr(flowtensor, name), f"{name} is not flowtensor.{module}.{name}"
