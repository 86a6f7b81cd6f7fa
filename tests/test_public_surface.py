"""The package's public names: every ``__all__`` resolves, and the README lists the package's."""

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
