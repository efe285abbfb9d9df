"""The README's library layout names only what the package has."""

from __future__ import annotations

import importlib
import inspect
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _layout() -> dict[str, list[str]]:
    """{module: the backticked identifiers of its row} of the table under
    "## Library layout"."""
    section = README.read_text(encoding="utf-8").split("## Library layout", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for module, contents in re.findall(r"^\| `(\w+)`\s*\|(.*)\|$", section, flags=re.MULTILINE):
        names = re.findall(r"`([^`]+)`", contents)
        rows[module] = [name for name in names if all(part.isidentifier() for part in name.split("."))]
    return rows


def _resolves(module, name: str) -> bool:
    """Whether `name` is an attribute of the module, of a class defined in
    it, or, written `rng.x`, of the `rng` module."""
    if "." in name:
        head, attr = name.split(".", 1)
        return head == "rng" and hasattr(importlib.import_module("nibble_colour.rng"), attr)
    if hasattr(module, name):
        return True
    classes = [value for value in vars(module).values() if inspect.isclass(value) and value.__module__ == module.__name__]
    return any(hasattr(cls, name) for cls in classes)


def test_the_layout_lists_every_module():
    assert sorted(_layout()) == ["cli", "core", "finisher", "harness", "instance_io", "nibble", "pipeline", "polytope", "rng"]


@pytest.mark.parametrize("module_name", sorted(_layout()))
def test_every_name_in_the_layout_resolves(module_name):
    module = importlib.import_module(f"nibble_colour.{module_name}")
    assert [name for name in _layout()[module_name] if not _resolves(module, name)] == []
