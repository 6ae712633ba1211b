"""The public surface: every `__all__` name exists, and every name the
package re-exports is public in the module it comes from.

perfbench/spans.install wraps what each module's `__all__` names and skips a
name it cannot find, so a stale entry would silently drop a layer from traced
runs; these tests make it fail here instead.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import espalier
from espalier import braid

MODULES = sorted(info.name for info in pkgutil.iter_modules(espalier.__path__))
DELETED = ("to_artin", "_artin_steps", "free_reduce", "exponent_sum_by_edge")


def reexports():
    """(module, name) for each `from .module import name` in espalier/__init__.py."""
    tree = ast.parse(Path(espalier.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_exists(name):
    module = importlib.import_module(f"espalier.{name}")
    public = getattr(module, "__all__", ())
    assert len(set(public)) == len(public), name
    assert [attr for attr in public if not hasattr(module, attr)] == []


def test_reexports_are_public_in_their_modules():
    pairs = reexports()
    assert len(pairs) > 20
    for module_name, attr in pairs:
        module = importlib.import_module(f"espalier.{module_name}")
        assert attr in module.__all__, (module_name, attr)
        assert getattr(espalier, attr) is getattr(module, attr)


def test_deleted_word_helpers_are_gone():
    for attr in DELETED:
        assert attr not in braid.__all__ and not hasattr(braid, attr), attr
        assert not hasattr(espalier, attr), attr
