"""The package surface: each module's ``__all__`` names only what it
defines or imports, and ``verlinde/__init__.py`` re-exports only names that
their home module lists there."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "verlinde"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"verlinde.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_package_imports_only_listed_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    unlisted = []
    for node in imports:
        module = importlib.import_module(f"verlinde.{node.module}")
        unlisted += [f"{node.module}.{alias.name}" for alias in node.names
                     if alias.name not in module.__all__]
    assert unlisted == []


PACKED_KERNEL = ("_join", "_exact", "_echelon_mod_p", "_residues", "_annihilates",
                 "_hadamard_bits")


@pytest.mark.parametrize("name", [m for m in MODULES if m != "linalg"] + ["__init__"])
def test_only_linalg_holds_the_packed_kernel(name):
    # the packed rows and their certified-kernel loop are linalg's own:
    # other modules reach them through ExactMatrix and KernelStack
    module = importlib.import_module("verlinde" if name == "__init__" else f"verlinde.{name}")
    assert [attr for attr in PACKED_KERNEL if hasattr(module, attr)] == []
