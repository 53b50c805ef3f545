"""Every name a foggame module imports is used in that module.

The package has no linter among its dependencies, so this stdlib-only
check stands in for one: it walks each module's syntax tree and names
every import binding that no expression or annotation of the module
reads.  The modules quote no imported name in an annotation and list none
in __all__, so a name counts as used where it appears as a name node.
"""

import ast
from pathlib import Path

import pytest

import foggame

PACKAGE_DIR = Path(foggame.__file__).resolve().parent
MODULES = sorted(PACKAGE_DIR.glob("*.py"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its first binding."""
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.partition(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, node.lineno)
    return bound


def _used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from typing import Iterable, NamedTuple\nx: NamedTuple\n")
    assert set(_imported_names(tree)) - _used_names(tree) == {"Iterable"}
