"""README's Guards table and Modules list against the modules the package defines."""

import importlib
import pkgutil
import re
from pathlib import Path

import foggame

README = Path(__file__).resolve().parents[1] / "README.md"


def _guards_table() -> dict[str, int]:
    """Constant name -> default, read from the rows of README's Guards table."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Guards\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        match = re.match(r"\| `foggame\.(\w+\.\w+)` \| (2\^)?(\d+) \| ", line)
        assert match, f"unreadable Guards row: {line}"
        name, power, digits = match.groups()
        rows[name] = 2 ** int(digits) if power else int(digits)
    return rows


def test_readme_guards_table_lists_every_limit_with_its_default():
    # Every module of the package is read, so a limit that moves to a new
    # module, or a new one, cannot miss the table; cli.EXIT_GUARD is an
    # exit code, not a limit.
    modules = [
        importlib.import_module(f"foggame.{info.name}")
        for info in pkgutil.iter_modules(foggame.__path__)
    ]
    limits = {
        f"{module.__name__.rpartition('.')[2]}.{name}": value
        for module in modules
        for name, value in vars(module).items()
        if name.endswith(("_GUARD", "_BUDGET")) and not name.startswith("EXIT_")
    }
    assert _guards_table() == limits


def test_readme_modules_list_names_every_module():
    # A module added, split off or removed must show in the list.
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Modules\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`foggame\.(\w+)", section))
    assert named == {info.name for info in pkgutil.iter_modules(foggame.__path__)}
