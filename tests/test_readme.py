"""README's Guards table against the limits the modules define."""

import re
from pathlib import Path

from foggame import equilibrium, graph

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
    limits = {
        f"{module.__name__.rpartition('.')[2]}.{name}": value
        for module in (equilibrium, graph)
        for name, value in vars(module).items()
        if name.endswith(("_GUARD", "_BUDGET"))
    }
    assert _guards_table() == limits
