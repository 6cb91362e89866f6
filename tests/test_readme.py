"""README's Library tour is one Markdown table naming every module.

A paragraph between two rows splits the table: Markdown then renders the
rows after it as plain text, without a header.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DELIMITER = re.compile(r"^\|( *:?-+:? *\|)+$")


def _tour_table():
    """The lines of the first run of table rows under ``## Library tour``."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("## Library tour") + 1
    while not lines[start].strip():
        start += 1
    end = start
    while end < len(lines) and lines[end].startswith("|"):
        end += 1
    return lines[start:end]


def test_library_tour_is_one_table_of_every_module():
    table = _tour_table()
    assert len(table) >= 2, "Library tour does not open with a table"
    assert [c.strip() for c in table[0].strip("|").split("|")] == ["module", "contents"]
    assert DELIMITER.match(table[1]), table[1]
    named = [re.match(r"^\| `triplane\.(\w+)` \|", row) for row in table[2:]]
    assert all(named), [row for row, m in zip(table[2:], named) if not m]
    modules = sorted(p.stem for p in (ROOT / "src" / "triplane").glob("*.py") if p.stem != "__init__")
    assert sorted(m.group(1) for m in named) == modules
