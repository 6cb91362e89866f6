"""Only ``combmap`` reads the dart numbering's own tables.

``Darts._base`` and ``Darts._index`` are how ``combmap`` numbers darts;
every other module asks ``Darts`` (``encode``, ``decode``,
``inner_segments``) so that the numbering keeps one owner.
"""

import ast
from pathlib import Path

from triplane.combmap import Darts

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "triplane").glob("*.py"))
PRIVATE = ("_base", "_index")


def reads(path):
    """(file, attribute) for every access to one of ``PRIVATE``, by attribute or by name in a string."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return [(path.name, node.attr if isinstance(node, ast.Attribute) else node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in PRIVATE
            or isinstance(node, ast.Constant) and node.value in PRIVATE]


def test_private_tables_are_slots_of_darts():
    assert set(PRIVATE) <= set(Darts.__slots__)


def test_only_combmap_reads_the_numbering_tables():
    outside = [r for path in SOURCES if path.name != "combmap.py" for r in reads(path)]
    assert outside == []
    assert {attr for _, attr in reads(SOURCES[0].parent / "combmap.py")} == set(PRIVATE)
