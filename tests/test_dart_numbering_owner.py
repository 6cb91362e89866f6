"""Only ``combmap`` reads the dart numbering's own tables, and only ``Darts.of_paths`` makes one.

``Darts._base`` is how ``combmap`` numbers darts; every other module asks
``Darts`` (``encode``, ``decode``, ``inner_segments``) so that the
numbering keeps one owner.  ``Darts.of_paths`` checks a rotation system
while it numbers it, so a ``Darts`` made anywhere else would be a second,
unchecked numbering.
"""

import ast
from pathlib import Path

from triplane.combmap import Darts

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "triplane").glob("*.py"))
PRIVATE = ("_base",)


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


def creations(path):
    """(file, enclosing function's qualified name) for every ``Darts(...)`` and ``Darts.__new__``.

    Inside ``class Darts``, ``cls.__new__`` counts too.
    """
    found = []

    def makes_darts(call, scope):
        f = call.func
        if isinstance(f, ast.Attribute) and f.attr == "__new__":
            return ast.unparse(f.value) == "Darts" or scope[:1] == ("Darts",) and ast.unparse(f.value) == "cls"
        return ast.unparse(f) in ("Darts", "combmap.Darts")

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and makes_darts(child, scope):
                found.append((path.name, ".".join(scope)))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), ())
    return found


def test_only_of_paths_creates_darts():
    assert [c for path in SOURCES for c in creations(path)] == [("combmap.py", "Darts.of_paths")]


def numbering_lapses(path):
    """(file, name) for every ``.encode(...)`` call and every use of the name ``_CellView``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "encode":
            found.append((path.name, "encode"))
        names = {getattr(node, attr, None) for attr in ("id", "attr", "name")}
        if isinstance(node, ast.alias):
            names.update((node.name, node.asname))
        if "_CellView" in names:
            found.append((path.name, "_CellView"))
    return found


def test_census_and_saturate_stay_on_numbers():
    # After the planarization the census and the filledness check read cell
    # and dart numbers; ids and tuples are written only for their results.
    assert [f for path in SOURCES if path.name in ("census.py", "saturate.py")
            for f in numbering_lapses(path)] == []
