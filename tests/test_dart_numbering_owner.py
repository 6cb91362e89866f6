"""Only ``combmap`` reads the dart numbering's own tables, and only two places build a ``CombMap``.

``CombMap._base`` is how ``combmap`` numbers darts; every other module asks
the map (``encode``, ``decode``, ``inner_segments``) so that the numbering
keeps one owner.  ``CombMap(...)`` checks a rotation system while it
numbers it, and only ``Drawing.__init__`` and
``CombMap.insert_edge_in_face`` build one, so every map is the one map of
a drawing or of a drawing with one more edge.
"""

import ast
from pathlib import Path

from triplane.combmap import CombMap

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "triplane").glob("*.py"))
PRIVATE = ("_base",)


def reads(path):
    """(file, attribute) for every access to one of ``PRIVATE``, by attribute or by name in a string."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return [(path.name, node.attr if isinstance(node, ast.Attribute) else node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in PRIVATE
            or isinstance(node, ast.Constant) and node.value in PRIVATE]


def test_private_tables_are_slots_of_combmap():
    assert set(PRIVATE) <= set(CombMap.__slots__)


def test_only_combmap_reads_the_numbering_tables():
    outside = [r for path in SOURCES if path.name != "combmap.py" for r in reads(path)]
    assert outside == []
    assert {attr for _, attr in reads(SOURCES[0].parent / "combmap.py")} == set(PRIVATE)


def creations(path):
    """(file, enclosing function's qualified name) for every ``CombMap(...)`` and ``CombMap.__new__``.

    Inside ``class CombMap``, ``cls(...)``, ``type(self)(...)`` and ``cls.__new__`` count too.
    """
    found = []

    def makes_map(call, scope):
        f = call.func
        own = ("cls", "type(self)", "self.__class__") if scope[:1] == ("CombMap",) else ()
        if isinstance(f, ast.Attribute) and f.attr == "__new__":
            return ast.unparse(f.value) in ("CombMap",) + own
        return ast.unparse(f) in ("CombMap", "combmap.CombMap") + own

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and makes_map(child, scope):
                found.append((path.name, ".".join(scope)))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), ())
    return found


def test_only_drawing_and_edge_insertion_build_a_map():
    assert [c for path in SOURCES for c in creations(path)] == [("combmap.py", "CombMap.insert_edge_in_face"),
                                                                 ("drawing.py", "Drawing.__init__")]


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
    # and dart numbers, and the producers edit ``Rotations`` on dart numbers;
    # ids and tuples are written only for their results.
    assert [f for path in SOURCES if path.name in ("census.py", "generators.py", "saturate.py")
            for f in numbering_lapses(path)] == []


def tuple_twin_imports(path):
    """(file, name) for every import of ``twin`` from ``combmap`` and every ``combmap.twin``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "combmap":
            found += [(path.name, alias.name) for alias in node.names if alias.name in ("twin", "*")]
        if isinstance(node, ast.Attribute) and node.attr == "twin" and ast.unparse(node.value).endswith("combmap"):
            found.append((path.name, "combmap.twin"))
    return found


def test_producers_take_twins_on_numbers():
    # A producer's twin of dart ``i`` is ``i ^ 1``; tuple twins are for readers of dart tuples.
    assert [f for path in SOURCES if path.name in ("generators.py", "saturate.py")
            for f in tuple_twin_imports(path)] == []
