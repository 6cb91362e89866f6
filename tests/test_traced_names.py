"""Every function the benchmark's traced run wraps still exists.

``perfbench/tracer.py`` looks each name in its ``TRACED`` table up with
``getattr`` when ``perfbench/run.py --trace 1`` starts, so deleting or
renaming one of them breaks that run.  A traced class is traced through
its own ``__init__``, read from the class's ``__dict__``, so it must define
one rather than inherit it.  The table is read from the file's source; the
benchmark code itself is not imported.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_table():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TRACED":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACER}")


def test_every_traced_name_resolves():
    table = traced_table()
    assert table
    missing = []
    for mod_name, names in table.items():
        mod = importlib.import_module(f"triplane.{mod_name}")
        for name in names:
            owner_name, _, method = name.partition(".")
            owner = getattr(mod, owner_name, None)
            if isinstance(owner, type) and not method:
                method = "__init__"
            if owner is None or (method and method not in vars(owner)):
                missing.append(f"{mod_name}.{name}")
    assert not missing


def test_traced_filledness_names_are_the_census_functions():
    # The tracer wraps an object in every module that binds it, so the
    # census's own filledness checks are charged to ``saturate.is_3saturated``
    # and ``saturate.filled_witness`` only while both modules bind the same functions.
    census = importlib.import_module("triplane.census")
    saturate = importlib.import_module("triplane.saturate")
    for name in ("filled_witness", "is_3saturated"):
        assert name in traced_table()["saturate"]
        assert getattr(saturate, name) is getattr(census, name)
