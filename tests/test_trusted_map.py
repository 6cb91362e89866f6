"""Only ``Drawing.planarize`` builds a ``CombMap`` without its checks.

``CombMap._of_checked`` trusts that its rotations were checked by
``Drawing``; code that takes outside input must use ``CombMap(...)``.
"""

import ast
from pathlib import Path

from triplane.combmap import CombMap

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "triplane").glob("*.py"))
TRUSTED = "_of_checked"


def uses(path):
    """(file, enclosing function's qualified name) for every mention of ``TRUSTED``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Attribute) and child.attr == TRUSTED
                    or isinstance(child, ast.Name) and child.id == TRUSTED
                    or isinstance(child, ast.Constant) and child.value == TRUSTED):
                found.append((path.name, ".".join(scope)))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), ())
    return found


def test_trusted_constructor_is_defined():
    assert TRUSTED in vars(CombMap)


def test_only_planarize_skips_the_map_checks():
    assert [u for path in SOURCES for u in uses(path)] == [("drawing.py", "Drawing.planarize")]
