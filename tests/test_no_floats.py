"""The library computes exactly: no float literal and no ``float`` in ``src/triplane``."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "triplane").glob("*.py"))


def float_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "the float builtin"


def test_sources_found():
    assert any(p.name == "geometry.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floats_in_library(path):
    found = list(float_uses(ast.parse(path.read_text(encoding="utf-8"), str(path))))
    assert not found, [f"{path.name}:{line}: {what}" for line, what in found]
