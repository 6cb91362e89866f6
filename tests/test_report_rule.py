"""Every report but the census's is written to JSON by one rule, ``drawing.Report.as_dict``.

The rule: a report's fields by name, ``passed`` written as ``"pass"``,
tuples as lists, nested reports as objects and every ``Fraction`` as
``"p/q"`` (``drawing.frac_to_str``).  No report in ``constraints`` or
``certificate`` writes itself: only ``ConstraintReport`` adds one entry,
its ``all_pass``.  ``CensusReport`` keeps its own pinned format.
"""

import ast
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Tuple

from triplane.drawing import Report

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "triplane").glob("*.py"))


def definitions(name):
    """(file, enclosing class or ``None``, body) for every function called ``name``."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        classes = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        found += [(path.name, classes.get(id(node)), node.body) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name]
    return found


def test_frac_to_str_is_defined_once_in_drawing():
    assert [(f, c) for f, c, _ in definitions("frac_to_str")] == [("drawing.py", None)]


def test_only_the_rule_the_census_and_all_pass_write_a_report():
    writers = {(f, c): body for f, c, body in definitions("as_dict")}
    assert set(writers) == {("drawing.py", "Report"), ("constraints.py", "ConstraintReport"),
                            ("census.py", "CensusReport")}
    (stmt,) = writers["constraints.py", "ConstraintReport"]
    assert ast.unparse(stmt) == "return {**super().as_dict(), 'all_pass': self.all_pass}"


@dataclass(frozen=True)
class _Inner(Report):
    passed: bool
    share: Fraction


@dataclass(frozen=True)
class _Outer(Report):
    name: str
    count: int
    names: Tuple[str, ...]
    inner: _Inner
    inners: Tuple[_Inner, ...]


def test_the_rule_writes_fields_by_name():
    inner = _Inner(True, Fraction(-6, 4))
    out = _Outer("a", 3, ("x", "y"), inner, (inner, _Inner(False, Fraction(0))))
    assert out.as_dict() == {"name": "a", "count": 3, "names": ["x", "y"],
                             "inner": {"pass": True, "share": "-3/2"},
                             "inners": [{"pass": True, "share": "-3/2"}, {"pass": False, "share": "0/1"}]}
    assert list(out.as_dict()) == ["name", "count", "names", "inner", "inners"]
