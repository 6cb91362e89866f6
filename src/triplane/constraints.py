"""The density identity and the 21 counting rows, evaluated exactly."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Dict, Mapping, Tuple, Union

from .census import _classified
from .drawing import Drawing, Report

Rational = Union[int, Fraction]

SCOPE_ANY = "any-valid-drawing"
SCOPE_SAT = "3-saturated"


class ConstraintError(ValueError):
    """The constraint evaluator cannot run on this input."""


@dataclass(frozen=True)
class ConstraintRow:
    id: str
    relation: str            # "=" or "<="
    lhs: Mapping[str, int]
    rhs: Mapping[str, int]
    scope: str

    @cached_property
    def form(self) -> Mapping[str, int]:
        """lhs - rhs as a read-only sparse form: minus the row's slack on a census."""
        form = dict(self.lhs)
        for v, c in self.rhs.items():
            form[v] = form.get(v, 0) - c
        return MappingProxyType({v: c for v, c in form.items() if c})


ROWS: Tuple[ConstraintRow, ...] = (
    ConstraintRow("2.A", "=", {"T_VQUAD_VTRI": 1, "T_VTRI_XPENT": 1, "T_LARGE_VTRI": 1},
                  {"VTRI": 1}, SCOPE_SAT),
    ConstraintRow("2.B", "=", {"T_VQUAD_VTRI": 1, "T_VQUAD_VQUAD": 2, "T_VQUAD_XTRI": 1,
                               "T_VQUAD_XPENT": 1, "T_LARGE_VQUAD": 1},
                  {"VQUAD": 2}, SCOPE_SAT),
    ConstraintRow("2.C", "=", {"T_VQUAD_XTRI": 1, "T_XPENT_XTRI": 1, "T_LARGE_XTRI": 1},
                  {"XTRI": 3}, SCOPE_SAT),
    ConstraintRow("2.D", "=", {"T_XPENT_XTRI": 1, "T_VTRI_XPENT": 1, "T_VQUAD_XPENT": 1,
                               "T_XPENT_XPENT": 2, "T_LARGE_XPENT": 1},
                  {"XPENT": 5}, SCOPE_SAT),
    ConstraintRow("3.A", "<=", {"T_XPENT_XTRI": 1}, {"CFG9": 1}, SCOPE_SAT),
    ConstraintRow("3.B", "<=", {"T_VQUAD_XPENT": 1}, {"CFG10": 1}, SCOPE_SAT),
    ConstraintRow("3.C", "<=", {"T_VQUAD_XTRI": 1}, {"CFG12": 1}, SCOPE_SAT),
    ConstraintRow("3.D", "<=", {"VTRI": 1}, {"CFG13": 1, "CFG14": 1}, SCOPE_SAT),
    ConstraintRow("3.E", "<=", {"T_VQUAD_VTRI": 2}, {"E1": 1, "CFG18": 2}, SCOPE_SAT),
    ConstraintRow("4.A", "<=", {"T_XPENT_XPENT": 2, "T_VTRI_XPENT": 1, "T_XPENT_XTRI": 1,
                                "XPENT": -4},
                  {"CFG15": 1}, SCOPE_SAT),
    ConstraintRow("4.B", "<=", {"CFG15": 1}, {"CFG14": 1}, SCOPE_SAT),
    ConstraintRow("5.A", "<=", {"T_LARGE_VTRI": 1, "T_LARGE_VQUAD": 1, "T_LARGE_XTRI": 1,
                                "T_LARGE_XPENT": 1, "KITE": 5},
                  {"large_size_sum": 1}, SCOPE_SAT),
    ConstraintRow("5.B", "<=", {"large_size_sum": 1, "E": 6, "X": 6,
                                "XTRI": -12, "XQUAD": -6, "VTRI": -6},
                  {"Vm2": 30}, SCOPE_SAT),
    ConstraintRow("6", "<=", {"VTRI": 2, "VQUAD": 2, "VVTRI": 2, "KITE": 2},
                  {"Ex": 4}, SCOPE_ANY),
    ConstraintRow("7", "<=", {"T_LARGE_VTRI": 1, "T_LARGE_VQUAD": 1, "T_LARGE_XTRI": 1,
                              "T_LARGE_XPENT": 1, "XTRI": 3, "VTRI": 1, "XQUAD": 4,
                              "VQUAD": 2, "XPENT": 5},
                  {"E2": 2, "E3": 4}, SCOPE_ANY),
    ConstraintRow("8.A", "=", {"E1": 1, "E2": 1, "E3": 1}, {"Ex": 1}, SCOPE_ANY),
    ConstraintRow("8.B", "=", {"E1": 1, "E2": 2, "E3": 3}, {"X": 2}, SCOPE_ANY),
    ConstraintRow("8.C", "<=", {"CFG18": 1, "CFG15": 2}, {"E2": 2}, SCOPE_ANY),
    ConstraintRow("9.A", "=", {"Ex": 1, "E0": 1}, {"E": 1}, SCOPE_ANY),
    ConstraintRow("9.B", "<=", {"VVTRI": 1, "KITE": 1}, {"E0": 2}, SCOPE_ANY),
    ConstraintRow("9.C", "<=", {"CFG10": 1, "CFG9": 1, "CFG12": 1, "CFG13": 1, "CFG14": 2},
                  {"VVTRI": 2}, SCOPE_ANY),
)

def _valuation(counts: Mapping[str, int]) -> Dict[str, int]:
    if "n" not in counts:
        raise ConstraintError("counts must include the vertex count n")
    val = dict(counts)
    val["Vm2"] = counts["n"] - 2
    return val


def _form_value(form: Mapping[str, Rational], val: Mapping[str, int]) -> Rational:
    return sum(c * val.get(v, 0) for v, c in form.items())


@dataclass(frozen=True)
class RowResult(Report):
    id: str
    relation: str
    lhs: int
    rhs: int
    slack: int
    passed: bool
    scope: str
    applicable: bool


@dataclass(frozen=True)
class ConstraintReport(Report):
    rows: Tuple[RowResult, ...]
    saturated: bool

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows if r.applicable)

    def as_dict(self) -> dict:
        return {**super().as_dict(), "all_pass": self.all_pass}


def evaluate_constraints(counts: Mapping[str, int], saturated: bool) -> ConstraintReport:
    """Evaluate every row on a census counts vector.

    Rows scoped to 3-saturated drawings are marked inapplicable (and not
    judged) when ``saturated`` is false.  Slack is RHS − LHS; an equality
    passes iff its slack is zero, an inequality iff it is nonnegative.
    """
    val = _valuation(counts)
    out = []
    for row in ROWS:
        lhs = _form_value(row.lhs, val)
        rhs = _form_value(row.rhs, val)
        slack = rhs - lhs
        applicable = saturated or row.scope == SCOPE_ANY
        passed = (slack == 0) if row.relation == "=" else (slack >= 0)
        out.append(RowResult(row.id, row.relation, lhs, rhs, slack, passed,
                             row.scope, applicable))
    return ConstraintReport(tuple(out), saturated)


def density_residual(drawing: Drawing, t: Rational) -> Fraction:
    """|E| minus the cell-size expansion of it; zero on every valid drawing.

    The expansion is t(|V|-2) - sum over cells of ((t-1)/4 * size - t),
    minus |X|, for any rational t: an ``int`` or a ``Fraction``.
    """
    if isinstance(t, bool) or not isinstance(t, (int, Fraction)):
        raise ConstraintError(f"density residual needs an int or a Fraction t, not {t!r}")
    drawing._validation().refuse_invalid(ConstraintError)
    t = Fraction(t)
    n = len(drawing.vertices)
    x = len(drawing.crossings)
    e = len(drawing.edges)
    sizes = _classified(drawing).sizes
    cell_term = (t - 1) / 4 * sum(sizes) - t * len(sizes)
    return e - (t * (n - 2) - cell_term - x)
