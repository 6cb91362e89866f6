"""Exact verification of the dual certificates behind the 5.5(n-2) bounds.

Each certificate assigns one rational multiplier to every counting row.
Summing coefficient times (lhs - rhs) over the rows is supposed to
reproduce the target form |E| - 5.5(|V|-2) (or |X| - 5.5(|V|-2)); any
variables that survive the summation are reported as the symbolic
residual.  Numerically, on a 3-saturated drawing, the bound's total slack
decomposes exactly into the coefficient-weighted row slacks plus the
residual form evaluated on the census.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Mapping, Tuple

from .census import census, is_3saturated
from .constraints import ROWS, _form_value, _valuation, evaluate_constraints
from .drawing import Drawing, Report

LinearForm = Dict[str, Fraction]


class CertificateError(ValueError):
    """An invalid certificate or a failed exact identity."""


@dataclass(frozen=True)
class Certificate:
    target: str
    coefficients: Mapping[str, Fraction]


_EDGE_COEFFS: Dict[str, Fraction] = {
    "2.A": Fraction(-5, 16), "2.B": Fraction(5, 16), "2.C": Fraction(-11, 24), "2.D": Fraction(1, 8),
    "3.A": Fraction(7, 48), "3.B": Fraction(0, 1), "3.C": Fraction(3, 16), "3.D": Fraction(3, 16),
    "3.E": Fraction(0, 1), "4.A": Fraction(3, 16), "4.B": Fraction(3, 16),
    "5.A": Fraction(11, 60), "5.B": Fraction(11, 60), "6": Fraction(13, 80), "7": Fraction(11, 40),
    "8.A": Fraction(-11, 20), "8.B": Fraction(11, 20), "8.C": Fraction(0, 1),
    "9.A": Fraction(1, 10), "9.B": Fraction(1, 20), "9.C": Fraction(3, 16),
}

_CROSSING_COEFFS: Dict[str, Fraction] = {
    "2.A": Fraction(-7, 16), "2.B": Fraction(5, 16), "2.C": Fraction(-11, 24), "2.D": Fraction(-3, 8),
    "3.A": Fraction(1, 48), "3.B": Fraction(1, 16), "3.C": Fraction(7, 48), "3.D": Fraction(5, 16),
    "3.E": Fraction(1, 16), "4.A": Fraction(13, 16), "4.B": Fraction(5, 16),
    "5.A": Fraction(11, 60), "5.B": Fraction(11, 60), "6": Fraction(3, 80), "7": Fraction(11, 40),
    "8.A": Fraction(19, 20), "8.B": Fraction(1, 20), "8.C": Fraction(1, 4),
    "9.A": Fraction(11, 10), "9.B": Fraction(11, 20), "9.C": Fraction(5, 16),
}


# Per target: the variable it bounds and its built-in coefficient column.
_TARGETS: Dict[str, Tuple[str, Mapping[str, Fraction]]] = {
    "edges": ("E", _EDGE_COEFFS),
    "crossings": ("X", _CROSSING_COEFFS),
}

TARGETS = tuple(_TARGETS)


def _target(target: str) -> Tuple[str, Mapping[str, Fraction]]:
    if target not in _TARGETS:
        raise CertificateError(f"unknown certificate target {target!r}")
    return _TARGETS[target]


def builtin_certificate(target: str) -> Certificate:
    return Certificate(target, dict(_target(target)[1]))


def target_form(target: str) -> LinearForm:
    """The form the certificate must reproduce: value minus 11/2 (|V|-2)."""
    return {_target(target)[0]: Fraction(1), "Vm2": Fraction(-11, 2)}


def _check_signs(cert: Certificate) -> None:
    """The one check of a certificate's column: one exact, sign-correct coefficient per row."""
    for row in ROWS:
        if row.id not in cert.coefficients:
            raise CertificateError(f"certificate is missing a coefficient for row {row.id}")
        coeff = cert.coefficients[row.id]
        if isinstance(coeff, bool) or not isinstance(coeff, (int, Fraction)):
            raise CertificateError(
                f"invalid certificate: coefficient {coeff!r} on row {row.id} "
                "is not an int or a Fraction")
        if row.relation == "<=" and coeff < 0:
            raise CertificateError(
                f"invalid certificate: negative coefficient {coeff} "
                f"on inequality row {row.id}")
    ids = {row.id for row in ROWS}
    for row_id in cert.coefficients:
        if row_id not in ids:
            raise CertificateError(f"certificate names unknown row {row_id!r}")


def verify_symbolic(certificate: Certificate) -> LinearForm:
    """Sum coefficient * (lhs - rhs) over all rows, minus the target form.

    Returns the sparse residual; an empty map means the certificate
    telescopes exactly to the claimed bound.  The column is checked on
    every call; the residual is computed once per target and coefficients.
    """
    _check_signs(certificate)
    return dict(_residual(certificate.target, tuple(certificate.coefficients.items())))


@lru_cache(maxsize=64)
def _residual(target: str, coefficients: Tuple[Tuple[str, Fraction], ...]) -> LinearForm:
    """The symbolic residual of a checked column, given as (row id, coefficient) items."""
    coeffs = dict(coefficients)
    total: LinearForm = {}
    for row in ROWS:
        coeff = coeffs[row.id]
        for v, c in row.form.items():
            total[v] = total.get(v, Fraction(0)) + coeff * c
    for v, c in target_form(target).items():
        total[v] = total.get(v, Fraction(0)) - c
    return {v: c for v, c in sorted(total.items()) if c}


@dataclass(frozen=True)
class RowContribution(Report):
    id: str
    coeff: Fraction
    slack: int
    contribution: Fraction


@dataclass(frozen=True)
class NumericReport(Report):
    target: str
    bound: Fraction
    value: int
    total_slack: Fraction
    certified_slack: Fraction
    residual_at_census: Fraction
    rows: Tuple[RowContribution, ...]


def verify_numeric(drawing: Drawing, certificate: Certificate) -> NumericReport:
    """Evaluate one certificate on a 3-saturated drawing, exactly.

    bound = 11/2 (n-2), total_slack = bound - value, and the decomposition
    total_slack = sum(coeff * row_slack) + (symbolic residual evaluated on
    the census) is asserted exactly, as is value <= bound.  Equality rows
    must have zero slack (anything else means the census itself is
    broken); inequality rows may carry negative slack, which the report
    surfaces rather than hides.
    """
    drawing._validation().refuse_invalid(CertificateError)
    if len(drawing.vertices) < 3:
        raise CertificateError("certificate evaluation needs a drawing on at least 3 vertices")
    if not is_3saturated(drawing):
        raise CertificateError(
            "certificate evaluation needs a 3-saturated drawing; "
            "run saturate first (CLI: --saturate)")

    rep = census(drawing)
    val = _valuation(rep.counts)
    # Extra sanity refinement: large cells exceed size 5 by at least a sixth
    # of their total size (LARGE counts the kites too).
    large_size_sum = rep.counts["large_size_sum"]
    if 6 * (large_size_sum - 5 * rep.counts["LARGE"]) < large_size_sum:
        raise CertificateError("large-cell size refinement failed on this census")
    row_results = evaluate_constraints(rep.counts, saturated=True).rows
    for row in row_results:
        if row.relation == "=" and not row.passed:
            raise CertificateError(f"equality row {row.id} has nonzero slack {row.slack}")

    target = certificate.target
    # An int coefficient is stored as a Fraction, so the report writes it "p/1" too.
    coeffs = {k: c if type(c) is Fraction else Fraction(c) for k, c in certificate.coefficients.items()}
    residual_val = Fraction(_form_value(verify_symbolic(certificate), val))
    bound = Fraction(11, 2) * (val["n"] - 2)
    value = val[_target(target)[0]]
    total_slack = bound - value
    rows = tuple(RowContribution(r.id, coeffs[r.id], r.slack, coeffs[r.id] * r.slack)
                 for r in row_results)
    certified = sum((r.contribution for r in rows), Fraction(0))
    if total_slack != certified + residual_val:
        raise CertificateError(
            f"slack decomposition failed for {target}: total {total_slack}, "
            f"certified {certified}, residual {residual_val}")
    if value > bound:
        raise CertificateError(f"{target} bound violated: {value} > {bound}")
    return NumericReport(target=target, bound=bound, value=value, total_slack=total_slack,
                         certified_slack=certified, residual_at_census=residual_val, rows=rows)
