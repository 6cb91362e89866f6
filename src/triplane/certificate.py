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
from typing import Dict, Mapping, Optional, Tuple

from .census import census
from .constraints import ROWS, _form_value, _valuation
from .drawing import Drawing

LinearForm = Dict[str, Fraction]

TARGETS = ("edges", "crossings")


class CertificateError(ValueError):
    """An invalid certificate or a failed exact identity."""


@dataclass(frozen=True)
class Certificate:
    target: str
    coefficients: Mapping[str, Fraction]


def _F(a: int, b: int) -> Fraction:
    return Fraction(a, b)


_EDGE_COEFFS: Dict[str, Fraction] = {
    "2.A": _F(-5, 16), "2.B": _F(5, 16), "2.C": _F(-11, 24), "2.D": _F(1, 8),
    "3.A": _F(7, 48), "3.B": _F(0, 1), "3.C": _F(3, 16), "3.D": _F(3, 16),
    "3.E": _F(0, 1), "4.A": _F(3, 16), "4.B": _F(3, 16),
    "5.A": _F(11, 60), "5.B": _F(11, 60), "6": _F(13, 80), "7": _F(11, 40),
    "8.A": _F(-11, 20), "8.B": _F(11, 20), "8.C": _F(0, 1),
    "9.A": _F(1, 10), "9.B": _F(1, 20), "9.C": _F(3, 16),
}

_CROSSING_COEFFS: Dict[str, Fraction] = {
    "2.A": _F(-7, 16), "2.B": _F(5, 16), "2.C": _F(-11, 24), "2.D": _F(-3, 8),
    "3.A": _F(1, 48), "3.B": _F(1, 16), "3.C": _F(7, 48), "3.D": _F(5, 16),
    "3.E": _F(1, 16), "4.A": _F(13, 16), "4.B": _F(5, 16),
    "5.A": _F(11, 60), "5.B": _F(11, 60), "6": _F(3, 80), "7": _F(11, 40),
    "8.A": _F(19, 20), "8.B": _F(1, 20), "8.C": _F(1, 4),
    "9.A": _F(11, 10), "9.B": _F(11, 20), "9.C": _F(5, 16),
}


def builtin_certificate(target: str) -> Certificate:
    if target == "edges":
        return Certificate("edges", dict(_EDGE_COEFFS))
    if target == "crossings":
        return Certificate("crossings", dict(_CROSSING_COEFFS))
    raise CertificateError(f"unknown certificate target {target!r}")


def _target_variable(target: str) -> str:
    if target == "edges":
        return "E"
    if target == "crossings":
        return "X"
    raise CertificateError(f"unknown certificate target {target!r}")


def target_form(target: str) -> LinearForm:
    """The form the certificate must reproduce: value minus 11/2 (|V|-2)."""
    return {_target_variable(target): Fraction(1), "Vm2": Fraction(-11, 2)}


def row_forms() -> Dict[str, Tuple[LinearForm, str]]:
    """Per row id: (lhs - rhs as a sparse form, relation)."""
    out: Dict[str, Tuple[LinearForm, str]] = {}
    for row in ROWS:
        form: LinearForm = {}
        for v, c in row.lhs.items():
            form[v] = form.get(v, Fraction(0)) + c
        for v, c in row.rhs.items():
            form[v] = form.get(v, Fraction(0)) - c
        out[row.id] = ({v: c for v, c in form.items() if c}, row.relation)
    return out


def _check_signs(cert: Certificate) -> None:
    forms = row_forms()
    for row_id, (_, relation) in forms.items():
        if row_id not in cert.coefficients:
            raise CertificateError(f"certificate is missing a coefficient for row {row_id}")
        if relation == "<=" and cert.coefficients[row_id] < 0:
            raise CertificateError(
                f"invalid certificate: negative coefficient {cert.coefficients[row_id]} "
                f"on inequality row {row_id}")
    for row_id in cert.coefficients:
        if row_id not in forms:
            raise CertificateError(f"certificate names unknown row {row_id!r}")


def verify_symbolic(certificate: Certificate) -> LinearForm:
    """Sum coefficient * (lhs - rhs) over all rows, minus the target form.

    Returns the sparse residual; an empty map means the certificate
    telescopes exactly to the claimed bound.
    """
    _check_signs(certificate)
    total: LinearForm = {}
    for row_id, (form, _) in row_forms().items():
        coeff = certificate.coefficients[row_id]
        if not coeff:
            continue
        for v, c in form.items():
            total[v] = total.get(v, Fraction(0)) + coeff * c
    for v, c in target_form(certificate.target).items():
        total[v] = total.get(v, Fraction(0)) - c
    return {v: c for v, c in sorted(total.items()) if c}


@dataclass(frozen=True)
class RowContribution:
    id: str
    coeff: Fraction
    slack: int
    contribution: Fraction

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "coeff": _frac_str(self.coeff),
            "slack": self.slack,
            "contribution": _frac_str(self.contribution),
        }


@dataclass(frozen=True)
class NumericReport:
    target: str
    bound: Fraction
    value: int
    total_slack: Fraction
    certified_slack: Fraction
    residual_at_census: Fraction
    rows: Tuple[RowContribution, ...]

    def as_dict(self) -> dict:
        return {
            "target": self.target,
            "bound": _frac_str(self.bound),
            "value": self.value,
            "total_slack": _frac_str(self.total_slack),
            "certified_slack": _frac_str(self.certified_slack),
            "residual_at_census": _frac_str(self.residual_at_census),
            "rows": [r.as_dict() for r in self.rows],
        }


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def verify_numeric(
    drawing: Drawing,
    certificates: Optional[Mapping[str, Certificate]] = None,
) -> Dict[str, NumericReport]:
    """Evaluate both certificates on a 3-saturated drawing, exactly.

    For each target: bound = 11/2 (n-2), total_slack = bound - value, and
    the decomposition total_slack = sum(coeff * row_slack) + (symbolic
    residual evaluated on the census) is asserted exactly, as is
    value <= bound.  Equality rows must have zero slack (anything else
    means the census itself is broken); inequality rows may carry negative
    slack, which the report surfaces rather than hides.
    """
    from .saturate import is_3saturated

    if not is_3saturated(drawing):
        raise CertificateError(
            "certificate evaluation needs a 3-saturated drawing; "
            "run saturate first (CLI: --saturate)")

    rep = census(drawing, strict=True)
    val = _valuation(rep.counts)
    forms = row_forms()
    # Extra sanity refinement: large cells exceed size 5 by at least a sixth
    # of their total size.
    large_excess = sum(
        r.size - 5 for r in rep.cells if rep.cell_types[r.cell_id] in ("LARGE", "KITE"))
    if 6 * large_excess < rep.counts["large_size_sum"]:
        raise CertificateError("large-cell size refinement failed on this census")

    if certificates is None:
        certificates = {t: builtin_certificate(t) for t in TARGETS}

    out: Dict[str, NumericReport] = {}
    for target, cert in certificates.items():
        _check_signs(cert)
        bound = Fraction(11, 2) * (val["n"] - 2)
        value = val[_target_variable(target)]
        total_slack = bound - value
        rows = []
        certified = Fraction(0)
        for row_id, (form, relation) in forms.items():
            # row slack is rhs - lhs = -(lhs - rhs); integral since every
            # row has integer coefficients
            slack_q = -_form_value(form, val)
            if slack_q.denominator != 1:
                raise CertificateError(f"row {row_id} slack {slack_q} is not integral")
            slack = int(slack_q)
            if relation == "=" and slack != 0:
                raise CertificateError(f"equality row {row_id} has nonzero slack {slack}")
            coeff = cert.coefficients[row_id]
            contribution = coeff * slack
            certified += contribution
            rows.append(RowContribution(row_id, coeff, slack, contribution))
        residual_val = sum(
            (c * val[v] for v, c in verify_symbolic(cert).items()), Fraction(0))
        if total_slack != certified + residual_val:
            raise CertificateError(
                f"slack decomposition failed for {target}: total {total_slack}, "
                f"certified {certified}, residual {residual_val}")
        if value > bound:
            raise CertificateError(f"{target} bound violated: {value} > {bound}")
        out[target] = NumericReport(
            target=target,
            bound=bound,
            value=value,
            total_slack=total_slack,
            certified_slack=certified,
            residual_at_census=residual_val,
            rows=tuple(rows),
        )
    return out
