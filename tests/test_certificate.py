import dataclasses
from fractions import Fraction

import pytest

from triplane import certificate

from triplane.census import census
from triplane.cli import main
from triplane.constraints import ROWS, evaluate_constraints
from triplane.certificate import (
    Certificate,
    CertificateError,
    builtin_certificate,
    target_form,
    verify_numeric,
    verify_symbolic,
)
from triplane.drawing import serialize_tdr
from triplane.generators import gen_basic, gen_fig3
from triplane.saturate import saturate

import util


def oracle_residual(cert):
    """From-scratch summation: sum coeff * (lhs - rhs) minus the target."""
    total = {}
    for row in ROWS:
        c = cert.coefficients[row.id]
        for var, coeff in row.form.items():
            total[var] = total.get(var, Fraction(0)) + c * coeff
    for var, coeff in target_form(cert.target).items():
        total[var] = total.get(var, Fraction(0)) - coeff
    return {v: c for v, c in total.items() if c}


def test_builtin_certificates_have_valid_signs():
    for target in ("edges", "crossings"):
        cert = builtin_certificate(target)
        assert set(cert.coefficients) == {row.id for row in ROWS}
        for row in ROWS:
            if row.relation == "<=":
                assert cert.coefficients[row.id] >= 0


def test_symbolic_residual_matches_independent_summation():
    for target in ("edges", "crossings"):
        cert = builtin_certificate(target)
        assert verify_symbolic(cert) == oracle_residual(cert)


EDGES_RESIDUAL = {
    "CFG10": Fraction(3, 16), "CFG9": Fraction(1, 24), "KITE": Fraction(31, 24),
    "T_LARGE_VQUAD": Fraction(37, 48), "T_LARGE_VTRI": Fraction(7, 48),
    "T_LARGE_XPENT": Fraction(7, 12), "T_VQUAD_VQUAD": Fraction(5, 8),
    "T_VQUAD_XPENT": Fraction(7, 16), "T_VQUAD_XTRI": Fraction(1, 24),
    "T_XPENT_XPENT": Fraction(5, 8), "VQUAD": Fraction(1, 4),
}

CROSSINGS_RESIDUAL = {
    "CFG10": Fraction(1, 4), "CFG12": Fraction(1, 6), "CFG18": Fraction(1, 8),
    "CFG9": Fraction(7, 24), "E1": Fraction(15, 16), "KITE": Fraction(37, 24),
    "T_LARGE_VQUAD": Fraction(37, 48), "T_LARGE_VTRI": Fraction(1, 48),
    "T_LARGE_XPENT": Fraction(1, 12), "T_VQUAD_VQUAD": Fraction(5, 8),
    "T_XPENT_XPENT": Fraction(7, 8),
}


def test_builtin_residuals_are_pinned():
    # The builtin columns do not cancel exactly; the leftovers are
    # nonnegative combinations of census counts, so the bounds they
    # certify still hold.  Pin the exact leftovers.
    assert verify_symbolic(builtin_certificate("edges")) == EDGES_RESIDUAL
    assert verify_symbolic(builtin_certificate("crossings")) == CROSSINGS_RESIDUAL


def test_residuals_only_charge_nonnegative_counts():
    for target in ("edges", "crossings"):
        residual = verify_symbolic(builtin_certificate(target))
        assert all(coeff > 0 for coeff in residual.values())
        assert not any(var in ("E", "X", "n", "Vm2") for var in residual)


def test_perturbing_a_coefficient_shifts_residual_linearly():
    cert = builtin_certificate("edges")
    eps = Fraction(1, 20)
    bumped = dict(cert.coefficients)
    bumped["8.B"] += eps
    shifted = verify_symbolic(Certificate("edges", bumped))
    base = verify_symbolic(cert)
    form = next(row.form for row in ROWS if row.id == "8.B")
    expect = dict(base)
    for var, coeff in form.items():
        expect[var] = expect.get(var, Fraction(0)) + eps * coeff
    expect = {v: c for v, c in expect.items() if c}
    assert shifted == expect
    assert "E1" in shifted  # the perturbation leaks the crossing-degree row


def test_certificate_validation_errors():
    with pytest.raises(CertificateError):
        builtin_certificate("faces")
    cert = builtin_certificate("edges")
    dropped = dict(cert.coefficients)
    del dropped["3.A"]
    with pytest.raises(CertificateError):
        verify_symbolic(Certificate("edges", dropped))
    negative = dict(cert.coefficients)
    negative["3.A"] = Fraction(-1, 2)
    with pytest.raises(CertificateError):
        verify_symbolic(Certificate("edges", negative))
    unknown = dict(cert.coefficients)
    unknown["99.Z"] = Fraction(1)
    with pytest.raises(CertificateError):
        verify_symbolic(Certificate("edges", unknown))


# Any coefficient that is not exact would leak floats into the residual
# and break the report's "p/q" strings.
@pytest.mark.parametrize("coeff", [0.5, True, "1/2"], ids=["float", "bool", "str"])
def test_inexact_coefficient_is_rejected(coeff):
    coefficients = dict(builtin_certificate("edges").coefficients)
    coefficients["3.A"] = coeff
    cert = Certificate("edges", coefficients)
    with pytest.raises(CertificateError, match="not an int or a Fraction"):
        verify_symbolic(cert)
    with pytest.raises(CertificateError, match="not an int or a Fraction"):
        verify_numeric(gen_fig3(1), cert)


def test_integer_coefficients_are_accepted():
    coefficients = dict(builtin_certificate("edges").coefficients)
    coefficients["8.C"] = 1
    residual = verify_symbolic(Certificate("edges", coefficients))
    assert all(type(c) is Fraction for c in residual.values())


def test_numeric_report_on_small_saturated_drawing():
    d = saturate(util.x1())
    out = verify_numeric(d, builtin_certificate("crossings"))
    assert out.target == "crossings"
    assert out.value == 1
    assert out.bound == Fraction(11)          # 5.5 * (4 - 2)
    assert out.total_slack == Fraction(10)
    assert out.certified_slack == Fraction(65, 8)
    assert out.residual_at_census == Fraction(15, 8)
    assert out.total_slack == out.certified_slack + out.residual_at_census

    out = verify_numeric(d, builtin_certificate("edges"))
    assert out.value == 7
    assert out.bound == Fraction(11)
    assert out.total_slack == Fraction(4)
    assert out.total_slack == out.certified_slack + out.residual_at_census


def test_numeric_report_row_contributions_decompose():
    d = saturate(util.x1())
    out = verify_numeric(d, builtin_certificate("crossings"))
    assert sum(r.contribution for r in out.rows) == out.certified_slack
    rep = census(d)
    residual = verify_symbolic(builtin_certificate("crossings"))
    val = dict(rep.counts)
    val["Vm2"] = rep.counts["n"] - 2
    assert out.residual_at_census == sum(
        coeff * val.get(var, 0) for var, coeff in residual.items())


def test_numeric_tightness_family_slacks():
    for layers in (1, 2):
        d = gen_fig3(layers)
        assert verify_numeric(d, builtin_certificate("crossings")).total_slack == Fraction(10)
        assert verify_numeric(d, builtin_certificate("edges")).total_slack == Fraction(4)


def test_numeric_requires_saturation():
    with pytest.raises(CertificateError, match=r"; run saturate first \(CLI: --saturate\)$"):
        verify_numeric(util.x1(), builtin_certificate("edges"))


def test_numeric_rejects_tiny_drawings():
    # Saturation cannot add vertices, so the refusal gives no saturation advice.
    with pytest.raises(CertificateError, match="at least 3 vertices") as exc:
        verify_numeric(gen_basic("k2"), builtin_certificate("edges"))
    assert "--saturate" not in str(exc.value)


def test_numeric_refuses_invalid_drawing_by_its_checks():
    with pytest.raises(CertificateError, match="^drawing is not valid: non-homotopic$"):
        verify_numeric(gen_basic("lens-bad"), builtin_certificate("edges"))


def test_numeric_report_serializes_fractions_as_strings():
    out = verify_numeric(saturate(util.x1()), builtin_certificate("crossings"))
    d = out.as_dict()
    assert d["total_slack"] == "10/1"
    assert d["certified_slack"] == "65/8"
    assert d["residual_at_census"] == "15/8"
    assert all(isinstance(r["coeff"], str) for r in d["rows"])
    assert all(isinstance(r["slack"], int) for r in d["rows"])


def test_int_coefficient_is_written_as_a_rational():
    cert = builtin_certificate("edges")
    cert.coefficients["8.C"] = 1
    out = verify_numeric(saturate(gen_fig3(1)), cert)
    row = next(r for r in out.rows if r.id == "8.C")
    assert type(row.coeff) is Fraction and type(row.contribution) is Fraction
    written = next(r for r in out.as_dict()["rows"] if r["id"] == "8.C")
    assert written == {"id": "8.C", "coeff": "1/1", "slack": row.slack, "contribution": f"{row.slack}/1"}


def test_residual_follows_a_mutated_coefficient_dict():
    # The residual is kept per target and coefficients, so changing the
    # dict a certificate holds gives that dict's residual, never a stale one.
    coefficients = dict(builtin_certificate("edges").coefficients)
    base = coefficients["8.B"]
    cert = Certificate("edges", coefficients)
    assert verify_symbolic(cert) == oracle_residual(cert)
    for eps in (Fraction(1, 20), Fraction(1, 7), Fraction(0)):
        coefficients["8.B"] = base + eps
        assert verify_symbolic(cert) == oracle_residual(cert)
    residual = verify_symbolic(cert)
    residual["E"] = Fraction(99)  # the caller's copy; the kept residual is untouched
    assert verify_symbolic(cert) == oracle_residual(cert)


def test_bad_column_raises_on_every_call():
    coefficients = dict(builtin_certificate("edges").coefficients)
    cert = Certificate("edges", coefficients)
    verify_symbolic(cert)
    coefficients["3.A"] = Fraction(-1, 2)
    for _ in range(3):
        with pytest.raises(CertificateError, match="negative coefficient"):
            verify_symbolic(cert)
        with pytest.raises(CertificateError, match="negative coefficient"):
            verify_numeric(gen_fig3(1), cert)
    coefficients["3.A"] = builtin_certificate("edges").coefficients["3.A"]
    assert verify_symbolic(cert) == oracle_residual(cert)


def _recounted(**changes):
    """``census`` with ``changes`` added to its counts."""
    def patched(drawing):
        rep = census(drawing)
        return dataclasses.replace(rep, counts={k: v + changes.get(k, 0) for k, v in rep.counts.items()})
    return patched


def _reslacked(row_id, slack, passed):
    """``evaluate_constraints`` with row ``row_id`` given ``slack`` and ``passed``."""
    def patched(counts, saturated):
        report = evaluate_constraints(counts, saturated)
        rows = tuple(dataclasses.replace(r, slack=slack, passed=passed) if r.id == row_id else r
                     for r in report.rows)
        return dataclasses.replace(report, rows=rows)
    return patched


# The refusals past the census that no drawing's census reaches, each made
# by a doctored census or row report on k3: its two LARGE cells made to
# sum to 5 each, a broken equality row, a row slack the certificate cannot
# account for, and 10 more edges (uncrossed, so rows 8.A, 8.B and 9.A hold).
@pytest.mark.parametrize("name,patched,message", [
    ("census", _recounted(large_size_sum=-2), "large-cell size refinement failed on this census"),
    ("evaluate_constraints", _reslacked("2.A", 1, False), "equality row 2.A has nonzero slack 1"),
    ("evaluate_constraints", _reslacked("3.A", 48, True),
     "slack decomposition failed for edges: total 5/2, certified 19/2, residual 0"),
    ("census", _recounted(E=10, E0=10), "edges bound violated: 13 > 11/2"),
], ids=["large-cells", "equality-row", "decomposition", "bound"])
def test_numeric_refusals_past_the_census(monkeypatch, capsys, tmp_path, name, patched, message):
    d = gen_basic("k3")
    monkeypatch.setattr(certificate, name, patched)
    with pytest.raises(CertificateError) as exc:
        verify_numeric(d, builtin_certificate("edges"))
    assert str(exc.value) == message
    path = tmp_path / "k3.json"
    path.write_text(serialize_tdr(d))
    assert main(["certify", str(path), "--target", "edges"]) == 1
    assert capsys.readouterr() == ("", message + "\n")
