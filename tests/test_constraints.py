import json
from fractions import Fraction

import pytest

from triplane.census import census
from triplane.cli import main
from triplane.constraints import (
    ROWS,
    ConstraintError,
    density_residual,
    evaluate_constraints,
)
from triplane.drawing import serialize_tdr
from triplane.generators import gen_basic, ingest_geometry
from triplane.geometry import parse_scene
from triplane.saturate import is_3saturated, saturate

import util


# Retyped from scratch as a guard against accidental edits to the library
# table: (id, relation, lhs, rhs, scope).
EXPECTED_ROWS = [
    ("2.A", "=", {"T_VQUAD_VTRI": 1, "T_VTRI_XPENT": 1, "T_LARGE_VTRI": 1},
     {"VTRI": 1}, "3-saturated"),
    ("2.B", "=", {"T_VQUAD_VTRI": 1, "T_VQUAD_VQUAD": 2, "T_VQUAD_XTRI": 1,
                  "T_VQUAD_XPENT": 1, "T_LARGE_VQUAD": 1},
     {"VQUAD": 2}, "3-saturated"),
    ("2.C", "=", {"T_VQUAD_XTRI": 1, "T_XPENT_XTRI": 1, "T_LARGE_XTRI": 1},
     {"XTRI": 3}, "3-saturated"),
    ("2.D", "=", {"T_XPENT_XTRI": 1, "T_VTRI_XPENT": 1, "T_VQUAD_XPENT": 1,
                  "T_XPENT_XPENT": 2, "T_LARGE_XPENT": 1},
     {"XPENT": 5}, "3-saturated"),
    ("3.A", "<=", {"T_XPENT_XTRI": 1}, {"CFG9": 1}, "3-saturated"),
    ("3.B", "<=", {"T_VQUAD_XPENT": 1}, {"CFG10": 1}, "3-saturated"),
    ("3.C", "<=", {"T_VQUAD_XTRI": 1}, {"CFG12": 1}, "3-saturated"),
    ("3.D", "<=", {"VTRI": 1}, {"CFG13": 1, "CFG14": 1}, "3-saturated"),
    ("3.E", "<=", {"T_VQUAD_VTRI": 2}, {"E1": 1, "CFG18": 2}, "3-saturated"),
    ("4.A", "<=", {"T_XPENT_XPENT": 2, "T_VTRI_XPENT": 1, "T_XPENT_XTRI": 1,
                   "XPENT": -4},
     {"CFG15": 1}, "3-saturated"),
    ("4.B", "<=", {"CFG15": 1}, {"CFG14": 1}, "3-saturated"),
    ("5.A", "<=", {"T_LARGE_VTRI": 1, "T_LARGE_VQUAD": 1, "T_LARGE_XTRI": 1,
                   "T_LARGE_XPENT": 1, "KITE": 5},
     {"large_size_sum": 1}, "3-saturated"),
    ("5.B", "<=", {"large_size_sum": 1, "E": 6, "X": 6, "XTRI": -12,
                   "XQUAD": -6, "VTRI": -6},
     {"Vm2": 30}, "3-saturated"),
    ("6", "<=", {"VTRI": 2, "VQUAD": 2, "VVTRI": 2, "KITE": 2}, {"Ex": 4}, "any-valid-drawing"),
    ("7", "<=", {"T_LARGE_VTRI": 1, "T_LARGE_VQUAD": 1, "T_LARGE_XTRI": 1,
                 "T_LARGE_XPENT": 1, "XTRI": 3, "VTRI": 1, "XQUAD": 4,
                 "VQUAD": 2, "XPENT": 5},
     {"E2": 2, "E3": 4}, "any-valid-drawing"),
    ("8.A", "=", {"E1": 1, "E2": 1, "E3": 1}, {"Ex": 1}, "any-valid-drawing"),
    ("8.B", "=", {"E1": 1, "E2": 2, "E3": 3}, {"X": 2}, "any-valid-drawing"),
    ("8.C", "<=", {"CFG18": 1, "CFG15": 2}, {"E2": 2}, "any-valid-drawing"),
    ("9.A", "=", {"Ex": 1, "E0": 1}, {"E": 1}, "any-valid-drawing"),
    ("9.B", "<=", {"VVTRI": 1, "KITE": 1}, {"E0": 2}, "any-valid-drawing"),
    ("9.C", "<=", {"CFG10": 1, "CFG9": 1, "CFG12": 1, "CFG13": 1, "CFG14": 2},
     {"VVTRI": 2}, "any-valid-drawing"),
]


def test_row_table_matches_expected():
    assert len(ROWS) == 21
    got = [(r.id, r.relation, dict(r.lhs), dict(r.rhs), r.scope) for r in ROWS]
    assert got == EXPECTED_ROWS


def test_row_coefficients_are_ints():
    # Integer coefficients times integer counts keep every row slack an
    # int, which the certificate's row contributions rely on.
    for row in ROWS:
        for coeff in (*row.lhs.values(), *row.rhs.values(), *row.form.values()):
            assert type(coeff) is int, (row.id, coeff)


def test_row_form_is_lhs_minus_rhs():
    for row in ROWS:
        for var in set(row.lhs) | set(row.rhs):
            assert row.form.get(var, 0) == row.lhs.get(var, 0) - row.rhs.get(var, 0)
        assert all(row.form.values())


def row_map(report):
    return {r.id: r for r in report.rows}


def test_k3_saturated_rows_all_pass():
    rep = census(gen_basic("k3"))
    out = evaluate_constraints(rep.counts, saturated=True)
    assert out.all_pass
    rows = row_map(out)
    assert all(r.applicable for r in out.rows)
    assert rows["5.B"].slack == 0  # 12 + 18 == 30 (n - 2), tight on a triangle
    assert rows["9.A"].slack == 0
    assert rows["8.B"].slack == 0


def test_flower_rows_pass_with_known_slacks():
    rep = census(gen_basic("fig4-flower"))
    out = evaluate_constraints(rep.counts, saturated=True)
    assert out.all_pass
    rows = row_map(out)
    assert rows["2.D"].slack == 0       # 5 trails == 5 XPENT
    assert rows["6"].slack == 0         # 2(5 + 5) == 4 * 5 crossed edges
    assert rows["5.B"].slack == 0       # 18 + 72 + 30 == 30 (n - 2)
    assert rows["4.B"].slack == 0       # CFG15 == CFG14 == 5
    assert rows["3.D"].slack == 0       # VTRI == CFG13 + CFG14


def test_scope_controls_applicability():
    rep = census(gen_basic("path3"))
    out = evaluate_constraints(rep.counts, saturated=False)
    rows = row_map(out)
    for rid in ("2.A", "2.B", "2.C", "2.D", "3.A", "3.B", "3.C", "3.D", "3.E",
                "4.A", "4.B", "5.A", "5.B"):
        assert not rows[rid].applicable
    for rid in ("6", "7", "8.A", "8.B", "8.C", "9.A", "9.B", "9.C"):
        assert rows[rid].applicable
    assert out.all_pass  # inapplicable rows do not count against the report


def test_crossing_degree_identity_failure_example():
    # One singly-crossed and two doubly-crossed edges require 2.5
    # crossings; counts claiming X = 2 violate the degree identity by 1.
    counts = {"E1": 1, "E2": 2, "E3": 0, "X": 2, "Ex": 3, "E": 3, "n": 4}
    out = evaluate_constraints(counts, saturated=False)
    rows = row_map(out)
    assert rows["8.B"].slack == -1
    assert not rows["8.B"].passed
    assert not out.all_pass


def test_row_results_serialize():
    rep = census(gen_basic("k3"))
    out = evaluate_constraints(rep.counts, saturated=True)
    d = out.as_dict()
    assert d["saturated"] is True
    assert d["all_pass"] is True
    first = d["rows"][0]
    assert set(first) == {"id", "relation", "lhs", "rhs", "slack", "pass",
                          "scope", "applicable"}


HEXAGON_SCENE = {
    "points": {
        "h0": ["5", "0"], "h1": ["3", "3"], "h2": ["-2", "3"],
        "h3": ["-4", "0"], "h4": ["-2", "-3"], "h5": ["2", "-3"],
    },
    "segments": [
        {"id": "b01", "ends": ["h0", "h1"]}, {"id": "b12", "ends": ["h1", "h2"]},
        {"id": "b23", "ends": ["h2", "h3"]}, {"id": "b34", "ends": ["h3", "h4"]},
        {"id": "b45", "ends": ["h4", "h5"]}, {"id": "b50", "ends": ["h5", "h0"]},
        {"id": "d03", "ends": ["h0", "h3"]}, {"id": "d14", "ends": ["h1", "h4"]},
        {"id": "d25", "ends": ["h2", "h5"]}, {"id": "t13", "ends": ["h1", "h3"]},
        {"id": "t35", "ends": ["h3", "h5"]}, {"id": "t15", "ends": ["h1", "h5"]},
    ],
}


def test_trail_pair_bound_violated_by_hexagon_witness():
    """Row 3.E as tabulated is falsifiable: this valid 6-vertex drawing
    saturates to a census with 2 * T_VQUAD_VTRI = 6 but E1 + 2 * CFG18 = 3.

    The drawing is a convex hexagon with three main diagonals and the
    three short diagonals of one alternating triangle.  Every other row
    passes on it; 3.E fails with slack -3 and the library reports that
    honestly rather than clamping it.
    """
    d = saturate(ingest_geometry(parse_scene(json.dumps(HEXAGON_SCENE))))
    assert is_3saturated(d)
    rep = census(d)
    assert rep.counts["T_VQUAD_VTRI"] == 3
    assert rep.counts["E1"] == 3
    assert rep.counts["CFG18"] == 0
    out = evaluate_constraints(rep.counts, saturated=True)
    rows = row_map(out)
    assert rows["3.E"].slack == -3
    assert not rows["3.E"].passed
    failing = [r.id for r in out.rows if r.applicable and not r.passed]
    assert failing == ["3.E"]


# ROADMAP item 2's 5-vertex witness of row 3.E: four straight segments.
FIVE_VERTEX_SCENE = {
    "points": {"v2": ["37", "-52"], "v3": ["-28", "-45"], "v5": ["-3", "0"],
               "v6": ["23", "-12"], "v7": ["40", "-34"]},
    "segments": [{"id": "v3v6", "ends": ["v3", "v6"]}, {"id": "v5v7", "ends": ["v5", "v7"]},
                 {"id": "v3v7", "ends": ["v3", "v7"]}, {"id": "v2v5", "ends": ["v2", "v5"]}],
}


def test_trail_pair_bound_violated_by_five_vertex_witness(tmp_path, capsys):
    """Row 3.E fails on a saturated 5-vertex drawing: 2 * T_VQUAD_VTRI = 4
    but E1 + 2 * CFG18 = 2, slack -2, and every other row passes; the CLI
    verdict on the unsaturated file says so with exit code 1."""
    d = saturate(ingest_geometry(parse_scene(json.dumps(FIVE_VERTEX_SCENE))))
    assert is_3saturated(d)
    counts = census(d).counts
    assert (counts["E"], counts["X"], counts["E1"]) == (11, 3, 2)
    assert (counts["CFG18"], counts["T_VQUAD_VTRI"]) == (0, 2)
    out = evaluate_constraints(counts, saturated=True)
    assert row_map(out)["3.E"].slack == -2
    assert [r.id for r in out.rows if r.applicable and not r.passed] == ["3.E"]

    p = tmp_path / "five.json"
    p.write_text(serialize_tdr(ingest_geometry(parse_scene(json.dumps(FIVE_VERTEX_SCENE)))))
    assert main(["check", "--saturate", str(p)]) == 1
    failing = [r["id"] for r in json.loads(capsys.readouterr().out)["rows"]
               if r["applicable"] and not r["pass"]]
    assert failing == ["3.E"]


def test_evaluate_constraints_needs_n():
    with pytest.raises(ConstraintError, match="^counts must include the vertex count n$"):
        evaluate_constraints({}, saturated=False)


def test_density_residual_zero_across_t():
    for d in (gen_basic("k2"), gen_basic("k3"), gen_basic("path3"), util.x1(),
              gen_basic("fig4-flower")):
        for t in (1, 2, 5, Fraction(7, 3)):
            assert density_residual(d, t) == 0


def test_density_residual_requires_edges():
    bare = gen_basic("k2")
    no_edges = type(bare)(["a", "b", "c"], [], {"a": [], "b": [], "c": []})
    with pytest.raises(ConstraintError):
        density_residual(no_edges, 2)


def test_density_residual_rejects_invalid_drawing():
    with pytest.raises(ConstraintError):
        density_residual(gen_basic("lens-bad"), 2)


def test_density_residual_names_the_failing_checks():
    with pytest.raises(ConstraintError, match="^drawing is not valid: non-homotopic$"):
        density_residual(gen_basic("lens-bad"), 2)


@pytest.mark.parametrize("t", [0.5, 2.0, True, "abc", "1/2"],
                         ids=["float", "whole-float", "bool", "str", "fraction-str"])
def test_density_residual_rejects_inexact_t(t):
    # Only an int or a Fraction reaches the exact arithmetic; Fraction() would take them all.
    with pytest.raises(ConstraintError, match=r"^density residual needs an int or a Fraction t, not "):
        density_residual(gen_basic("k2"), t)


def test_density_residual_takes_int_and_fraction_t():
    k2 = gen_basic("k2")
    assert density_residual(k2, 3) == density_residual(k2, Fraction(1, 2)) == 0
