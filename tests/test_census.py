import hashlib
import json
from collections import Counter

import pytest

from triplane.census import (
    CensusError,
    Configuration,
    Trail,
    WitnessError,
    _classified,
    _trails,
    cells,
    census,
    classify_cell,
    detect_configurations,
    extract_trails,
    tkey,
    trail_counts,
)
from triplane.certificate import CertificateError, builtin_certificate, verify_numeric
from triplane.combmap import Rotations
from triplane.constraints import ConstraintError, density_residual
from triplane.drawing import Drawing, EdgeRecord, validate
from triplane.generators import gen_basic, gen_fig2, gen_fig3, ingest_geometry, random_drawing
from triplane.geometry import parse_scene
from triplane.saturate import SaturateError, is_3saturated, saturate

import util
from test_acceptance import BASIC_VALID, CORPUS_NAMES, corpus_drawing
from test_cli import VERDICT_CORPUS


def scene_drawing(points, segments):
    return ingest_geometry(parse_scene(json.dumps({
        "points": points,
        "segments": [{"id": sid, "ends": list(ends)} for sid, ends in segments],
    })))


def capped_triangle():
    """Triangle a-b-c with a chord d-e cutting off the apex a.

    Hand census: one VTRI at the apex (a, two crossings), one KITE below
    the chord (b, c, two adjacent crossings), two VVTRI pockets outside,
    and the unbounded LARGE cell; exactly one trail, VTRI--KITE, whose
    interior segment is the chord's middle part and whose bounding edges
    are the two crossed triangle sides.
    """
    return scene_drawing(
        {"a": ["0", "4"], "b": ["-3", "0"], "c": ["3", "0"],
         "d": ["-4", "3"], "e": ["4", "3"]},
        [("ab", ("a", "b")), ("bc", ("b", "c")), ("ca", ("c", "a")),
         ("de", ("d", "e")), ("db", ("d", "b")), ("ec", ("e", "c"))],
    )


def ladder():
    """Two horizontal walls crossed by three vertical rungs, boxed in.

    Hand census: six KITEs (left, right, two top, two bottom), two inner
    XQUADs, two VVTRI pockets at the tied-off corners, one unbounded
    LARGE cell; three trails, each KITE-to-KITE: one horizontal through
    both XQUADs (interior segments: the three rung middles, bounding
    edges: the walls) and two vertical through one XQUAD each (interior
    segments: one wall middle each, bounding edges: consecutive rungs).
    """
    return scene_drawing(
        {"L1": ["-5", "1"], "R1": ["5", "1"], "L2": ["-5", "-1"], "R2": ["5", "-1"],
         "T1": ["-2", "3"], "T2": ["0", "3"], "T3": ["2", "3"],
         "B1": ["-2", "-3"], "B2": ["0", "-3"], "B3": ["2", "-3"]},
        [("w1", ("L1", "R1")), ("w2", ("L2", "R2")),
         ("r1", ("T1", "B1")), ("r2", ("T2", "B2")), ("r3", ("T3", "B3")),
         ("pl", ("L1", "L2")), ("pr", ("R1", "R2")),
         ("t12", ("T1", "T2")), ("t23", ("T2", "T3")),
         ("b12", ("B1", "B2")), ("b23", ("B2", "B3")),
         ("dl", ("L1", "T1")), ("dr", ("R1", "T3"))],
    )


def type_counts(rep):
    return {k: rep.counts[k] for k in
            ("XTRI", "XQUAD", "VTRI", "VQUAD", "XPENT", "VVTRI", "KITE", "LARGE", "OTHER")}


def test_k2_single_cell():
    rep = census(gen_basic("k2"))
    assert rep.counts["cells"] == 1
    (rec,) = rep.cells
    assert rec.size == 4
    assert rec.vertex_incidences == 2
    assert rec.segment_incidences == 2
    assert rec.crossing_incidences == 0
    assert rep.cell_types[rec.cell_id] == "OTHER"


def test_k3_two_hexagonal_cells():
    rep = census(gen_basic("k3"))
    assert rep.counts["cells"] == 2
    for rec in rep.cells:
        assert rec.size == 6
        assert rec.vertex_incidences == 3
        assert rep.cell_types[rec.cell_id] == "LARGE"
    assert rep.counts["LARGE"] == 2
    assert rep.counts["large_size_sum"] == 12
    assert rep.trails == ()


def test_capped_triangle_cells():
    d = capped_triangle()
    rep = census(d)
    assert rep.counts["cells"] == 5
    assert type_counts(rep) == {
        "XTRI": 0, "XQUAD": 0, "VTRI": 1, "VQUAD": 0, "XPENT": 0,
        "VVTRI": 2, "KITE": 1, "LARGE": 2, "OTHER": 0}
    assert rep.counts["large_size_sum"] == 6 + 12  # the kite plus the outer cell
    assert rep.counts["E0"] == 3 and rep.counts["E1"] == 2 and rep.counts["E2"] == 1
    assert sum(r.size for r in rep.cells) == 4 * (rep.counts["E"] + rep.counts["X"])


def test_capped_triangle_trail():
    rep = census(capped_triangle())
    assert len(rep.trails) == 1
    (t,) = rep.trails
    assert t.endpoint_types == ("LARGE", "VTRI")  # the kite reports as LARGE
    assert len(t.cells) == 2
    assert t.interior_segments == (("de", 1),)
    assert t.bounding_edges == ("ab", "ca")
    assert rep.counts[tkey("VTRI", "LARGE")] == 1


def test_ladder_cells():
    rep = census(ladder())
    assert rep.counts["cells"] == 11
    assert type_counts(rep) == {
        "XTRI": 0, "XQUAD": 2, "VTRI": 0, "VQUAD": 0, "XPENT": 0,
        "VVTRI": 2, "KITE": 6, "LARGE": 7, "OTHER": 0}
    assert rep.counts["E"] == 13 and rep.counts["X"] == 6
    assert rep.counts["E2"] == 3 and rep.counts["E3"] == 2
    assert rep.counts["large_size_sum"] == 6 * 6 + 22


def test_large_cell_with_apart_crossings_is_not_a_kite():
    # Edges a, b cross above v1-v2 and c, d below it. Cell c1 has two
    # vertices and two crossings, but they alternate round its walk: no
    # segment of it has two crossing ends, so it is LARGE, not a KITE.
    rep = census(scene_drawing(
        {"v1": ["0", "0"], "v2": ["2", "0"], "a2": ["2", "2"], "b1": ["0", "2"],
         "c2": ["0", "-2"], "d1": ["2", "-2"]},
        [("a", ("v1", "a2")), ("b", ("b1", "v2")), ("c", ("v2", "c2")), ("d", ("d1", "v1"))]))
    rec = rep.cells[1]
    assert [dart[:2] for dart in rec.walk] == [("a", 0), ("b", 1), ("c", 0), ("d", 1)]
    assert (rec.cell_id, rec.vertex_incidences, rec.crossing_incidences, rec.degenerate) == ("c1", 2, 2, False)
    assert rep.cell_types["c1"] == "LARGE" and rep.counts["KITE"] == 0


def test_ladder_trails():
    rep = census(ladder())
    assert len(rep.trails) == 3
    assert rep.counts["T_LARGE_LARGE"] == 3
    by_walls = {t.bounding_edges: t for t in rep.trails}
    assert set(by_walls) == {("w1", "w2"), ("r1", "r2"), ("r2", "r3")}
    horizontal = by_walls[("w1", "w2")]
    assert len(horizontal.cells) == 4  # kite, xquad, xquad, kite
    assert set(horizontal.interior_segments) == {("r1", 1), ("r2", 1), ("r3", 1)}
    for rungs in (("r1", "r2"), ("r2", "r3")):
        vertical = by_walls[rungs]
        assert len(vertical.cells) == 3
        assert {e for e, _ in vertical.interior_segments} == {"w1", "w2"}


def test_interior_segments_partition_inner_segments():
    for d in (capped_triangle(), ladder(), gen_basic("fig3a-micro")):
        rep = census(d)
        seen = [s for t in rep.trails for s in t.interior_segments]
        assert len(seen) == len(set(seen))
        inner = {(e.id, i)
                 for e in d.edges.values()
                 for i in range(1, len(e.crossings))}
        assert set(seen) == inner


def test_a_two_cell_trail_may_have_one_edge_as_both_walls():
    # e crosses w at x1 and x2, and h crosses w at y, between them: the
    # segment e:1 joins x1 to x2, and the other edge at each of its ends is
    # w, so its LARGE-LARGE trail has w as both walls (a sorted multiset).
    def dart(name):
        return (name[0], int(name[1]), {"f": "fwd", "b": "bwd"}[name[2]])

    rotations = {"x1": "e1f w0b e0b w1f", "x2": "e2f w3f e1b w2b", "y": "w2f h0b w1b h1f",
                 "u": "e0f", "v": "e2b", "a": "w0f", "b": "w3b", "c": "h0f", "d": "h1b"}
    d = Drawing("uvabcd", [EdgeRecord("e", ("u", "v"), ("x1", "x2")), EdgeRecord("w", ("a", "b"), ("x1", "y", "x2")),
                           EdgeRecord("h", ("c", "d"), ("y",))],
                {node: [dart(name) for name in darts.split()] for node, darts in rotations.items()})
    assert validate(d).valid
    assert [t for t in census(d).trails if ("e", 1) in t.interior_segments] == [
        Trail(("c1", "c0"), (("e", 1),), ("LARGE", "LARGE"), ("w", "w"))]


# The census trusts its cell types and reads every trail's walls off the
# segment it was found from; these are the facts that make both sound, each
# checked on every instance of a corpus of valid drawings, with the instance
# counts pinned so that no check passes on an empty set.
def test_the_facts_the_census_trusts_hold_on_valid_drawings():
    drawings = ([gen_fig3(layers) for layers in (1, 2, 3)] + [gen_fig2(rings) for rings in (1, 2, 3)]
                + [gen_basic(name) for name in BASIC_VALID]
                + [saturate(random_drawing(10, 30, seed)) for seed in range(50)])
    tally = Counter()
    for d in drawings:
        _, _, at, kinds = _classified(d)
        cmap = d.planarize()
        walks, succ, decode = cmap.walks(), cmap.succ, cmap.decode
        trails = _trails(d)
        xpent_ends = {(ks[j], interior[j]) for ks, interior, pair, _ in trails if "XPENT" in pair for j in (0, -1)}
        for k, kind in enumerate(kinds):
            walk = walks[k]
            inner = [i for i in walk if not (at[i] or at[i ^ 1])]  # the sides whose two ends are crossings
            if kind in ("XQUAD", "VQUAD", "XPENT"):
                assert len(walk) == (5 if kind == "XPENT" else 4), (k, kind)
            if kind == "VTRI":
                assert len(inner) == 1, k
            if kind in ("XQUAD", "XPENT"):
                assert inner == list(walk), (k, kind)
            if kind == "XPENT":
                assert all((k, i & -2) in xpent_ends for i in walk), k
            tally[kind] += 1
        for ks, interior, _, walls in trails:
            if len(ks) > 2:  # marched through an XQUAD
                assert walls[0] != walls[1], ks
                for b in interior:
                    assert tuple(sorted((decode[succ[b + 1]][0], decode[succ[b]][0]))) == walls, (ks, b)
                tally["marched"] += 1
        for kind, _, _, edge in detect_configurations(d, trails):
            if kind == "CFG15":
                assert len(d.edges[edge].crossings) == 2, edge
                tally[kind] += 1
    assert {k: tally[k] for k in ("XQUAD", "VQUAD", "XPENT", "VTRI", "marched", "CFG15")} == {
        "XQUAD": 100, "VQUAD": 162, "XPENT": 101, "VTRI": 789, "marched": 192, "CFG15": 239}


def test_cells_and_classify_cell_stay_off_the_package():
    # Both type the cells of any drawing, valid or not, so only triplane.census
    # offers them; the package exports the verdicts, which refuse an invalid one.
    import triplane
    for name in ("cells", "classify_cell"):
        assert name not in triplane.__all__ and not hasattr(triplane, name), name


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_named_api_matches_the_census(name):
    # classify_cell and extract_trails are the named entry points; the census
    # reads the cell table and numbered trails directly, so nothing else runs them
    d = corpus_drawing(name)
    rep = census(d)
    assert {r.cell_id: classify_cell(d, r) for r in cells(d)} == rep.cell_types
    assert extract_trails(d) == rep.trails


# The march's iteration bound, the strict lemmas' refusals and a CFG13 choice
# between two VVTRIs are unreachable on a drawing whose cells carry their own
# types, so these tests force the classification: they retype chosen cells in
# the drawing's kept cell table (its last field is the list of cell types by
# index) before the census reads it.  The census trusts a cell's type for the
# shape of its walk, so forcing reaches only the lemmas and the march bound.
def _forced(drawing, kind, *cell_indices):
    kinds = _classified(drawing)[-1]
    for k in cell_indices:
        kinds[k] = kind
    return drawing


def test_corridor_closed_on_itself_does_not_terminate():
    # Five segments, two XQUADs (c1, c2) and the outer cell c0; with c0
    # forced to XQUAD the march from the first inner segment goes round
    # c0, c1, c2 and back without meeting another cell type.
    d = scene_drawing(
        {"a1": ["-16", "5"], "b1": ["-1", "14"], "a2": ["-13", "7"], "b2": ["9", "-19"],
         "a3": ["-4", "19"], "b3": ["3", "-6"], "a4": ["5", "-20"], "b4": ["-12", "15"],
         "a5": ["10", "19"], "b5": ["-17", "1"]},
        [(f"s{i}", (f"a{i}", f"b{i}")) for i in range(1, 6)])
    assert _classified(d)[-1][1:3] == ["XQUAD", "XQUAD"]
    with pytest.raises(CensusError, match=r"^trail corridor does not terminate$"):
        census(_forced(d, "XQUAD", 0))


def test_cfg13_takes_the_first_vvtri_in_cell_id_order():
    # fig3 L=1: the VTRI c9, on a thrice-crossed edge, has the VVTRI c8
    # across one outer side and the VTRI c10 across the other. With c10
    # forced to VVTRI, CFG13 takes c10, first in cell id order ("c10" <
    # "c8"), though c8 comes first by index.
    d = gen_fig3(1)
    assert _classified(d)[-1][8:11] == ["VVTRI", "VTRI", "VTRI"]
    cfgs = census(_forced(d, "VVTRI", 10)).configurations
    assert [c for c in cfgs if c.kind == "CFG13" and "c9" in c.cells] == [
        Configuration("CFG13", ("c10", "c9"), (("g1p0n6", 3),))]


def _with_pendant(drawing, k):
    """``drawing`` with a new vertex joined, inside cell ``c{k}``, to the first vertex on its walk.

    The new edge is uncrossed and its darts sort after every other, so no
    other cell changes or moves; but the new vertex is joined to no other
    vertex of ``c{k}``, so the drawing is valid and no longer 3-saturated.
    """
    cmap = drawing.planarize()
    walk = cmap.walks()[k]
    j = next(j for j, i in enumerate(walk) if cmap.tail[i] in drawing.vertices)
    rot = Rotations.from_map(cmap)
    bwd = rot.new_segments([("~", 0)])
    rot.splice(walk[j - 1], [bwd + 1])
    rot.update({"~v": (bwd,)})
    edges = [*drawing.edges.values(), EdgeRecord("~", (cmap.tail[walk[j]], "~v"), ())]
    out = Drawing((*drawing.vertices, "~v"), edges, rot.lists)
    assert validate(out).valid and not is_3saturated(out)
    return out


# The strict refusals that a retyped cell reaches on a 3-saturated drawing,
# each with the forcing that reaches it: (drawing, forced (cell, type)
# pairs, the cell the unsaturated copy grows a pendant edge in, the text).
_STRICT_REFUSALS = {
    "cfg18-walls": (lambda: gen_fig3(1), ((3, "VQUAD"),), 0,
                    r"c3\+c7\+c9: VTRI-VQUAD trail of length 3 needs exactly one twice-crossed bounding edge"),
    "trail-length": (lambda: gen_fig3(1), ((6, "XTRI"),), 0,
                     r"c11\+c7\+c6: XPENT-XTRI trail must have length 2"),
    "cfg15-window": (lambda: saturate(random_drawing(10, 30, 18)), ((14, "XTRI"),), 21,
                     "c12: saturated XPENT without three consecutive uncrossed trails"),
    "cfg15-quadrant": (lambda: saturate(random_drawing(10, 30, 154)), ((18, "LARGE"), (7, "VTRI"), (22, "VVTRI")), 16,
                       "c9: opposite quadrant at x2 is not VVTRI"),
}


@pytest.mark.parametrize("case", _STRICT_REFUSALS)
def test_forced_strict_refusals_are_named(case):
    build, forced, _, text = _STRICT_REFUSALS[case]
    d = build()
    for k, kind in forced:
        _forced(d, kind, k)
    assert is_3saturated(d)
    with pytest.raises(WitnessError, match=f"^missing witness: {text}$"):
        census(d)


@pytest.mark.parametrize("case", _STRICT_REFUSALS)
def test_forced_refusals_are_skipped_on_an_unsaturated_drawing(case):
    # The same retyped cells in a copy with a pendant edge, which is not
    # 3-saturated: the census skips the configuration and counts the rest.
    build, forced, pendant, _ = _STRICT_REFUSALS[case]
    original = build()
    d = _with_pendant(original, pendant)
    assert [_classified(d).kinds[k] for k, _ in forced] == [_classified(original).kinds[k] for k, _ in forced]
    for k, kind in forced:
        _forced(d, kind, k)
    assert not census(d).saturated


# No drawing designates one segment twice: every designated segment has a
# VVTRI on one side, and the cell on the other side fixes the kind. So this
# test forges trails instead: a copy of a real VQUAD-XTRI trail retyped
# VQUAD-XPENT yields a CFG10 on the same cells and far side as the real CFG12.
# fig3 L=1 is 3-saturated, so the census is strict: the clash is reported
# in (kind, cell ids) order, ids as strings.
def test_strict_designated_segment_clash_is_named_in_kind_and_cell_id_order():
    d = gen_fig3(1)
    trails = _trails(d)
    ks, interior, pair, walls = next(t for t in trails if sorted(t[0]) == [63, 65])
    assert pair == ("VQUAD", "XTRI") and len(detect_configurations(d, trails)) == 48
    as_cfg10 = (ks, interior, ("VQUAD", "XPENT"), walls)
    # CFG10 sorts before CFG12, though the real CFG12 is found first.
    with pytest.raises(WitnessError, match=r"^missing witness: CFG12@c61\+c63\+c65: designated segment "
                                           r"\('gbotn4', 1\) already claimed by CFG10@c61\+c63\+c65$"):
        detect_configurations(d, trails + [as_cfg10])
    # Two CFG10s: the XQUAD c7 as the other end is found first, but "c65" < "c7".
    with pytest.raises(WitnessError, match=r"^missing witness: CFG10@c61\+c63\+c7: designated segment "
                                           r"\('gbotn4', 1\) already claimed by CFG10@c61\+c63\+c65$"):
        detect_configurations(d, trails + [([63, 7], interior, ("VQUAD", "XPENT"), walls), as_cfg10])


def test_saturated_crossing_pair_counts():
    d = saturate(util.x1())
    rep = census(d)
    assert rep.counts["E"] == 7 and rep.counts["X"] == 1
    assert type_counts(rep) == {
        "XTRI": 0, "XQUAD": 0, "VTRI": 0, "VQUAD": 0, "XPENT": 0,
        "VVTRI": 4, "KITE": 0, "LARGE": 2, "OTHER": 0}
    assert rep.counts["large_size_sum"] == 12
    assert rep.counts["cells"] == 6


def test_flower_census_by_hand():
    # Pentagon with its five inner chords, then saturated: the centre cell
    # is the lone XPENT, each star point is a VTRI, each rim pocket a
    # VVTRI, and saturation adds two outer chords making three uncrossed
    # outer triangles (size 6, hence LARGE).
    d = gen_basic("fig4-flower")
    rep = census(d)
    assert rep.counts["n"] == 5 and rep.counts["E"] == 12 and rep.counts["X"] == 5
    assert rep.counts["E0"] == 7 and rep.counts["E2"] == 5
    assert type_counts(rep) == {
        "XTRI": 0, "XQUAD": 0, "VTRI": 5, "VQUAD": 0, "XPENT": 1,
        "VVTRI": 5, "KITE": 0, "LARGE": 3, "OTHER": 0}
    assert rep.counts["large_size_sum"] == 18
    assert rep.counts["cells"] == 14
    assert rep.counts["T_VTRI_XPENT"] == 5
    assert sum(v for k, v in rep.counts.items() if k.startswith("T_")) == 5
    assert rep.counts["CFG15"] == 5
    assert rep.counts["CFG14"] == 5
    assert rep.counts["CFG13"] == 0


def test_micro_configuration_counts():
    rep = census(gen_basic("fig3a-micro"))
    assert rep.counts["n"] == 6 and rep.counts["E"] == 14 and rep.counts["X"] == 6
    assert rep.counts["CFG9"] == 1
    assert rep.counts["CFG15"] == 2


def test_census_counts_match_report_dict():
    rep = census(gen_basic("k3"))
    d = rep.as_dict()
    assert d["counts"] == rep.counts
    assert len(d["cells"]) == 2
    assert d["trails"] == []


def _non_alternating():
    """``util.x1`` with the crossing's rotation listing each edge's two darts together (invalid)."""
    d = util.x1()
    rot = dict(d.rotations)
    rot["x0"] = (("e0", 0, "bwd"), ("e0", 1, "fwd"), ("e1", 0, "bwd"), ("e1", 1, "fwd"))
    return Drawing(d.vertices, list(d.edges.values()), rot)


# Every public verdict refuses each invalid fixture itself, in its own error
# class and with one text; the census reads only valid drawings.
INVALID = {
    "lens-bad": lambda: gen_basic("lens-bad"),
    "lasso": util.lasso,
    "adjacent-cross": util.adjacent_cross,
    "overloaded-line": util.overloaded_line,
    "two-components": util.two_components,
    "non-alternating": _non_alternating,
    "lone-vertex": lambda: Drawing(["a"], [], {"a": []}),
}
VERDICTS = {
    "census": (census, CensusError),
    "extract_trails": (extract_trails, CensusError),
    "saturate": (saturate, SaturateError),
    "density_residual": (lambda d: density_residual(d, 1), ConstraintError),
    "verify_numeric": (lambda d: verify_numeric(d, builtin_certificate("edges")), CertificateError),
}


@pytest.mark.parametrize("verdict", VERDICTS)
@pytest.mark.parametrize("fixture", INVALID)
def test_every_verdict_refuses_an_invalid_drawing(fixture, verdict):
    d = INVALID[fixture]()
    fn, error = VERDICTS[verdict]
    with pytest.raises(error) as info:
        fn(d)
    assert type(info.value) is error
    assert str(info.value) == "drawing is not valid: " + ", ".join(validate(d).failing())


def test_census_and_validation_bytes_are_pinned():
    # One sha256 over the full census (cells, trails with their interior
    # segments and walls, configurations with their designated segments)
    # and the validation report, or the census error text, on a fixed
    # corpus: the censuses of fig3 L=1-4, fig2 R=1-4 and saturated random
    # (10, 30) seeds 0-24; the censuses and the validation of the
    # unsaturated random (10, 30) seeds 0-24 and of the invalid fixtures.
    # A census is strict exactly on the 3-saturated drawings among these;
    # the tags "strict" and "advisory" name the two lists.
    digest = hashlib.sha256()

    def add(label, fn):
        try:
            obj = fn()
        except CensusError as exc:
            obj = f"{type(exc).__name__}: {exc}"
        digest.update(f"{label}\n{json.dumps(obj, sort_keys=True)}\n".encode())

    saturated = ([gen_fig3(layers) for layers in range(1, 5)]
                 + [gen_fig2(rings) for rings in range(1, 5)]
                 + [saturate(random_drawing(10, 30, seed)) for seed in range(25)])
    for d in saturated:
        add("strict", lambda: census(d).as_dict())
    unsaturated = ([random_drawing(10, 30, seed) for seed in range(25)]
                   + [gen_basic("lens-bad")])
    for d in unsaturated:
        add("advisory", lambda: census(d).as_dict())
        add("validate", lambda: validate(d).as_dict())
    for d in (util.lasso(), util.adjacent_cross(), util.overloaded_line(),
              util.two_components(), _non_alternating()):
        add("validate", lambda: validate(d).as_dict())
    assert digest.hexdigest() == (
        "c4bae8bbaf649af872eb780c1766acd64ad8ab35192a9e9fe05a9acf1150267d")


# The census on numbers, pinned: one sha256 over the trails of each drawing
# of the verdict corpus and fig3 L=32, and one over their configurations,
# each as tuples in the order returned (a configuration's cells sorted).
# Recorded before the trail and configuration loops were trimmed, so a
# reordered trail list or another designated dart fails them.
@pytest.fixture(scope="module")
def numbered_census():
    out = []
    for d in [build() for _, build in VERDICT_CORPUS] + [gen_fig3(32)]:
        trails = _trails(d)
        out.append((trails, detect_configurations(d, trails)))
    return out


def test_numbered_trails_are_pinned(numbered_census):
    digest = hashlib.sha256()
    for trails, _ in numbered_census:
        digest.update(repr([(tuple(ks), tuple(interior), ends, walls)
                            for ks, interior, ends, walls in trails]).encode())
    assert digest.hexdigest() == "8898fa0c1c6d4b42765e70006591ef5b0c88702284c190e48f18f9fc625d74ed"


def test_numbered_configurations_are_pinned(numbered_census):
    digest = hashlib.sha256()
    for _, cfgs in numbered_census:
        digest.update(repr([(kind, tuple(sorted(ks)), tuple(designated), edge)
                            for kind, ks, designated, edge in cfgs]).encode())
    assert digest.hexdigest() == "8e0bf9e1ac0af38bbb53e3cce3db54507434f541c0af8b93cc959c19db0bf688"
