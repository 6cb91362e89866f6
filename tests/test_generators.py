import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplane.census import census
from triplane.certificate import builtin_certificate, verify_numeric
from triplane.constraints import ROWS, evaluate_constraints
from triplane.combmap import Rotations
from triplane.drawing import Drawing, EdgeRecord, serialize_tdr, stats, validate
from triplane import generators
from triplane.generators import (
    BASIC_NAMES,
    GenerationError,
    _HEX_CAPS,
    _HEX_SIDE,
    _PENT_CHORDS,
    _Arrangement,
    _chord_model,
    _chord_offsets,
    add_chords_in_face,
    build_random_scene,
    gen_basic,
    gen_fig2,
    gen_fig3,
    ingest_geometry,
    random_drawing,
)
from triplane.geometry import GeometricScene, SceneError, _meet, parse_scene, segment_relation
from triplane.saturate import is_3saturated, saturate

import util
from test_geometry import on_segment


def scene_of(points, segments):
    return parse_scene(json.dumps({
        "points": points,
        "segments": [{"id": sid, "ends": list(ends)} for sid, ends in segments],
    }))


def test_ingest_crossing_square():
    d = ingest_geometry(scene_of(
        {"a": ["-1", "0"], "b": ["1", "0"], "c": ["0", "-1"], "d": ["0", "1"]},
        [("e0", ("a", "b")), ("e1", ("c", "d"))]))
    st_ = stats(d)
    assert st_.n == 4 and st_.E == 2 and st_.X == 1
    assert validate(d).valid
    assert d.edges["e0"].crossings == d.edges["e1"].crossings


def test_crossing_names_skip_a_taken_prefix():
    # A point named x0 takes the crossing's first choice of name, so it is named xx0.
    d = ingest_geometry(GeometricScene({"x0": (-1, 0), "b": (1, 0), "c": (0, -1), "e": (0, 1)},
                                       (("s", ("x0", "b")), ("t", ("c", "e")))))
    assert sorted(d.crossings) == ["xx0"]
    assert d.edges["s"].crossings == d.edges["t"].crossings == ("xx0",)


def test_ingest_matches_brute_force_on_random_scenes():
    for seed in range(12):
        scene = build_random_scene(8, 16, seed)
        d = ingest_geometry(scene)
        assert stats(d).X == util.brute_force_crossings(scene)
        assert validate(d).valid


def test_ingest_rejects_vertex_on_edge():
    with pytest.raises(SceneError, match="^vertex-on-edge"):
        ingest_geometry(scene_of(
            {"a": ["0", "0"], "b": ["2", "0"], "c": ["1", "0"], "d": ["1", "2"]},
            [("e0", ("a", "b")), ("e1", ("c", "d"))]))


def test_ingest_rejects_coincident_points():
    with pytest.raises(SceneError, match="^coincident-endpoints"):
        ingest_geometry(scene_of(
            {"a": ["0", "0"], "b": ["0", "0"], "c": ["1", "1"]},
            [("e0", ("a", "c")), ("e1", ("b", "c"))]))


def test_ingest_rejects_collinear_overlap():
    # c lies on a-b, which is met before the overlap itself
    with pytest.raises(SceneError, match="^vertex-on-edge"):
        ingest_geometry(scene_of(
            {"a": ["0", "0"], "b": ["3", "0"], "c": ["1", "0"], "d": ["4", "0"]},
            [("e0", ("a", "b")), ("e1", ("c", "d"))]))
    # the same two ends twice: no other point is involved
    with pytest.raises(SceneError, match="^collinear-overlap: 'e0' and 'e1'"):
        ingest_geometry(scene_of(
            {"a": ["0", "0"], "b": ["3", "0"]},
            [("e0", ("a", "b")), ("e1", ("b", "a"))]))


def test_ingest_rejects_concurrent_crossings():
    # three segments through the origin
    with pytest.raises(SceneError, match="^concurrent-crossing"):
        ingest_geometry(scene_of(
            {"a": ["-1", "0"], "b": ["1", "0"], "c": ["0", "-1"], "d": ["0", "1"],
             "e": ["-1", "-1"], "f": ["1", "1"]},
            [("e0", ("a", "b")), ("e1", ("c", "d")), ("e2", ("e", "f"))]))


def test_ingest_rejects_overloaded_edge():
    # one horizontal segment crossed by four verticals
    points = {"L": ["-9", "0"], "R": ["9", "0"]}
    segments = [("h", ("L", "R"))]
    for i in range(4):
        points[f"t{i}"] = [str(2 * i - 3), "1"]
        points[f"b{i}"] = [str(2 * i - 3), "-1"]
        segments.append((f"v{i}", (f"t{i}", f"b{i}")))
    with pytest.raises(SceneError, match="^too-many-crossings: 'h' is crossed 4 times"):
        ingest_geometry(scene_of(points, segments))


def test_ingest_rejects_isolated_point_on_segment():
    # no segment ends at c, yet it lies inside a-b
    with pytest.raises(SceneError, match="^vertex-on-edge: point 'c' lies on segment 'e0'"):
        ingest_geometry(scene_of(
            {"a": ["0", "0"], "b": ["2", "2"], "c": ["1", "1"]},
            [("e0", ("a", "b"))]))


def test_ingest_accepts_exactly_three_crossings():
    points = {"L": ["-9", "0"], "R": ["9", "0"]}
    segments = [("h", ("L", "R"))]
    for i in range(3):
        points[f"t{i}"] = [str(2 * i - 3), "1"]
        points[f"b{i}"] = [str(2 * i - 3), "-1"]
        segments.append((f"v{i}", (f"t{i}", f"b{i}")))
    # tie the pieces together so the graph is connected
    segments += [("c0", ("L", "t0")), ("c1", ("t0", "t1")), ("c2", ("t1", "t2")),
                 ("c3", ("t2", "R"))]
    d = ingest_geometry(scene_of(points, segments))
    assert validate(d).valid
    assert len(d.edges["h"].crossings) == 3


# Scenes where the arrangement's closed bounding boxes have zero width or
# height, touch only at a corner or along an edge, or hold a point on their
# boundary.  Each result (sha256 of the drawing, or the refusal text) was
# recorded before the box test was put in front of the exact predicates;
# the concurrent-crossing refusals name the owner pair and the new segment.
BOX_SCENES = {
    # a horizontal and a vertical segment: zero-height and zero-width boxes
    "plus": ({"a": ["-2", "0"], "b": ["2", "0"], "c": ["0", "-2"], "d": ["0", "2"]},
             [("h", ("a", "b")), ("v", ("c", "d"))]),
    # a point on a horizontal segment, inside its zero-height box
    "point-on-horizontal": ({"a": ["0", "0"], "b": ["4", "0"], "c": ["5/2", "0"], "d": ["5/2", "3"]},
                            [("h", ("a", "b")), ("v", ("c", "d"))]),
    # a vertical segment's end on the interior of a later horizontal one
    "t-junction": ({"a": ["0", "0"], "b": ["4", "0"], "c": ["1", "0"], "d": ["1", "3"]},
                   [("v", ("c", "d")), ("h", ("a", "b"))]),
    # boxes that share only a corner, the segments apart
    "corner-apart": ({"a": ["0", "2"], "b": ["2", "0"], "c": ["2", "2"], "d": ["4", "4"], "e": ["4", "0"]},
                     [("s0", ("a", "b")), ("s1", ("c", "d")), ("s2", ("b", "e")), ("s3", ("c", "e"))]),
    # boxes that share only a corner, where the segments share an end
    "corner-shared": ({"a": ["0", "0"], "b": ["2", "2"], "c": ["4", "4"], "d": ["4", "0"]},
                      [("s0", ("a", "b")), ("s1", ("b", "c")), ("s2", ("b", "d"))]),
    # collinear segments along a common box edge: overlapping, touching, apart
    "edge-overlap": ({"a": ["3", "0"], "b": ["3", "4"], "c": ["0", "0"]},
                     [("s0", ("a", "b")), ("s1", ("c", "b")), ("s2", ("b", "a"))]),
    "edge-touch": ({"a": ["3", "0"], "b": ["3", "2"], "c": ["3", "5"], "d": ["0", "5"]},
                   [("s0", ("a", "b")), ("s1", ("b", "c")), ("s2", ("c", "d")), ("s3", ("d", "a"))]),
    "edge-apart": ({"a": ["0", "1"], "b": ["2", "1"], "c": ["3", "1"], "d": ["5", "1"],
                    "e": ["5/2", "-1"], "f": ["5/2", "3"]},
                   [("s0", ("a", "b")), ("s1", ("c", "d")), ("s2", ("e", "f")), ("s3", ("b", "e"))]),
    # a vertical segment through the crossing of two diagonals
    "three-through-one-point": ({"a": ["0", "0"], "b": ["4", "2"], "c": ["4", "0"], "d": ["0", "2"],
                                 "e": ["2", "1/3"], "f": ["2", "5"]},
                                [("s0", ("a", "b")), ("s1", ("c", "d")), ("s2", ("e", "f"))]),
    # the same, with the two diagonals accepted in the other order
    "three-through-one-point-swapped": ({"a": ["0", "0"], "b": ["4", "2"], "c": ["4", "0"], "d": ["0", "2"],
                                         "e": ["2", "1/3"], "f": ["2", "5"]},
                                        [("s1", ("c", "d")), ("s0", ("a", "b")), ("s2", ("e", "f"))]),
    # an end of an earlier segment on the interior of a diagonal
    "end-on-diagonal": ({"a": ["0", "0"], "b": ["3", "3"], "c": ["1", "1"], "d": ["1", "-2"]},
                        [("s1", ("c", "d")), ("s0", ("a", "b"))]),
    # proper crossings of thin boxes at rational points
    "thin": ({"a": ["0", "0"], "b": ["1/3", "7"], "c": ["-1", "1"], "d": ["2", "13/11"],
              "e": ["1/7", "-1"], "f": ["1/7", "9"]},
             [("s0", ("a", "b")), ("s1", ("c", "d")), ("s2", ("e", "f"))]),
    # a-b is primitive as given but not once scaled by 2: the point test must run on it
    "half-point-on-diagonal": ({"a": ["0", "0"], "b": ["1", "1"], "c": ["1/2", "1/2"], "d": ["1/2", "3"]},
                               [("s0", ("a", "b")), ("s1", ("c", "d"))]),
    "half-point-off-diagonal": ({"a": ["0", "0"], "b": ["1", "1"], "c": ["1/2", "1/3"], "d": ["1/2", "3"]},
                                [("s0", ("a", "b")), ("s1", ("c", "d"))]),
}
BOX_RESULTS = {
    "plus": "8265569157f6230022f240e6a361fa0cfb90814215b4475ca7540e91743fc5e4",
    "point-on-horizontal": "SceneError: vertex-on-edge: point 'c' lies on segment 'h'",
    "t-junction": "SceneError: vertex-on-edge: point 'c' lies on segment 'h'",
    "corner-apart": "2657d16cb59a0630594b5ab91a99088184f8eac359e7816c0d177c5cfd1911f9",
    "corner-shared": "f20c2aec1f27e9e39c7b512aa8bfda400da0752bf5c97424f2050a3255867b4b",
    "edge-overlap": "SceneError: collinear-overlap: 's0' and 's2'",
    "edge-touch": "4e710cb51da116cce486058529471c04963e9425a509fcba892814c6379cdf56",
    "edge-apart": "6c93e7c961b714c24b9bfbb456c3e2c1633a081ffec8aaded4f4b0edab31dc5a",
    "three-through-one-point": "SceneError: concurrent-crossing: 's0', 's1', 's2' meet at one point",
    "three-through-one-point-swapped": "SceneError: concurrent-crossing: 's1', 's0', 's2' meet at one point",
    "end-on-diagonal": "SceneError: vertex-on-edge: point 'c' lies on segment 's0'",
    "thin": "d4b2c06e027b24d6c4f58ece429898e0d54950c592469fb4e51740fb9654bb41",
    "half-point-on-diagonal": "SceneError: vertex-on-edge: point 'c' lies on segment 's0'",
    "half-point-off-diagonal": "7a923ab0fd75d6aa77c301187ab8082f8dac1b4006b85bcb3434a3678407d79a",
}


@pytest.mark.parametrize("name", BOX_SCENES)
def test_ingest_on_box_edges_is_pinned(name):
    try:
        text = serialize_tdr(ingest_geometry(scene_of(*BOX_SCENES[name])))
        got = hashlib.sha256(text.encode()).hexdigest()
    except SceneError as exc:
        got = f"SceneError: {exc}"
    assert got == BOX_RESULTS[name]


class _BruteArrangement:
    """The acceptance rules of ``_Arrangement``, testing every point and every pair."""

    def __init__(self, points):
        self.points, self.ends, self.crossings, self.owner = points, {}, {}, {}

    def add(self, sid, u, v):
        pts = self.points
        a, b = pts[u], pts[v]
        for nm, p in pts.items():
            if nm not in (u, v) and on_segment(p, a, b):
                return f"vertex-on-edge: point {nm!r} lies on segment {sid!r}"
        found = []
        for o, (c, d) in self.ends.items():
            rel = segment_relation(a, b, pts[c], pts[d])
            adjacent = bool({c, d} & {u, v})
            if rel[0] == "disjoint" or (rel[0] == "shared-endpoint" and adjacent):
                continue
            if rel[0] != "proper" or adjacent:
                return f"{'adjacent-crossing' if rel[0] == 'proper' else rel[0]}: {o!r} and {sid!r}"
            if rel[1] in self.owner:
                o1, o2 = self.owner[rel[1]]
                return f"concurrent-crossing: {o1!r}, {o2!r}, {sid!r} meet at one point"
            if len(self.crossings[o]) == 3:
                return f"too-many-crossings: {o!r} is crossed 4 times"
            found.append((rel[1], o))
            if len(found) == 4:
                return f"too-many-crossings: {sid!r} is crossed 4 times"
        self.ends[sid], self.crossings[sid] = (u, v), found
        for p, o in found:
            self.owner[p] = (o, sid)
            self.crossings[o].append((p, sid))
        return None


def as_point(triple):
    x, y, w = triple
    return (Fraction(x, w), Fraction(y, w))


# On a small grid many candidates are horizontal, vertical, collinear or meet
# at a box corner: every decision and every crossing must be the brute force's.
# Seeds 40-79 also divide y, by 1-3, so the scale is not the x denominator alone.
@pytest.mark.parametrize("seed", range(80))
def test_box_test_decides_as_brute_force(seed):
    rng = random.Random(seed)
    span = range(-3, 4) if seed % 2 else range(-12, 13)
    cells = rng.sample([(x, y) for x in span for y in span], rng.randint(6, 14))
    ydiv = 1 + seed // 3 % 3 if seed >= 40 else 1
    points = {f"p{i}": (Fraction(x, 1 + seed % 3), Fraction(y, ydiv)) for i, (x, y) in enumerate(cells)}
    arr = _Arrangement(points)
    brute = _BruteArrangement(arr.points)
    for k in range(60):
        u, v = rng.sample(sorted(points), 2)
        assert arr.add(f"s{k}", u, v) == brute.add(f"s{k}", u, v)
    # the arrangement keys crossings by integer triples, the brute force by Fraction points
    crossings = {s: [(as_point(p), o) for p, o in found] for s, found in arr.crossings.items()}
    owner = {as_point(p): pair for p, pair in arr.owner.items()}
    assert len(owner) == len(arr.owner)
    assert [s[:3] for s in arr.segments] == [(sid, u, v) for sid, (u, v) in brute.ends.items()]
    assert crossings == brute.crossings and owner == brute.owner


def test_box_test_bounds_kernel_calls(monkeypatch):
    calls = 0

    def counting(kernel):
        def counted(*args):
            nonlocal calls
            calls += 1
            return kernel(*args)
        return counted

    monkeypatch.setattr(generators, "_crossing", counting(generators._crossing))
    monkeypatch.setattr(generators, "_meet", counting(_meet))
    for s in range(20):
        try:
            build_random_scene(24, 72, s)
        except GenerationError:
            pass
    assert 0 < calls <= 15_000


# A (0,0)-(3,1), B (0,1)-(3,0) and C (1,0)-(2,1) all pass through (3/2, 1/2).
# Scaled by 6 they pass through (9, 3), and the pairs meet in triples
# (9k, 3k, k) with different k before reduction: 216 for A and B, 72 for C and A.
@pytest.mark.parametrize("scale", [1, 6])
def test_concurrency_at_a_non_integer_point(scale):
    ends = {"A": ((0, 0), (3, 1)), "B": ((0, 1), (3, 0)), "C": ((1, 0), (2, 1))}
    points = {f"{sid}{i}": [str(scale * x), str(scale * y)]
              for sid, pair in ends.items() for i, (x, y) in enumerate(pair)}
    with pytest.raises(SceneError, match=r"^concurrent-crossing: 'A', 'B', 'C' meet at one point$"):
        ingest_geometry(scene_of(points, [(sid, (f"{sid}0", f"{sid}1")) for sid in ends]))


def test_arrangement_add_builds_no_fraction(monkeypatch):
    counts = {"inside": 0, "outside": 0}
    where = ["outside"]
    new, hash_ = Fraction.__new__, Fraction.__hash__

    def counted_new(cls, *args, **kwargs):
        counts[where[0]] += 1
        return new(cls, *args, **kwargs)

    def counted_hash(self):
        counts[where[0]] += 1
        return hash_(self)

    def traced(method):
        def inside(self, *args):
            where[0] = "inside"
            try:
                return method(self, *args)
            finally:
                where[0] = "outside"
        return inside

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    monkeypatch.setattr(Fraction, "__hash__", counted_hash)
    monkeypatch.setattr(_Arrangement, "add", traced(_Arrangement.add))
    monkeypatch.setattr(_Arrangement, "darts", traced(_Arrangement.darts))  # nor does its crossing order
    random_drawing(40, 120, 0)
    assert counts["inside"] == 0
    assert counts["outside"] > 0  # the counters are live: the scene's points are Fractions


def test_fig3_formulas():
    for layers in range(1, 6):
        d = gen_fig3(layers)
        assert validate(d).valid
        st_ = stats(d)
        n = 6 * (layers + 1)
        assert st_.n == n
        assert st_.E == 33 * layers + 18
        assert st_.X == 33 * layers + 12
        assert 2 * st_.E == 11 * n - 30      # |E| = 5.5 n - 15
        assert 2 * st_.X == 11 * n - 42      # |X| = 5.5 n - 21
        assert is_3saturated(d)


def test_fig3_rejects_nonpositive_layers():
    for bad in (0, -1):
        with pytest.raises(GenerationError):
            gen_fig3(bad)


def test_fig2_counts():
    expected = {1: (15, 50, 30, 6), 2: (20, 90, 60, 12), 4: (35, 165, 110, 22)}
    for rings, (n, e, x, pents) in expected.items():
        d = gen_fig2(rings)
        assert validate(d).valid
        st_ = stats(d)
        assert (st_.n, st_.E, st_.X) == (n, e, x)
        assert st_.E3 == 0                    # the family is 2-plane
        assert st_.E2 * 2 + st_.E1 == 2 * st_.X
        rep = census(d)
        assert rep.counts["XPENT"] == pents
        if rings % 2 == 0:  # both caps are pentagrams: |E| = 5(n-2), |X| = 10/3 (n-2)
            assert e == 5 * (n - 2) and 3 * x == 10 * (n - 2)
            assert is_3saturated(d)


def test_fig2_rejects_nonpositive_rings():
    with pytest.raises(GenerationError):
        gen_fig2(0)


# With the side-face pattern in both caps as well, fig3 reaches the bound
# exactly: |E| = |X| = 5.5(n-2), every row and both certificates with slack
# 0.  Each cap then repeats the three short diagonals its ring's side faces
# already drew, so six vertex pairs are joined by two edges; the drawing is
# still valid, so no two of them are homotopic.
@pytest.mark.parametrize("layers", (1, 2, 3))
def test_fig3_with_side_caps_is_tight(monkeypatch, layers):
    monkeypatch.setattr(generators, "_HEX_CAPS", (_HEX_SIDE, _HEX_SIDE))
    d = gen_fig3(layers)
    st_ = stats(d)
    assert st_.n == 6 * (layers + 1)
    assert st_.E == st_.X == (55, 88, 121)[layers - 1]
    assert 2 * st_.E == 11 * (st_.n - 2)
    assert validate(d).valid and is_3saturated(d)
    rows = evaluate_constraints(census(d).counts, saturated=True).rows
    assert len(rows) == len(ROWS) == 21
    assert all(r.slack == 0 for r in rows)
    for target in ("edges", "crossings"):
        rep = verify_numeric(d, builtin_certificate(target))
        assert rep.total_slack == rep.certified_slack == 0
    ends = Counter(frozenset(e.ends) for e in d.edges.values())
    assert sorted(c for c in ends.values() if c > 1) == [2] * 6


# Chords go into one rotation system shared by every face, so each family
# builds exactly one Drawing, at the end; the digests pin its bytes.
@pytest.mark.parametrize("gen,digest", [
    (gen_fig3, "8a476ba03a9f1a5aee7bac377fcd8c8713a6b588b7c7e2e0c43bdda33dc97327"),
    (gen_fig2, "a02b0fa92d398b9f3413852c8035a2bd8e633059c46a0f6569aba95ae0b7b312"),
], ids=["fig3", "fig2"])
def test_generators_build_one_drawing(monkeypatch, gen, digest):
    built = []
    init = Drawing.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Drawing, "__init__", counted)
    d = gen(3)
    assert len(built) == 1
    assert hashlib.sha256(serialize_tdr(d).encode()).hexdigest() == digest


# Sizes beyond the acceptance corpus (fig3 L 1-4, fig2 R 1-2): one digest
# over the concatenated bytes of each family, recorded before the families
# were built from ring data.
@pytest.mark.parametrize("gen,sizes,digest", [
    (gen_fig3, (5, 6, 7, 8, 16, 32, 64), "f0a876ddcd948f7d025b6b1d2cf836264c830f8442316ad6093a1c7a4a85e559"),
    (gen_fig2, range(3, 10), "f87f1be28ff93f0d07b23eea175ec1795662d9f52ef1f09af3a5e9d1bb00e507"),
], ids=["fig3", "fig2"])
def test_family_bytes_are_pinned_beyond_the_corpus(gen, sizes, digest):
    text = "".join(serialize_tdr(gen(size)) for size in sizes)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# The rings and spokes alone, no face filled: the store numbers their
# segments itself, and the drawing must be the one built from their tuple
# rotations by the nested-rings rule (counterclockwise: outward spoke, ring
# successor, inward spoke, ring predecessor).
@pytest.mark.parametrize("gen", [gen_fig3, gen_fig2], ids=["fig3-L1", "fig2-R1"])
def test_ring_layout_without_fills_is_its_tuple_rotations(monkeypatch, gen):
    filled_rings, calls = generators._filled_rings, []
    monkeypatch.setattr(generators, "_filled_rings", lambda *args: calls.append(args))
    gen(1)
    [(rings, spokes, _)] = calls
    edges = [EdgeRecord(e, (vs[i], vs[(i + 1) % len(vs)]), ()) for vs, es in rings for i, e in enumerate(es)]
    edges += [EdgeRecord(s, (a, b), ()) for s, a, b in spokes]
    outward = {a: (s, 0, "fwd") for s, a, _ in spokes}
    inward = {b: (s, 0, "bwd") for s, _, b in spokes}
    rotations = {v: tuple(d for d in (outward.get(v), (es[i], 0, "fwd"), inward.get(v), (es[i - 1], 0, "bwd")) if d)
                 for vs, es in rings for i, v in enumerate(vs)}
    expected = Drawing([v for vs, _ in rings for v in vs], edges, rotations)
    d = filled_rings(rings, spokes, [])
    assert d == expected and d.rotations == expected.rotations
    assert list(d.edges) == list(expected.edges)
    assert len(rings) == 2 and spokes  # two rings and the spokes that join them


def test_gen_basic_names():
    for name in BASIC_NAMES:
        d = gen_basic(name)
        if name == "lens-bad":
            assert not validate(d).valid
        else:
            assert validate(d).valid
    with pytest.raises(GenerationError):
        gen_basic("no-such-drawing")


def test_gen_basic_micros_are_saturated():
    for name in ("fig3a-micro", "fig4-flower"):
        assert is_3saturated(gen_basic(name))
    # the bare crossing fixture is left unsaturated on purpose
    assert not is_3saturated(gen_basic("x1"))


def test_random_drawing_is_deterministic():
    a = serialize_tdr(random_drawing(8, 14, 5))
    b = serialize_tdr(random_drawing(8, 14, 5))
    assert a == b
    c = serialize_tdr(random_drawing(8, 14, 6))
    assert c != a


@pytest.mark.parametrize("n,budget", [(5, 4), (8, 16), (12, 40)])
def test_random_drawing_is_its_scene_ingested(n, budget):
    for seed in range(8):
        expected = serialize_tdr(ingest_geometry(build_random_scene(n, budget, seed)))
        assert serialize_tdr(random_drawing(n, budget, seed)) == expected


def test_random_drawing_is_valid_and_connected():
    for seed in range(10):
        d = random_drawing(10, 30, seed)
        rep = validate(d)
        assert rep.valid
        assert stats(d).n == 10


def test_random_drawing_needs_three_vertices():
    with pytest.raises(GenerationError):
        random_drawing(2, 5, 0)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.integers(min_value=3, max_value=9), st.integers(min_value=0, max_value=9999))
def test_random_scene_segments_stay_in_bounds(n, seed):
    scene = build_random_scene(n, 2 * n, seed)
    assert len(scene.points) == n
    for _, (a, b) in scene.segments:
        assert a in scene.points and b in scene.points
    d = ingest_geometry(scene)
    assert validate(d).valid
    assert stats(d).X == util.brute_force_crossings(scene)


def add_chords(d, *args):
    add_chords_in_face(Rotations.from_map(d.planarize()), dict(d.edges), *args)


def test_add_chords_rejects_unknown_face():
    d = gen_basic("k3")
    with pytest.raises(GenerationError):
        add_chords(d, ("a", "c", "b", "a"), [(0, 2)], "g", "xg")


def test_add_chords_rejects_bad_indices():
    d = gen_basic("k3")
    with pytest.raises(GenerationError):
        add_chords(d, ("a", "b", "c"), [(0, 0)], "g", "xg")
    with pytest.raises(GenerationError):
        add_chords(d, ("a", "b", "c"), [(0, 5)], "g", "xg")
    with pytest.raises(GenerationError, match="^collinear-overlap: 'g0' and 'g1'"):
        add_chords(util.ngon(6), [f"v{i}" for i in range(6)], [(0, 2), (0, 2)], "g", "xg")


def test_add_chords_rejects_overcrossed_model():
    # all 9 diagonals of a hexagon: each long diagonal is crossed 4 times
    diagonals = [(i, j) for i, j in itertools.combinations(range(6), 2) if j - i not in (1, 5)]
    assert len(diagonals) == 9
    with pytest.raises(GenerationError, match="crossed 4 times"):
        add_chords(util.ngon(6), [f"v{i}" for i in range(6)], diagonals, "g", "xg")


# New edge and crossing ids must be fresh: the hexagon already has edges
# e0..e5 and vertices v0..v5, and the two chords cross once.
@pytest.mark.parametrize("prefixes,text", ((("e", "xe"), "edge id 'e0' already used"),
                                           (("g", "v"), "crossing id 'v0' already used")))
def test_add_chords_rejects_used_ids(prefixes, text):
    with pytest.raises(GenerationError, match=f"^{text}$"):
        add_chords(util.ngon(6), [f"v{i}" for i in range(6)], [(0, 2), (1, 3)], *prefixes)


# Faces with the same (cycle length, chords) pattern share one exact model
# and one numbering of it: fig3's side faces share one, its caps one more
# each unless L is odd (the two caps then match), and every fig2 face is a
# pentagram.
@pytest.mark.parametrize("gen,size,patterns", [(gen_fig3, 32, 3), (gen_fig3, 33, 2), (gen_fig2, 8, 1)])
def test_chord_model_is_built_once_per_pattern(gen, size, patterns):
    _chord_model.cache_clear()
    _chord_offsets.cache_clear()
    gen(size)
    assert _chord_model.cache_info().misses == patterns
    assert _chord_offsets.cache_info().misses == patterns


# The patterns of fig3 (both caps) and fig2, numbered by the rule the fill
# used to apply to every face: chord k's segments from base[k], the bases
# laid out chord after chord.
@pytest.mark.parametrize("m,chords", [(6, _HEX_SIDE), (6, _HEX_CAPS[0]), (6, _HEX_CAPS[1]), (5, _PENT_CHORDS)],
                         ids=["hex-side", "hex-cap-even", "hex-cap-odd", "pentagram"])
def test_chord_offsets_follow_the_renaming_rule(m, chords):
    along, crossings, splices = _chord_model(m, chords)
    base = list(itertools.accumulate((2 * len(on) + 2 for on in along[:-1]), initial=0))

    def renamed(darts):
        return tuple(base[k] + 2 * seg + (direction == "fwd") for k, seg, direction in darts)

    offsets = _chord_offsets(m, chords)
    assert offsets == (along, tuple((n, renamed(d)) for n, d in crossings),
                       tuple((i, renamed(d)) for i, d in splices))
    listed = sorted(o for _, offs in offsets[1] + offsets[2] for o in offs)
    assert listed == list(range(sum(2 * len(on) + 2 for on in along)))  # every new dart once


def test_chord_model_is_made_of_tuples():
    def leaves(value):
        assert isinstance(value, tuple)
        for item in value:
            if isinstance(item, (int, str)):
                yield item
            else:
                yield from leaves(item)

    model = _chord_model(6, ((0, 2), (1, 3), (2, 4), (3, 5), (0, 4), (1, 5), (0, 3), (2, 5)))
    assert len(list(leaves(model))) > 0
    assert len(model[1]) == 11  # crossings
    # each whole model (along, crossings, splices) the tight families use, pinned
    for m, chords, digest in (
            (6, _HEX_SIDE, "5108601015997a0d3588bf21f673d6079591e6afdaf31f6eb0bbf72795db1166"),
            (6, _HEX_CAPS[0], "4be0161ef11ce307560e3fbff3c94e0bd8d14d1b0c23689268a8745b1764facd"),
            (6, _HEX_CAPS[1], "b7a12f3070c52a9a22521903e611d0d2c67b0c69d0c11c48495efd1f252720a0"),
            (5, _PENT_CHORDS, "0fb0c5dd5242fa39efadfd7383c4d490dac96c62dc16718455ef51e3200c31f6")):
        assert hashlib.sha256(repr(_chord_model(m, chords)).encode()).hexdigest() == digest


def test_chord_refusal_names_each_callers_edges():
    # a refusal is not kept under the first caller's ids
    hexagon = [f"v{i}" for i in range(6)]
    diagonals = [(i, j) for i, j in itertools.combinations(range(6), 2) if j - i not in (1, 5)]
    for prefix in ("g", "h"):
        with pytest.raises(GenerationError, match=f"^collinear-overlap: '{prefix}0' and '{prefix}1'$"):
            add_chords(util.ngon(6), hexagon, [(0, 2), (0, 2)], prefix, "x" + prefix)
        with pytest.raises(GenerationError, match=f"^too-many-crossings: '{prefix}1' is crossed 4 times$"):
            add_chords(util.ngon(6), hexagon, diagonals, prefix, "x" + prefix)


# The repair pass cannot connect these scenes (a known defect); they are the
# only failures among seeds 0-39 at (16, 48) and (24, 72).
@pytest.mark.parametrize("n,budget,seed", ((16, 48, 33), (24, 72, 15), (24, 72, 38)))
def test_random_drawing_unconnectable_seeds(n, budget, seed):
    with pytest.raises(GenerationError, match=f"^could not connect the scene for n={n}, seed={seed}$"):
        random_drawing(n, budget, seed)


# Three pairwise interleaving chords of a 9-gon are drawn with their three
# crossings at three points; the parabola corners x = 8-i put the three at
# one point, so the model refused them.
def test_chord_model_concurrent_crossings():
    d = util.ngon(9)
    rot, edges = Rotations.from_map(d.planarize()), dict(d.edges)
    add_chords_in_face(rot, edges, [f"v{i}" for i in range(9)], [(0, 5), (2, 6), (3, 8)], "g", "xg")
    drawn = Drawing(d.vertices, list(edges.values()), rot.lists)
    assert validate(drawn).valid and len(drawn.crossings) == 3
    assert [len(edges[e].crossings) for e in ("g0", "g1", "g2")] == [2, 2, 2]


# The model's corners, at x = m-1-i up to m = 8 and at x = 2^(m-1-i) from
# m = 9 on, are in strictly convex position: every two interleaved diagonals
# cross properly, no two such crossings share a point, and two diagonals
# that do not interleave meet at most at a shared corner.  So a chord set
# the model accepts crosses exactly its interleaved pairs.
@pytest.mark.parametrize("m", range(4, 17))
def test_chord_model_crossings_are_distinct(m):
    corners = generators._chord_arrangement(m, (), ())[0].points
    diagonals = [(i, j) for i, j in itertools.combinations(range(m), 2) if j - i not in (1, m - 1)]
    at = {}
    for (i, j), (a, b) in itertools.combinations(diagonals, 2):
        kind, p = _meet(corners[i], corners[j], corners[a], corners[b])
        if i < a < j < b or a < i < b < j:
            assert kind == "proper"
            assert at.setdefault(p, (i, j, a, b)) == (i, j, a, b)
        else:
            assert kind == ("shared-endpoint" if {i, j} & {a, b} else "disjoint")
    assert len(at) == len(list(itertools.combinations(range(m), 4)))


def _max_crossings(k, s):
    """cr_k(s) and a diagonal set of a convex s-gon attaining it: the most
    crossings among diagonals each crossed at most k times, by exhaustive
    search.  Two diagonals cross iff their ends interleave."""
    diagonals = [(i, j) for i, j in itertools.combinations(range(s), 2) if j - i not in (1, s - 1)]
    best, load = (-1, ()), {}

    def grow(a, count, picked):
        nonlocal best
        if count + k * (len(diagonals) - a) <= best[0]:
            return  # each diagonal still to decide adds at most k crossings
        if a == len(diagonals):
            best = (count, picked)
            return
        i, j = diagonals[a]
        # a picked diagonal starts no later than i, so it crosses (i, j) iff its ends interleave so
        hit = [d for d in picked if d[0] < i < d[1] < j]
        if len(hit) <= k and all(load[d] < k for d in hit):
            for d in hit:
                load[d] += 1
            load[(i, j)] = len(hit)
            grow(a + 1, count + len(hit), picked + ((i, j),))
            for d in hit:
                load[d] -= 1
        grow(a + 1, count, picked)

    grow(0, 0, ())
    return best


# cr_k(s) for s = 4..8, the frame counts of the k-plane bounds; s = 9
# (3, 11, 16) takes seconds and is left out.
@pytest.mark.parametrize("k,table", ((1, (1, 1, 2, 2, 3)), (2, (1, 5, 6, 7, 10)), (3, (1, 5, 11, 12, 13))))
def test_cr_k_of_convex_polygons(k, table):
    for s, cr in zip(range(4, 9), table):
        count, chords = _max_crossings(k, s)
        assert count == cr, s
        model = _chord_model(s, chords)
        assert model is not None and len(model[1]) == cr  # the chord model draws it, crossing for crossing


def test_random_scene_needs_a_point():
    with pytest.raises(GenerationError, match="^need at least one point$"):
        build_random_scene(0, 0, 0)


# Scenes whose greedy pass leaves many components, so the repair pass does
# most of the work: one digest over the bytes (or the error text) of each,
# recorded when the repair pass rescanned every pair after each join.
def test_repair_heavy_bytes_are_pinned():
    digest = hashlib.sha256()
    for n, budget, seeds in ((12, 0, range(30)), (30, 10, range(20)), (60, 0, range(3)), (100, 0, (1,))):
        for s in seeds:
            try:
                text = serialize_tdr(random_drawing(n, budget, s))
            except GenerationError as exc:
                text = str(exc)
            digest.update(text.encode())
    assert digest.hexdigest() == "276a28aaa5771f50e16bbfc7a9437baa8e7e7b99f38791dc66c76c55ceba0a87"


# The repair pass tries each pair at most once, so with no budget the
# arrangement sees at most one candidate per pair of points.
@pytest.mark.parametrize("n,seed", [(30, 12), (40, 0), (60, 1), (100, 1)])
def test_repair_tries_each_pair_once(monkeypatch, n, seed):
    calls = 0
    add = _Arrangement.add

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return add(self, *args)

    monkeypatch.setattr(_Arrangement, "add", counted)
    try:
        build_random_scene(n, 0, seed)
    except GenerationError:
        pass
    assert 0 < calls <= n * (n - 1) // 2


def _wide_rational_scene():
    """A random scene moved to coordinates near 1e40, each point with its own denominators."""
    scene = build_random_scene(16, 48, 3)
    big = 10 ** 40
    points = {nm: (x * big / 3 + Fraction(1, 7 + i), y * big / 11 - Fraction(i, 13 + 2 * i))
              for i, (nm, (x, y)) in enumerate(sorted(scene.points.items()))}
    return GeometricScene(points, scene.segments)


# Larger scenes than the acceptance corpus's (10, 30) ones: one digest over
# the bytes (or the error text) of every drawing.
def test_random_scene_bytes_are_pinned():
    digest = hashlib.sha256()
    for n, budget, seeds in ((24, 72, range(40)), (40, 120, range(2))):
        for s in seeds:
            try:
                text = serialize_tdr(random_drawing(n, budget, s))
            except GenerationError as exc:
                text = str(exc)
            digest.update(text.encode())
    wide = ingest_geometry(_wide_rational_scene())
    assert validate(wide).valid
    digest.update(serialize_tdr(wide).encode())
    assert digest.hexdigest() == "ab32227a9dcb2e2255e3eef2eca2a051b67aea3b8d6fe7c2cde8c5408dd00de2"


# At the sizes the arrangement's lattice walk and crossing test were made
# for; both scenes connect.  Recorded before either went in.
@pytest.mark.parametrize("n,budget,seed,digest", [
    (80, 240, 0, "ee3a60015a66ba121465b22b9d7c84bd5425fee233e9642b79b3a11c6723b426"),
    (160, 480, 4, "31de3ad2a9ef7abbe4f5bea6a578b65650f704e42fbc0986172ee6a38aee9fc2"),
])
def test_larger_random_drawing_bytes_are_pinned(n, budget, seed, digest):
    assert hashlib.sha256(serialize_tdr(random_drawing(n, budget, seed)).encode()).hexdigest() == digest


# perfbench's generate random inputs, one pin each: the (24, 72) seeds but
# 15, which cannot connect (test_random_drawing_unconnectable_seeds), and the
# (40, 120) ones.  Recorded before the crossings' rotations and order were
# decided by integer signs.
@pytest.mark.parametrize("n,budget,seed,digest", [
    (24, 72, 0, "5aedf33dc28e1158eb7d22b053105bd2c3d4e209aef4b6547363fde591873d43"),
    (24, 72, 1, "ce6ddbd965fa0cd54602c164ba61350531d375cafd4136c1312636916182d1da"),
    (24, 72, 2, "17a57eb91706d7eac3af8692b2bf4165509271dc55d99e32775d888ef580d553"),
    (24, 72, 3, "1cb338ab3bc1b5f0539537860f8b978ee6e6dc7d8cb18df6905b460bd1d7b547"),
    (24, 72, 4, "e0c940314cb423ff10026a06e0db7516de1f35cafbd0aaadf4da3e7f0b4dcd25"),
    (24, 72, 5, "5e86954faa1a4c34e3596501201b3c0de71f2880a73c8051c0a9953c954ba92f"),
    (24, 72, 6, "8eacb1333952b4cf45fcb8e77db29dba78eb80182be1ae37d9b1330d57a62305"),
    (24, 72, 7, "63fed7b969cb4684e552b86c188133a2225a035fc3533b53a9b2924f225df0bd"),
    (24, 72, 8, "230ce3a0e0f2041efe4451fbd0cb0107f189335aec6b7856dd75880f65305c59"),
    (24, 72, 9, "f3b8d11b500c6756b3aa17d04a7649cbd42d0d729741c9d0ddbe301d10507f81"),
    (24, 72, 10, "10cf7d3987aad4f50ea7d9e93dc7d547c32f8eda3b6946437a9399231c1656b9"),
    (24, 72, 11, "9f2fb54445a775b36a14ff152d54fa8cf51c69e15307a7b14220c4bd2b3aaa2d"),
    (24, 72, 12, "48ab21f1d5e746cc7404b65c89c32fb6ba3008e08d11a7a1e8ee320a446c8725"),
    (24, 72, 13, "7e33120f44e5deb1573832ad81a73248962c7a0b395273abd1a7948e81d05419"),
    (24, 72, 14, "ae0e9266fc4ded33a1ef66a796a10dc87e10f47b742bf4c20af4f2fdb3b8c720"),
    (24, 72, 16, "4291f5185330c0c2c2929dc6ae3cfe11706d1ab38298c53be45ed08698b2f684"),
    (24, 72, 17, "5279f47da2330b77d455fafac12e0d00977beba1e3230c3837471109481b6535"),
    (24, 72, 18, "f08244a464849af260b97d6133f9c8e9574f7ae677265167017f3083098fcf6e"),
    (24, 72, 19, "0620164e273f06520c6bc5e2e17ac4c067489214b2d7ba195ff30478404d233b"),
    (40, 120, 0, "02f06fc2a70073d28a37a3f926dcfe388bc110f0fa5cd80dee79d53283190829"),
    (40, 120, 1, "9fe15b8e08ca2de33b4dac9bf9062c36f5a0beaa02646c07b41fc7202da1745a"),
])
def test_generate_random_bytes_are_pinned(n, budget, seed, digest):
    assert hashlib.sha256(serialize_tdr(random_drawing(n, budget, seed)).encode()).hexdigest() == digest


_small = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def _rational_scenes(draw):
    points = draw(st.lists(st.tuples(_small, _small), min_size=4, max_size=7, unique=True))
    pairs = [(i, j) for i in range(len(points)) for j in range(i + 1, len(points))]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=8, unique=True))
    return ({f"p{i}": p for i, p in enumerate(points)},
            tuple((f"s{k}", (f"p{i}", f"p{j}")) for k, (i, j) in enumerate(chosen)))


def _ingested(points, segments, factor):
    scaled = {nm: (x * factor, y * factor) for nm, (x, y) in points.items()}
    try:
        return serialize_tdr(ingest_geometry(GeometricScene(scaled, segments)))
    except SceneError as exc:
        return f"SceneError: {exc}"


# The arrangement scales every scene to integers, so a scaled copy of a scene
# must give the same bytes, or the same refusal.
@settings(derandomize=True, max_examples=150, deadline=None)
@given(_rational_scenes())
def test_ingest_is_invariant_under_scaling(scene):
    points, segments = scene
    plain = _ingested(points, segments, 1)
    assert _ingested(points, segments, 7) == plain
    assert _ingested(points, segments, Fraction(1, 6)) == plain
