import json
import sys

import pytest

from triplane.drawing import (
    Drawing,
    EdgeRecord,
    TDRError,
    parse_tdr,
    serialize_tdr,
    stats,
    validate,
)
from triplane.geometry import SceneError, parse_scene
from triplane.generators import BASIC_NAMES, gen_basic, gen_fig2, gen_fig3, random_drawing
from triplane.saturate import saturate

import util
from test_darts import reference_faces


def test_round_trip_is_identity_on_canonical_text():
    for d in (gen_basic("k2"), gen_basic("k3"), util.x1(), gen_basic("path3")):
        text = serialize_tdr(d)
        assert serialize_tdr(parse_tdr(text)) == text
        assert parse_tdr(text) == d


def test_serialization_is_canonical():
    # same drawing, rotations listed from a different starting dart
    a = Drawing(
        ["v0", "v1", "v2", "v3"],
        [EdgeRecord("e0", ("v0", "v2"), ("x0",)), EdgeRecord("e1", ("v1", "v3"), ("x0",))],
        {
            "v0": [("e0", 0, "fwd")],
            "v1": [("e1", 0, "fwd")],
            "v2": [("e0", 1, "bwd")],
            "v3": [("e1", 1, "bwd")],
            "x0": [("e0", 1, "fwd"), ("e1", 1, "fwd"), ("e0", 0, "bwd"), ("e1", 0, "bwd")],
        },
    )
    assert serialize_tdr(a) == serialize_tdr(util.x1())
    assert a == util.x1()


# The drawing and scene parsers share one JSON loader: a text that is not
# JSON gets the same "syntax: " message from each, in its own error class.
PARSERS = ((parse_tdr, TDRError), (parse_scene, SceneError))


def _syntax_errors(text):
    """The message each parser raises on ``text``."""
    messages = []
    for parse, error in PARSERS:
        with pytest.raises(error) as exc:
            parse(text)
        messages.append(str(exc.value))
    return messages


def test_parse_reports_syntax_position():
    with pytest.raises(TDRError, match=r"syntax: .* line 1 column"):
        parse_tdr('{"vertices": [')
    assert _syntax_errors('{"vertices": [') == ["syntax: Expecting value at line 1 column 15"] * 2


def test_parse_rejects_deep_nesting():
    with pytest.raises(TDRError, match="syntax: JSON nested too deeply"):
        parse_tdr("[" * 100000)
    assert _syntax_errors("[" * 100000) == ["syntax: JSON nested too deeply"] * 2


def test_parse_rejects_dangling_crossing():
    obj = json.loads(serialize_tdr(util.x1()))
    obj["edges"][1]["crossings"] = []  # x0 now appears on only one edge
    del obj["rotations"]["x0"]
    obj["rotations"]["v1"] = [{"edge": "e1", "seg": 0, "dir": "fwd"}]
    obj["rotations"]["v3"] = [{"edge": "e1", "seg": 0, "dir": "bwd"}]
    with pytest.raises(TDRError, match="dangling crossing"):
        parse_tdr(json.dumps(obj))


def _mutate_x1(fn):
    obj = json.loads(serialize_tdr(util.x1()))
    fn(obj)
    return json.dumps(obj)


@pytest.mark.parametrize(
    "mutate,pattern",
    [
        (lambda o: o.pop("rotations"), "exactly the keys"),
        (lambda o: o["rotations"].pop("x0"), "missing"),
        (lambda o: o["rotations"].update(ghost=[]), "unknown node"),
        (lambda o: o["rotations"]["v0"].__setitem__(0, {"edge": "e9", "seg": 0, "dir": "fwd"}), "unknown edge"),
        (lambda o: o["rotations"]["v0"].__setitem__(0, {"edge": "e0", "seg": 5, "dir": "fwd"}), "out of range"),
        (lambda o: (o["rotations"].__setitem__("v0", [{"edge": "e1", "seg": 0, "dir": "fwd"}]),
                    o["rotations"].__setitem__("v1", [{"edge": "e0", "seg": 0, "dir": "fwd"}])), "tail"),
        (lambda o: o["edges"][0].__setitem__("ends", ["v0", "zz"]), "not a vertex"),
        (lambda o: o["vertices"].append("v0"), "duplicate vertex"),
        (lambda o: o["edges"][0].__setitem__("id", "e1"), "duplicate edge"),
        (lambda o: o["edges"][0]["crossings"].__setitem__(0, "v1"), "collides with a vertex"),
        (lambda o: o["rotations"]["v0"].__setitem__(0, {"edge": "e0", "seg": 0, "dir": "up"}), "bad direction"),
    ],
)
def test_parse_rejects_structural_defects(mutate, pattern):
    with pytest.raises(TDRError) as exc:
        parse_tdr(_mutate_x1(mutate))
    assert str(exc.value) == _STRUCTURAL_MESSAGES[pattern]


_STRUCTURAL_MESSAGES = {
    "exactly the keys": "top level must have exactly the keys vertices, edges, rotations",
    "missing": "rotations must cover exactly the vertices and crossings; missing: ['x0']",
    "unknown node": "rotation given for unknown node 'ghost'",
    "unknown edge": "rotation at 'v0' names unknown edge 'e9'",
    "out of range": "rotation at 'v0': segment index 5 out of range for edge 'e0'",
    "tail": "dart ('e0', 0, 'fwd') listed at 'v1' but its tail is 'v0'",
    "not a vertex": "edge 'e0' has an end that is not a vertex",
    "duplicate vertex": "duplicate vertex id",
    "duplicate edge": "duplicate edge id 'e1'",
    "collides with a vertex": "crossing id 'v1' collides with a vertex id",
    "bad direction": "rotation at 'v0': bad direction 'up'",
}


@pytest.mark.parametrize("direction", [["fwd"], None], ids=["list", "null"])
def test_parse_refuses_a_direction_that_is_not_a_string(direction):
    text = _mutate_x1(lambda o: o["rotations"]["v0"].__setitem__(0, {"edge": "e0", "seg": 0, "dir": direction}))
    with pytest.raises(TDRError) as exc:
        parse_tdr(text)
    assert str(exc.value) == f"rotation at 'v0': bad direction {direction!r}"


def test_crossing_witnesses_are_listed_in_id_order():
    # Each crossing check fails at two crossings that the drawing stores in
    # the reverse of their id order: the edge s crosses itself at y, then x;
    # t1, t2 and t3, t4 share the vertex p and cross at v2, then v1; u1, u2
    # and u3, u4 cross at w2, then w1 without alternating.
    edges = [EdgeRecord("s", ("a", "b"), ("y", "y", "x", "x"))]
    rotations = {"a": [("s", 0, "fwd")], "b": [("s", 4, "bwd")],
                 "y": [("s", 0, "bwd"), ("s", 1, "fwd"), ("s", 1, "bwd"), ("s", 2, "fwd")],
                 "x": [("s", 2, "bwd"), ("s", 3, "fwd"), ("s", 3, "bwd"), ("s", 4, "fwd")],
                 "p": [(f"t{i}", 0, "fwd") for i in range(1, 5)]}
    for i, x in ((1, "v2"), (3, "v1")):
        t, u = f"t{i}", f"t{i + 1}"
        edges += [EdgeRecord(t, ("p", f"q{i}"), (x,)), EdgeRecord(u, ("p", f"q{i + 1}"), (x,))]
        rotations.update({f"q{i}": [(t, 1, "bwd")], f"q{i + 1}": [(u, 1, "bwd")],
                          x: [(t, 0, "bwd"), (u, 0, "bwd"), (t, 1, "fwd"), (u, 1, "fwd")]})
    for i, x in ((1, "w2"), (3, "w1")):
        for j in (i, i + 1):
            edges.append(EdgeRecord(f"u{j}", (f"c{j}", f"d{j}"), (x,)))
            rotations.update({f"c{j}": [(f"u{j}", 0, "fwd")], f"d{j}": [(f"u{j}", 1, "bwd")]})
        rotations[x] = [(f"u{i}", 0, "bwd"), (f"u{i}", 1, "fwd"), (f"u{i + 1}", 0, "bwd"), (f"u{i + 1}", 1, "fwd")]
    vertices = ["a", "b", "p"] + [f"q{i}" for i in range(1, 5)] + [f"{c}{j}" for c in "cd" for j in range(1, 5)]
    d = Drawing(vertices, edges, rotations)
    assert list(d.crossings) == ["y", "x", "v2", "v1", "w2", "w1"]
    witnesses = {c.name: c.witnesses for c in validate(d).checks}
    assert witnesses["no-self-cross"] == ("x", "y")
    assert witnesses["no-adjacent-cross"] == ("v1", "v2")
    assert witnesses["crossing-alternation"] == ("w1", "w2")


def _swap_v0_v1(o):
    o["rotations"]["v0"] = [{"edge": "e1", "seg": 0, "dir": "fwd"}]
    o["rotations"]["v1"] = [{"edge": "e0", "seg": 0, "dir": "fwd"}]


@pytest.mark.parametrize(
    "mutate,message",
    [
        # A misplaced dart and a node without a rotation: the node is reported.
        (lambda o: (_swap_v0_v1(o), o["rotations"].pop("v3")),
         "rotations must cover exactly the vertices and crossings; missing: ['v3']"),
        (lambda o: o["rotations"].__setitem__("v0", []),
         "dart ('e0', 0, 'fwd') missing from rotations"),
        (lambda o: o["rotations"]["x0"].pop(),
         "dart ('e1', 1, 'fwd') missing from rotations"),
        # A misplaced and a missing dart: the first in edge order is reported.
        (lambda o: (_swap_v0_v1(o),
                    o["rotations"]["x0"].remove({"edge": "e1", "seg": 1, "dir": "fwd"})),
         "dart ('e0', 0, 'fwd') listed at 'v1' but its tail is 'v0'"),
        (lambda o: (o["rotations"].__setitem__("v2", [{"edge": "e1", "seg": 1, "dir": "bwd"}]),
                    o["rotations"].__setitem__("v3", []),
                    o["rotations"]["x0"].remove({"edge": "e0", "seg": 0, "dir": "bwd"})),
         "dart ('e0', 0, 'bwd') missing from rotations"),
    ],
    ids=["misplaced-dart-and-missing-node", "vertex-without-darts", "crossing-short-a-dart",
         "misplaced-then-missing", "missing-then-misplaced"],
)
def test_parse_reports_first_dart_defect(mutate, message):
    with pytest.raises(TDRError) as exc:
        parse_tdr(_mutate_x1(mutate))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "mutate,pattern",
    [
        (lambda o: o["rotations"]["v0"].__setitem__(0, {"edge": "e0", "seg": False, "dir": "fwd"}), "out of range"),
        (lambda o: o["rotations"]["v0"].__setitem__(0, {"edge": ["e0"], "seg": 0, "dir": "fwd"}), "unknown edge"),
        (lambda o: o["edges"][0].__setitem__("ends", [["v0"], "v2"]), "not a vertex"),
        (lambda o: o["rotations"]["v0"].__setitem__(0, {"edge": "e0", "seg": 0.0, "dir": "fwd"}), "out of range"),
    ],
    ids=["bool-seg", "unhashable-dart-edge", "unhashable-end", "float-seg"],
)
def test_parse_rejects_ill_typed_ids(mutate, pattern):
    with pytest.raises(TDRError, match=pattern):
        parse_tdr(_mutate_x1(mutate))


def test_parse_rejects_duplicate_dart():
    d = util.x1()
    rot = {k: list(v) for k, v in d.rotations.items()}
    rot["v0"] = [("e0", 0, "fwd"), ("e0", 0, "fwd")]
    with pytest.raises(TDRError, match="more than once"):
        Drawing(d.vertices, list(d.edges.values()), rot)


@pytest.mark.parametrize("dart", [("e0", 0), ("e0", 0, "fwd", "junk"), 7],
                         ids=["two-fields", "four-fields", "not-a-sequence"])
def test_drawing_rejects_malformed_dart(dart):
    d = util.x1()
    rot = {k: list(v) for k, v in d.rotations.items()}
    rot["v0"] = [dart]
    with pytest.raises(TDRError, match=r"^rotation at 'v0': malformed dart "):
        Drawing(d.vertices, list(d.edges.values()), rot)


@pytest.mark.parametrize("seg", [0.0, False], ids=["float", "bool"])
def test_drawing_rejects_ill_typed_segment(seg):
    # 0.0 and False hash and compare equal to 0, so a dict lookup alone would accept them.
    d = util.x1()
    rot = {k: list(v) for k, v in d.rotations.items()}
    rot["v0"] = [("e0", seg, "fwd")]
    with pytest.raises(TDRError) as exc:
        Drawing(d.vertices, list(d.edges.values()), rot)
    assert str(exc.value) == f"rotation at 'v0': segment index {seg} out of range for edge 'e0'"


@pytest.mark.parametrize("base,ends,crossings,message", [
    (util.x1, ("v0", "v2"), ["x0"], "crossings must be a tuple"),
    (util.x1, ("v0", "v2"), None, "crossings must be a tuple"),
    (util.x1, 5, ("x0",), "has an end that is not a vertex"),
    (lambda: gen_basic("k2"), "ab", (), "has an end that is not a vertex"),
    (lambda: gen_basic("k2"), ["a", "b"], (), "has an end that is not a vertex"),
], ids=["crossings-list", "crossings-none", "ends-without-length", "ends-string", "ends-list"])
def test_drawing_refuses_an_ill_typed_edge_record(base, ends, crossings, message):
    # Records built in Python skip the parser's shape checks; each defect is
    # a TDRError that names the edge, not a TypeError from deeper in.  Ends
    # must be a tuple, as crossings must: "ab" and ["a", "b"] name two
    # vertices of k2 but would be stored as given.
    d = base()
    edges = [EdgeRecord("e0", ends, crossings)] + list(d.edges.values())[1:]
    with pytest.raises(TDRError) as exc:
        Drawing(d.vertices, edges, d.rotations)
    assert str(exc.value).startswith("edge 'e0'") and str(exc.value).endswith(message)


def test_parse_rejects_integer_past_the_digit_limit():
    text = serialize_tdr(util.x1()).replace('"seg":0', '"seg":1' + "0" * 5000, 1)
    with pytest.raises(TDRError, match=r"^syntax: .*digits"):
        parse_tdr(text)
    limit = sys.get_int_max_str_digits()
    assert _syntax_errors("1" + "0" * 4999) == [
        f"syntax: Exceeds the limit ({limit} digits) for integer string conversion: "
        "value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit"] * 2


def test_validate_valid_fixtures():
    for d in (gen_basic("k2"), gen_basic("k3"), util.x1(), gen_basic("path3")):
        report = validate(d)
        assert report.valid, report.failing()
        assert [c.name for c in report.checks] == [
            "no-loops", "3-plane", "no-self-cross", "no-adjacent-cross",
            "crossing-alternation", "sphere", "connected", "non-homotopic",
        ]


def test_validate_lens():
    report = validate(gen_basic("lens-bad"))
    assert report.failing() == ("non-homotopic",)
    lens_check = report.checks[-1]
    assert lens_check.witnesses == ("e0:0|e1:0",)


def test_validate_self_cross():
    assert validate(util.lasso()).failing() == ("no-self-cross",)


def test_validate_adjacent_cross():
    # the region between the two strands from the shared vertex to the
    # crossing is itself a two-segment face, so both checks fire
    assert set(validate(util.adjacent_cross()).failing()) == {
        "no-adjacent-cross", "non-homotopic",
    }


def test_validate_overloaded_edge():
    report = validate(util.overloaded_line())
    assert report.failing() == ("3-plane",)
    assert report.checks[1].witnesses == ("e",)


def test_validate_disconnected():
    report = validate(util.two_components())
    assert "connected" in report.failing()


def test_validate_loop_edge():
    d = Drawing(
        ["a"],
        [EdgeRecord("e0", ("a", "a"), ())],
        {"a": [("e0", 0, "fwd"), ("e0", 0, "bwd")]},
    )
    assert "no-loops" in validate(d).failing()


def test_validate_bad_alternation():
    d = util.x1()
    rot = {k: list(v) for k, v in d.rotations.items()}
    rot["x0"] = [("e0", 0, "bwd"), ("e0", 1, "fwd"), ("e1", 0, "bwd"), ("e1", 1, "fwd")]
    bad = Drawing(d.vertices, list(d.edges.values()), rot)
    report = validate(bad)
    assert "crossing-alternation" in report.failing()
    assert "sphere" not in report.failing()  # still a sphere map, just not a crossing


def test_validate_nonsphere():
    # one vertex, two interleaved loop edges: a torus map (also loops)
    d = Drawing(
        ["a"],
        [EdgeRecord("e0", ("a", "a"), ()), EdgeRecord("e1", ("a", "a"), ())],
        {"a": [("e0", 0, "fwd"), ("e1", 0, "fwd"), ("e0", 0, "bwd"), ("e1", 0, "bwd")]},
    )
    report = validate(d)
    assert "sphere" in report.failing()
    sphere = next(c for c in report.checks if c.name == "sphere")
    assert sphere.witnesses == ("euler=0",)


def test_stats():
    s = stats(util.x1())
    assert (s.n, s.E, s.X, s.E0, s.E1, s.E2, s.E3, s.Ex) == (4, 2, 1, 0, 2, 0, 0, 2)
    s = stats(gen_basic("k3"))
    assert (s.n, s.E, s.X, s.E0, s.Ex) == (3, 3, 0, 3, 0)


def test_stats_crossing_identity():
    for d in (gen_basic("k2"), gen_basic("k3"), util.x1(), util.overloaded_line()):
        s = stats(d)
        assert s.E1 + 2 * s.E2 + 3 * s.E3 + sum(
            len(e.crossings) for e in d.edges.values() if len(e.crossings) > 3
        ) == 2 * s.X
        assert s.E0 + s.Ex == s.E


def tail_of(drawing, dart):
    """The node ``dart`` leaves, read through the drawing's dart numbering."""
    cmap = drawing.planarize()
    return cmap.tail[cmap.encode(dart)]


def segment_ends(drawing, seg):
    """The first and last node of segment ``seg``, read through the drawing's dart numbering."""
    cmap = drawing.planarize()
    b = cmap.encode((*seg, "bwd"))
    return cmap.tail[b ^ 1], cmap.tail[b]


def test_segment_helpers():
    d = util.x1()
    assert segment_ends(d, ("e0", 0)) == ("v0", "x0")
    assert d.planarize().inner_segments() == []
    cmap = util.overloaded_line().planarize()
    assert [cmap.decode[b] for b in cmap.inner_segments()] == [("e", 1, "bwd"), ("e", 2, "bwd"), ("e", 3, "bwd")]


# x1's edge e0 has segments 0 and 1, and e1's darts are numbered right after
# e0's: none of these may answer for a dart of e0 or of e1.
NOT_DARTS = [("e0", True, "fwd"), ("e0", False, "bwd"), ("e0", -1, "fwd"), ("e0", -2, "bwd"),
             ("e0", 2, "fwd"), ("e0", 2, "bwd"), ("e0", 3, "fwd"), ("e0", 0, "up"),
             ("e0", 0, "FWD"), ("e2", 0, "fwd"), ("e0", 0), ("e0", 0, "fwd", "x"), None,
             ("e0", 1.0, "fwd")]


@pytest.mark.parametrize("dart", NOT_DARTS, ids=repr)
def test_tail_refuses_what_is_not_a_dart(dart):
    with pytest.raises(KeyError):
        tail_of(util.x1(), dart)


@pytest.mark.parametrize("seg", [("e0", True), ("e0", False), ("e0", -1), ("e0", 2), ("e1", 5),
                                 ("e2", 0), ("e0",), ("e0", 0, "fwd")], ids=repr)
def test_segment_nodes_refuses_what_is_not_a_segment(seg):
    with pytest.raises(KeyError):
        segment_ends(util.x1(), seg)


def test_tail_answers_every_dart_at_its_point():
    d = util.x1()
    assert [tail_of(d, ("e0", s, r)) for s in (0, 1) for r in ("fwd", "bwd")] == ["v0", "x0", "x0", "v2"]
    assert segment_ends(d, ("e1", 1)) == ("x0", "v3")


PLANARIZED = (
    [(f"basic-{name}", lambda name=name: gen_basic(name)) for name in BASIC_NAMES]
    + [(f"fig3-L{k}", lambda k=k: gen_fig3(k)) for k in range(1, 5)]
    + [(f"fig2-R{k}", lambda k=k: gen_fig2(k)) for k in range(1, 5)]
    + [(f"rand-{seed:02d}", lambda seed=seed: saturate(random_drawing(10, 30, seed)))
       for seed in range(25)]
)


@pytest.mark.parametrize("build", [b for _, b in PLANARIZED], ids=[i for i, _ in PLANARIZED])
def test_planarization_matches_checked_map(build):
    # ``planarize`` is the one map ``Drawing(...)`` numbered and checked, sharing
    # its rotations; its faces and tails must still be those of the tuple-keyed reference.
    d = build()
    shared = d.planarize()
    assert shared is d.planarize() and shared.rotations is d.rotations
    faces, tail = reference_faces(d.rotations)
    assert shared.faces() == faces
    assert shared.decode == sorted(tail)
    for dart in shared.decode:
        e = d.edges[dart[0]]
        pts = (e.ends[0], *e.crossings, e.ends[1])
        assert tail_of(d, dart) == tail[dart] == pts[dart[1] + (dart[2] == "bwd")]
        assert segment_ends(d, dart[:2]) == pts[dart[1]:dart[1] + 2]


def test_drawing_keeps_tuple_rotations_and_tuples_the_others():
    # A rotation given as a tuple of tuples is kept as it is; any other form
    # is stored as one, and numbered into the same tables.
    d = gen_fig3(2)
    given = {node: tuple(darts) for node, darts in d.rotations.items()}
    kept = Drawing(d.vertices, list(d.edges.values()), given)
    assert all(kept.rotations[node] is darts for node, darts in given.items())
    ref = kept.planarize()
    variants = (
        {node: list(darts) for node, darts in given.items()},
        {node: tuple(list(dart) for dart in darts) for node, darts in given.items()},
        {node: (list(darts[0]), *darts[1:-1], list(darts[-1])) for node, darts in given.items()},
    )
    for rotations in variants:
        other = Drawing(d.vertices, list(d.edges.values()), rotations)
        assert other.rotations == given
        assert all(type(r) is tuple and all(type(x) is tuple for x in r) for r in other.rotations.values())
        m = other.planarize()
        assert (m.decode, m.tail, m.succ, m.first) == (ref.decode, ref.tail, ref.succ, ref.first)
        assert all(type(x) is tuple for x in m.decode)
    for empty in ((), []):
        lone = Drawing(["a"], [], {"a": empty})
        assert lone.rotations == {"a": ()} and lone.planarize().first == {"a": None}


def test_edgeless_single_vertex_is_not_a_sphere():
    # V - S + F over the face walks: one vertex, no segment, no walk.
    report = validate(Drawing(["a"], [], {"a": []}))
    assert report.failing() == ("sphere",)
    assert report.checks[5].witnesses == ("euler=1",)
