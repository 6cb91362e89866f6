import pytest

from triplane.census import cells
from triplane.combmap import CombMap, MapError, Rotations
from triplane.drawing import Drawing, EdgeRecord, TDRError
from triplane.generators import random_drawing
from triplane.saturate import filled_witness

from test_acceptance import BASIC_VALID, corpus_drawing
from util import twin

SQUARE_VERTICES = ["p0", "p1", "p2", "p3"]
SQUARE_EDGES = [EdgeRecord(f"s{i}", (f"p{i}", f"p{(i + 1) % 4}"), ()) for i in range(4)]


def square():
    """Plane 4-cycle p0-p1-p2-p3, edge si from pi to p(i+1)."""
    return Drawing(SQUARE_VERTICES, SQUARE_EDGES, {
        "p0": [("s0", 0, "fwd"), ("s3", 0, "bwd")],
        "p1": [("s1", 0, "fwd"), ("s0", 0, "bwd")],
        "p2": [("s2", 0, "fwd"), ("s1", 0, "bwd")],
        "p3": [("s3", 0, "fwd"), ("s2", 0, "bwd")],
    })


def square_map():
    return square().planarize()


def k2():
    return Drawing(["a", "b"], [EdgeRecord("e0", ("a", "b"), ())],
                   {"a": [("e0", 0, "fwd")], "b": [("e0", 0, "bwd")]})


def k3():
    return Drawing(
        ["a", "b", "c"],
        [EdgeRecord("e0", ("a", "b"), ()), EdgeRecord("e1", ("b", "c"), ()),
         EdgeRecord("e2", ("c", "a"), ())],
        {
            "a": [("e0", 0, "fwd"), ("e2", 0, "bwd")],
            "b": [("e1", 0, "fwd"), ("e0", 0, "bwd")],
            "c": [("e2", 0, "fwd"), ("e1", 0, "bwd")],
        },
    )


def tail(cmap, dart):
    """The node ``dart`` leaves, read through the map's numbering."""
    return cmap.tail[cmap.encode(dart)]


def test_twin_involution():
    d = ("e", 3, "fwd")
    assert twin(d) == ("e", 3, "bwd")
    assert twin(twin(d)) == d


def test_k2_single_face():
    m = k2().planarize()
    assert m.faces() == ((("e0", 0, "bwd"), ("e0", 0, "fwd")),)
    assert m.euler_characteristic() == 2


def test_k3_two_faces():
    fresh = k3().planarize().face_of()  # called before walks(): it walks the faces itself
    m = k3().planarize()
    assert m.faces() == (
        (("e0", 0, "bwd"), ("e2", 0, "bwd"), ("e1", 0, "bwd")),
        (("e0", 0, "fwd"), ("e1", 0, "fwd"), ("e2", 0, "fwd")),
    )
    assert fresh == m.face_of() == [next(k for k, w in enumerate(m.walks()) if i in w) for i in range(6)]
    assert m.euler_characteristic() == 2
    assert tail(m, ("e0", 0, "fwd")) == "a"
    assert tail(m, twin(("e0", 0, "fwd"))) == "b"


def test_two_crossing_edges_single_face():
    # 5 nodes, 4 segments, one face carrying all 8 darts.
    m = Drawing(
        ["v0", "v1", "v2", "v3"],
        [EdgeRecord("e0", ("v0", "v2"), ("x0",)), EdgeRecord("e1", ("v1", "v3"), ("x0",))],
        {
            "v0": [("e0", 0, "fwd")],
            "v1": [("e1", 0, "fwd")],
            "v2": [("e0", 1, "bwd")],
            "v3": [("e1", 1, "bwd")],
            "x0": [("e0", 0, "bwd"), ("e1", 0, "bwd"), ("e0", 1, "fwd"), ("e1", 1, "fwd")],
        },
    ).planarize()
    faces = m.faces()
    assert len(faces) == 1
    assert len(faces[0]) == 8
    assert faces[0][0] == ("e0", 0, "bwd")
    assert m.euler_characteristic() == 2


def test_torus_map_fails_sphere():
    m = Drawing(
        ["n"], [EdgeRecord("a", ("n", "n"), ()), EdgeRecord("b", ("n", "n"), ())],
        {"n": [("a", 0, "fwd"), ("b", 0, "fwd"), ("a", 0, "bwd"), ("b", 0, "bwd")]},
    ).planarize()
    assert m.euler_characteristic() == 0


def test_disconnected():
    m = Drawing(
        ["a", "b", "c", "d"], [EdgeRecord("e0", ("a", "b"), ()), EdgeRecord("e1", ("c", "d"), ())],
        {"a": [("e0", 0, "fwd")], "b": [("e0", 0, "bwd")],
         "c": [("e1", 0, "fwd")], "d": [("e1", 0, "bwd")]},
    ).planarize()
    assert m.component_of("a") == frozenset({"a", "b"})


def test_insert_diagonal_in_square():
    m = square_map()
    assert len(m.faces()) == 2
    face = next(w for w in m.faces() if len(w) == 4)
    tails = [tail(m, d) for d in face]
    i, j = tails.index("p0"), tails.index("p2")
    m2 = m.insert_edge_in_face(face, i, j, "d0")
    assert len(m2.faces()) == 3
    assert m2.euler_characteristic() == 2
    assert tail(m2, ("d0", 0, "fwd")) == "p0"
    assert tail(m2, ("d0", 0, "bwd")) == "p2"
    # the other face of the square is untouched
    other = next(w for w in m.faces() if w != face)
    assert other in m2.faces()


def _numbers(rot):
    """Each dart of the store by its tuple, to reach a named dart's number."""
    return {d: i for i, d in enumerate(rot.decode)}


def test_rotations_walks_match_combmap_faces_after_splice():
    m = square_map()
    rot = Rotations.from_map(m)
    decoded = lambda walk: tuple(rot.decode[i] for i in walk)  # noqa: E731
    face = rot.walk(m.encode(("s0", 0, "fwd")))
    assert [rot.tail[i] for i in face] == ["p0", "p1", "p2", "p3"]
    # a chord p0-p2 inside that face: each end goes in after the dart arriving there
    bwd = rot.new_segments([("d0", 0)])
    fwd = bwd + 1
    assert (rot.decode[fwd], rot.decode[bwd]) == (("d0", 0, "fwd"), ("d0", 0, "bwd"))
    rot.splice(face[3], [fwd])
    rot.splice(face[1], [bwd])
    assert rot.tail[fwd] == "p0" and rot.tail[bwd] == "p2"
    split = {decoded(rot.walk(fwd)), decoded(rot.walk(bwd))}
    assert split == {(("d0", 0, "fwd"), ("s2", 0, "fwd"), ("s3", 0, "fwd")),
                     (("d0", 0, "bwd"), ("s0", 0, "fwd"), ("s1", 0, "fwd"))}
    chord = EdgeRecord("d0", ("p0", "p2"), ())
    faces = Drawing(SQUARE_VERTICES, SQUARE_EDGES + [chord], rot.lists).planarize().faces()
    assert len(faces) == 3
    number = _numbers(rot)
    assert all(decoded(rot.walk(number[w[0]])) == w for w in faces)
    assert split < set(faces)  # "d0" sorts first, so both new faces start at a d0 dart


def test_rotations_lists_keep_each_first_dart_and_refuse_repeated_darts():
    m = square_map()
    square_rotations = m.rotations
    rot = Rotations.from_map(m)
    number = _numbers(rot)
    d0, d1 = rot.new_segments([("d0", 0)]), rot.new_segments([("d1", 0)])
    rot.splice(number["s3", 0, "fwd"], [d0 + 1, d1 + 1])
    assert rot.lists == {**square_rotations, "p0": (("s0", 0, "fwd"), ("s3", 0, "bwd"),
                                                    ("d0", 0, "fwd"), ("d1", 0, "fwd"))}
    assert rot.darts_at("p9") == ()
    with pytest.raises(MapError):
        rot.splice(number["s0", 0, "fwd"], [d0 + 1])
    with pytest.raises(MapError):
        rot.update({"q": (d1 + 1,)})


def test_rotations_refuse_a_node_already_present():
    rot = Rotations.from_map(square_map())
    bwd = rot.new_segments([("d0", 0)])
    with pytest.raises(MapError, match="'p0' already present"):
        rot.update({"p0": (bwd,)})
    with pytest.raises(MapError, match="'p0' already present"):
        Rotations.from_map(square_map()).update({"p0": ()})


def test_rotations_built_from_a_map_are_independent():
    # What ``saturate`` relies on: splicing its own store leaves the map it read alone.
    m = square_map()
    before, faces, succ = dict(m.rotations), m.faces(), list(m.succ)
    other = Rotations.from_map(m)
    assert other.lists == before
    other.splice(m.encode(("s0", 0, "fwd")), [other.new_segments([("d0", 0)]) + 1])
    assert m.rotations == before and m.faces() == faces and m.succ == succ
    assert Drawing(SQUARE_VERTICES, SQUARE_EDGES, m.rotations).planarize().faces() == faces
    assert [other.decode[i] for i in other.darts_at("p1")] == [("s1", 0, "fwd"), ("s0", 0, "bwd"), ("d0", 0, "fwd")]


STORE_DRAWINGS = ([f"fig3-L{L}" for L in (1, 2, 3)] + [f"fig2-R{R}" for R in (1, 2)]
                  + [f"basic-{name}" for name in BASIC_VALID] + [f"random-s{s}" for s in range(10)])


def store_drawing(name):
    kind, _, arg = name.partition("-")
    return random_drawing(10, 30, int(arg[1:])) if kind == "random" else corpus_drawing(name)


@pytest.mark.parametrize("name", STORE_DRAWINGS)
def test_rotations_lists_give_back_the_rotations_they_are_built_from(name):
    d = store_drawing(name)
    assert Rotations.from_map(d.planarize()).lists == d.rotations


@pytest.mark.parametrize("name", STORE_DRAWINGS)
def test_rotations_copied_from_a_map_walk_its_faces_on_its_numbers(name):
    cmap = store_drawing(name).planarize()
    rot = Rotations.from_map(cmap)
    assert all(rot.walk(walk[0]) == walk for walk in cmap.walks())
    assert sum(map(len, cmap.walks())) == len(rot.succ)
    assert rot.first == {node: (cmap.encode(darts[0]) if darts else None) for node, darts in cmap.rotations.items()}


def test_insert_parallel_edge_in_k2():
    m = k2().planarize()
    face = m.faces()[0]
    tails = [tail(m, d) for d in face]
    m2 = m.insert_edge_in_face(face, tails.index("a"), tails.index("b"), "e1")
    assert len(m2.faces()) == 2
    assert all(len(w) == 2 for w in m2.faces())
    assert m2.euler_characteristic() == 2


def test_insert_chord_between_adjacent_cycle_vertices():
    # K3, doubling side a-b: yields a 2-gon face and keeps euler 2.
    m = k3().planarize()
    face = m.faces()[1]  # (e0 fwd, e1 fwd, e2 fwd)
    tails = [tail(m, d) for d in face]
    m2 = m.insert_edge_in_face(face, tails.index("a"), tails.index("b"), "e3")
    assert m2.euler_characteristic() == 2
    assert len(m2.faces()) == 3
    assert any(len(w) == 2 for w in m2.faces())


def test_insert_rejects_same_node_and_bad_walk():
    m = square_map()
    face = m.faces()[0]
    with pytest.raises(MapError):
        m.insert_edge_in_face(face, 0, 0, "d0")
    with pytest.raises(MapError):
        m.insert_edge_in_face(face, 0, 2, "s0")  # edge id taken
    with pytest.raises(MapError):
        m.insert_edge_in_face(tuple(reversed(face)), 0, 2, "d0")
    # occurrences index the walk: in range, and ints, not bools or floats
    assert len(face) == 4
    for occurrences in ((0, 7), (7, 0), (-1, 1), (2.0, 0), (0, True), (True, 3)):
        with pytest.raises(MapError):
            m.insert_edge_in_face(face, *occurrences, "d0")
    # an edge id that ``Drawing`` refuses is refused before any splice
    for edge_id in (7, None, ""):
        with pytest.raises(MapError, match="^edge ids must be nonempty strings$"):
            m.insert_edge_in_face(face, 0, 2, edge_id)
    # a face of darts that are not this map's, or not darts at all
    k2_map = k2().planarize()
    for walk in ([("zz", 0, "fwd")], [("e0", 0)], [["e0", 0, "fwd"]], [("e0", 0, "fwd"), ("zz", 0, "bwd")]):
        with pytest.raises(MapError, match="^not a face walk of this map$"):
            k2_map.insert_edge_in_face(walk, 0, 0, "d0")


def test_constructor_rejects_bad_maps():
    # ``CombMap(...)`` is the one checker of a rotation system; ``Drawing`` re-raises its text.
    ab = [EdgeRecord("e", ("a", "b"), ())]
    for rotations, message in (
        ({"a": [("e", 0, "fwd")]}, "rotations must cover exactly the vertices and crossings; missing: ['b']"),
        ({"a": [("e", 0, "fwd")], "b": []}, "dart ('e', 0, 'bwd') missing from rotations"),
        ({"a": [("e", 0, "bwd")], "b": [("e", 0, "fwd")]}, "dart ('e', 0, 'fwd') listed at 'b' but its tail is 'a'"),
        ({"a": [("e", 0, "fwd")], "b": [("e", 0, "fwd"), ("e", 0, "bwd")]},
         "dart ('e', 0, 'fwd') listed more than once"),
        ({"a": [("e", 0, "up")], "b": [("e", 0, "bwd")]}, "rotation at 'a': bad direction 'up'"),
        ({"a": [("e", False, "fwd")], "b": [("e", 0, "bwd")]},  # bool is not a segment index
         "rotation at 'a': segment index False out of range for edge 'e'"),
    ):
        with pytest.raises(MapError) as exc:
            CombMap(rotations, {"e": ("a", "b")}, frozenset("ab"))
        assert str(exc.value) == message
        with pytest.raises(TDRError) as exc:
            Drawing(["a", "b"], ab, rotations)
        assert str(exc.value) == message


@pytest.mark.parametrize("direction", [["fwd"], None], ids=["list", "null"])
def test_constructor_refuses_a_direction_that_is_not_a_string(direction):
    rotations = {"a": [("e", 0, direction)], "b": [("e", 0, "bwd")]}
    with pytest.raises(MapError) as exc:
        CombMap(rotations, {"e": ("a", "b")}, frozenset("ab"))
    assert str(exc.value) == f"rotation at 'a': bad direction {direction!r}"


def assert_numbered_as_drawing(drawing, m2, new):
    """``m2``, ``drawing``'s map with edge ``new`` inserted, against the ``Drawing`` of its rotations."""
    built = Drawing(drawing.vertices, list(drawing.edges.values()) + [new], m2.rotations)
    ref = built.planarize()
    assert (m2.decode, m2.tail, m2.succ) == (ref.decode, ref.tail, ref.succ)
    assert m2.faces() == ref.faces()
    return built


def test_insert_numbers_as_drawing_on_square_and_k2():
    for drawing, u, v in ((square(), "p0", "p2"), (k2(), "a", "b")):
        m = drawing.planarize()
        face = max(m.faces(), key=len)
        tails = [tail(m, d) for d in face]
        new = EdgeRecord("d0", (u, v), ())
        assert_numbered_as_drawing(drawing, m.insert_edge_in_face(face, tails.index(u), tails.index(v), "d0"), new)


@pytest.mark.parametrize("name", ["basic-path3", "basic-x1", "fig2-R1", "rand-000", "rand-001"])
def test_insert_numbers_as_drawing_along_saturation(name):
    # Every insertion the saturation oracle of ``test_saturate`` makes, in its order.
    current = corpus_drawing(name)
    inserted = 0
    while (witness := filled_witness(current)) is not None:
        cell_id, u, v = witness
        walk = next(r.walk for r in cells(current) if r.cell_id == cell_id)
        tails = [tail(current.planarize(), d) for d in walk]
        new = EdgeRecord(f"s{inserted}", (u, v), ())
        assert new.id not in current.edges
        m2 = current.planarize().insert_edge_in_face(walk, tails.index(u), tails.index(v), new.id)
        current = assert_numbered_as_drawing(current, m2, new)
        inserted += 1
    assert inserted > 0
