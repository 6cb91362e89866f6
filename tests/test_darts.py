"""The dart numbering of ``combmap.CombMap`` against tuple-keyed references.

``reference_faces`` and ``reference_cells`` are the face walk and the cell
records as they were computed before darts were numbered: a successor
dict keyed by dart tuples, a walk from every dart in sorted order, and a
dart -> node dict for the tails.  The numbered map must give the same
walks, tails, records, Euler characteristic and components, and its dart -> face
table and rotation successors must agree with the walks and the rotations.
"""

import pytest

from triplane.census import CellRecord, cells
from triplane.drawing import Drawing, EdgeRecord, validate
from triplane.generators import BASIC_NAMES, gen_basic, gen_fig2, gen_fig3, random_drawing

import util
from util import twin
from test_acceptance import CORPUS_NAMES, corpus_drawing, saturated
from test_census import capped_triangle, ladder


def reference_faces(rotations):
    """(face walks, dart -> node): each walk from its smallest dart, the walks sorted."""
    tail = {d: node for node, darts in rotations.items() for d in darts}
    succ = {}
    for darts in rotations.values():
        succ.update(zip(darts, darts[1:] + darts[:1]))
    seen, out = set(), []
    for d0 in sorted(tail):
        if d0 in seen:
            continue
        walk = [d0]
        d = succ[twin(d0)]
        while d != d0:
            walk.append(d)
            d = succ[twin(d)]
        seen.update(walk)
        out.append(tuple(walk))
    return tuple(out), tail


def reference_cells(drawing):
    faces, tail = reference_faces(drawing.rotations)
    out = []
    for i, walk in enumerate(faces):
        tails = [tail[d] for d in walk]
        s = len(walk)
        v = sum(map(drawing._vertex_set.__contains__, tails))
        out.append(CellRecord(f"c{i}", walk, s + v, v, s - v, s, len(set(tails)) < s))
    return tuple(out)


def reference_component(rotations, tail, node):
    seen, stack = {node}, [node]
    while stack:
        for d in rotations[stack.pop()]:
            h = tail[twin(d)]
            if h not in seen:
                seen.add(h)
                stack.append(h)
    return frozenset(seen)


def assert_map_matches_reference(cmap):
    faces, tail = reference_faces(cmap.rotations)
    assert cmap.faces() == faces
    assert [cmap.tail[cmap.encode(d)] for d in sorted(tail)] == [tail[d] for d in sorted(tail)]
    assert cmap.euler_characteristic() == len(cmap.rotations) - len(tail) // 2 + len(faces)
    for node in cmap.rotations:
        assert cmap.component_of(node) == reference_component(cmap.rotations, tail, node)
    face_of = cmap.face_of()
    assert len(face_of) == len(tail)
    for k, walk in enumerate(cmap.walks()):
        assert all(face_of[i] == k for i in walk)
    for listed in cmap.rotations.values():
        for d, after in zip(listed, listed[1:] + listed[:1]):
            assert cmap.succ[cmap.encode(d)] == cmap.encode(after)


def isolated_vertex():
    """k2 plus a vertex with an empty rotation: two components, euler 3."""
    k2 = gen_basic("k2")
    return Drawing(k2.vertices + ("lone",), list(k2.edges.values()),
                   {**k2.rotations, "lone": []})


def isolated_smallest():
    """k3 plus an isolated vertex ``"0"``, the smallest node: ``validate`` looks for components from it."""
    k3 = gen_basic("k3")
    return Drawing(k3.vertices + ("0",), list(k3.edges.values()), {**k3.rotations, "0": []})


def edgeless_vertex():
    return Drawing(["a"], [], {"a": []})


# Sparse drawings put a vertex on one face walk more than once (degenerate cells).
SMALL = (
    [(f"sparse-{n}-{seed}", lambda n=n, seed=seed: random_drawing(n, n - 1, seed))
     for n in (6, 9, 12) for seed in range(5)]
    + [(name, lambda name=name: gen_basic(name)) for name in BASIC_NAMES]
    + [(build.__name__, build) for build in (
        util.lasso, util.adjacent_cross, util.overloaded_line, util.two_components,
        capped_triangle, ladder, isolated_vertex, isolated_smallest, edgeless_vertex)]
)
DRAWINGS = (
    [(name, lambda name=name: corpus_drawing(name)) for name in CORPUS_NAMES]
    + [(f"fig3-L{k}", lambda k=k: gen_fig3(k)) for k in (8, 16)]
    + [(f"fig2-R{k}", lambda k=k: gen_fig2(k)) for k in (3, 4)]
    + [(f"sat-{name}", lambda name=name: saturated(name)) for name in CORPUS_NAMES[-40:]]
    + SMALL
)


@pytest.mark.parametrize("build", [b for _, b in DRAWINGS], ids=[name for name, _ in DRAWINGS])
def test_numbered_map_matches_reference(build):
    d = build()
    assert cells(d) == reference_cells(d)
    assert_map_matches_reference(d.planarize())


@pytest.mark.parametrize("build", [b for _, b in DRAWINGS], ids=[name for name, _ in DRAWINGS])
def test_numbering_is_tuple_order_with_twins_paired(build):
    cmap = build().planarize()
    n = len(cmap.tail)
    assert n % 2 == 0 and len(cmap.decode) == len(cmap.succ) == n
    assert all(a < b for a, b in zip(cmap.decode, cmap.decode[1:]))
    for i, dart in enumerate(cmap.decode):
        assert cmap.encode(dart) == i
        assert cmap.decode[i ^ 1] == twin(dart)
        assert cmap.decode[i >> 1 << 1][:2] == dart[:2]


def test_degenerate_and_edge_cases_are_in_the_sample():
    built = {name: build() for name, build in SMALL}
    assert any(r.degenerate for d in built.values() for r in cells(d))
    assert validate(built["isolated_vertex"]).failing() == ("sphere", "connected")
    assert validate(built["edgeless_vertex"]).checks[5].witnesses == ("euler=1",)
    assert built["isolated_vertex"].planarize().component_of("lone") == frozenset({"lone"})
    # The search starts from "0", which has no darts and so no faces.
    report = validate(built["isolated_smallest"])
    assert report.failing() == ("sphere", "connected")
    assert report.checks[6].witnesses == ("a",)
    assert cells(built["edgeless_vertex"]) == ()


def test_drawing_numbers_edges_in_sorted_id_order():
    # Listed in the order b, a: edge a's darts still come first.
    d = Drawing(["u", "v"], [EdgeRecord("b", ("u", "v"), ()), EdgeRecord("a", ("u", "v"), ())],
                {"u": [("b", 0, "fwd"), ("a", 0, "fwd")], "v": [("a", 0, "bwd"), ("b", 0, "bwd")]})
    assert d.planarize().decode == [("a", 0, "bwd"), ("a", 0, "fwd"),
                                    ("b", 0, "bwd"), ("b", 0, "fwd")]
    assert d.planarize().tail == ["v", "u", "v", "u"]
