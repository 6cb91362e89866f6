"""``census.filled_witness``, which walks only the cells its types leave open,
against the from-scratch reference that walks every cell."""

import importlib
from collections import Counter
from itertools import product

import pytest

import test_saturate
from triplane.census import _cell_witness, _classified, cells, filled_witness, is_3saturated
from triplane.drawing import Drawing, EdgeRecord
from triplane.generators import BASIC_NAMES, gen_basic, gen_fig2, gen_fig3, random_drawing
from triplane.saturate import saturate

import util
from test_census import _non_alternating, capped_triangle, ladder


def reference_filled_witness(drawing):
    """First (cell id, u, v), cells in id order and pairs in order, with no uncrossed u-v edge on the cell."""
    cmap, is_vertex, edges = drawing.planarize(), drawing._vertex_set.__contains__, drawing.edges
    for rec in sorted(cells(drawing), key=lambda r: r.cell_id):
        verts = sorted(set(filter(is_vertex, (cmap.tail[cmap.encode(d)] for d in rec.walk))))
        if len(verts) < 2:
            continue
        joined = set()
        for d in rec.walk:
            e = edges[d[0]]
            if not e.crossings:
                a, b = e.ends
                joined.add((a, b) if a <= b else (b, a))
        for i, u in enumerate(verts):
            for v in verts[i + 1:]:
                if (u, v) not in joined:
                    return (rec.cell_id, u, v)
    return None


def reference_cell_witness(tails, vertices):
    """First (u, v), u < v, of distinct vertices on a walk, given its tails, with no segment joining them.

    The pair-by-pair definition of ``reference_filled_witness``: dart ``i``
    runs from ``tails[i]`` to the next tail, so its segment's ends are those two.
    """
    ends = {frozenset((a, tails[(i + 1) % len(tails)])) for i, a in enumerate(tails)}
    verts = sorted(set(tails) & vertices)
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            if {u, v} not in ends:
                return (u, v)
    return None


# The corpus of test_census_and_validation_bytes_are_pinned.
CENSUS_PIN = (
    [(f"fig3-L{layers}", lambda layers=layers: gen_fig3(layers)) for layers in range(1, 5)]
    + [(f"fig2-R{rings}", lambda rings=rings: gen_fig2(rings)) for rings in range(1, 5)]
    + [(f"sat-rand-{seed}", lambda seed=seed: saturate(random_drawing(10, 30, seed)))
       for seed in range(25)]
    + [(f"rand-{seed}", lambda seed=seed: random_drawing(10, 30, seed)) for seed in range(25)]
    + [("lens-bad", lambda: gen_basic("lens-bad"))]
    + [(build.__name__, build) for build in (util.lasso, util.adjacent_cross, util.overloaded_line,
                                              util.two_components, _non_alternating)]
)
def loop_path():
    """A path a-b-c with an uncrossed loop at a (invalid: a loop), all on one cell.

    The cell's walk joins a to b, b to c and a to itself: three joined
    pairs for three vertices, yet a and c are not joined.
    """
    return Drawing(["a", "b", "c"],
                   [EdgeRecord("l", ("a", "a"), ()), EdgeRecord("e", ("a", "b"), ()),
                    EdgeRecord("f", ("b", "c"), ())],
                   {"a": [("l", 0, "fwd"), ("l", 0, "bwd"), ("e", 0, "fwd")],
                    "b": [("e", 0, "bwd"), ("f", 0, "fwd")], "c": [("f", 0, "bwd")]})


FIXTURES = ([(name, lambda name=name: gen_basic(name)) for name in BASIC_NAMES]
            + [("capped_triangle", capped_triangle), ("ladder", ladder), ("loop_path", loop_path)])
# Tree-like parts of sparse drawings put a vertex on one face walk more than once.
SPARSE = [(f"sparse-{n}-{budget}-{seed}", lambda n=n, budget=budget, seed=seed:
           random_drawing(n, budget, seed))
          for n in (6, 9, 12, 16) for budget in (n - 1, n) for seed in range(15)]


@pytest.mark.parametrize("build", [b for _, b in CENSUS_PIN + FIXTURES + SPARSE],
                         ids=[name for name, _ in CENSUS_PIN + FIXTURES + SPARSE])
def test_witness_matches_reference(build):
    assert filled_witness(build()) == reference_filled_witness(build())


# Three vertices and a crossing: walks with repeats, loops (a, a) and
# crossings between vertices, such as (a, a, b) and (a, x, b).
@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_cell_witness_matches_the_pair_by_pair_definition(length):
    vertices = frozenset("abc")
    unjoined = 0
    for tails in product("abcx", repeat=length):
        expected = reference_cell_witness(tails, vertices)
        assert _cell_witness(tails, vertices) == expected, tails
        unjoined += expected is not None
    # No walk of at most three darts has an unjoined pair; (a, x, b, x) has one.
    assert (unjoined == 0) == (length <= 3)


def test_saturated_ngon_scan_walks_no_triangle(monkeypatch):
    # All 396 cells of the saturated 200-gon are triangles of three vertices,
    # filled by their shape, so the 3-saturation scan walks none of them.
    out = saturate(util.ngon(200))
    fresh = Drawing(out.vertices, list(out.edges.values()), out.rotations)
    census_mod = importlib.import_module("triplane.census")
    walked = []
    witness = census_mod._cell_witness

    def counted(tails, vertices):
        walked.append(tails)
        return witness(tails, vertices)

    monkeypatch.setattr(census_mod, "_cell_witness", counted)
    assert is_3saturated(fresh)
    assert len(cells(fresh)) == 396 and walked == []


def test_fixtures_hold_the_skipped_two_vertex_types():
    # VVTRI and KITE are the types with two vertices that are never walked.
    types = Counter()
    for _, build in FIXTURES:
        types.update(_classified(build()).kinds)
    assert types["KITE"] > 0 and types["VVTRI"] > 0


def test_degenerate_cells_are_covered():
    # Degenerate cells with two or more vertices, on drawings some of which are unfilled.
    degenerate = unfilled = 0
    for _, build in SPARSE:
        d = build()
        degenerate += sum(r.degenerate and r.vertex_incidences >= 2 for r in cells(d))
        unfilled += reference_filled_witness(d) is not None
    assert degenerate > 0 and unfilled > 0


def test_witness_matches_reference_on_every_oracle_step(monkeypatch):
    # Every drawing the reference saturation loop passes through, on the
    # random (10, 30) seeds: cells of every type but OTHER appear, and all
    # the unfilled ones are LARGE.
    seen, witness_types = Counter(), Counter()

    def checked(drawing):
        got = filled_witness(drawing)
        assert got == reference_filled_witness(drawing)
        kinds = _classified(drawing).kinds
        seen.update(kinds)
        if got is not None:
            witness_types[kinds[int(got[0].removeprefix("c"))]] += 1  # cell "c{k}" is cell k
        return got

    monkeypatch.setattr(test_saturate, "filled_witness", checked)
    for seed in range(25):
        test_saturate._saturate_oracle(random_drawing(10, 30, seed))
    assert set(seen) == {"XTRI", "XQUAD", "VTRI", "VQUAD", "XPENT", "VVTRI", "KITE", "LARGE"}
    assert set(witness_types) == {"LARGE"} and sum(witness_types.values()) > 25
