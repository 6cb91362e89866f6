import hashlib
import importlib

import pytest

from triplane.census import cells
from triplane.combmap import Rotations
from triplane.drawing import Drawing, EdgeRecord, serialize_tdr, stats, validate
from triplane.generators import gen_basic, gen_fig3, ingest_geometry, random_drawing
from triplane.geometry import GeometricScene
from triplane.saturate import (
    SaturateError,
    filled_witness,
    is_3saturated,
    saturate,
)

import util
from test_acceptance import CORPUS_NAMES, corpus_drawing


def _saturate_oracle(drawing: Drawing) -> Drawing:
    """Reference saturation: rebuild the whole drawing and re-validate it after every insertion."""
    report = validate(drawing)
    if not report.valid:
        raise SaturateError("drawing is not valid: " + ", ".join(report.failing()))

    # #segments <= 3#nodes - 6 on the sphere bounds how many edges can fit.
    nodes = len(drawing.vertices) + len(drawing.crossings)
    cap = max(0, 3 * nodes - 6 - drawing.planarize().num_segments()) + 1

    current = drawing
    fresh = 0
    for _ in range(cap + 1):
        witness = filled_witness(current)
        if witness is None:
            return current
        cell_id, u, v = witness
        rec = next(r for r in cells(current) if r.cell_id == cell_id)
        cmap = current.planarize()
        tails = [cmap.tail[cmap.encode(d)] for d in rec.walk]
        occ_u = tails.index(u)
        occ_v = tails.index(v)
        while f"s{fresh}" in current.edges:
            fresh += 1
        new_id = f"s{fresh}"
        fresh += 1
        cmap = current.planarize().insert_edge_in_face(rec.walk, occ_u, occ_v, new_id)
        edges = list(current.edges.values()) + [EdgeRecord(new_id, (u, v), ())]
        current = Drawing(current.vertices, edges, cmap.rotations)
        report = validate(current)
        if not report.valid:
            raise SaturateError(
                f"inserting {new_id}={u}-{v} in {cell_id} broke validity "
                "(failing: " + ", ".join(report.failing()) + ")")
    raise SaturateError("saturation did not terminate within the edge-count bound")


def _outcome(fn, drawing):
    try:
        return serialize_tdr(fn(drawing))
    except SaturateError as exc:
        return f"SaturateError: {exc}"


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_matches_oracle_on_corpus(name):
    d = corpus_drawing(name)
    assert _outcome(saturate, d) == _outcome(_saturate_oracle, d)


# From n = 8 on the saturation passes 11 cells, so the string order of cell
# ids ("c10" before "c2") decides which cell is filled next.
@pytest.mark.parametrize("n", range(3, 61))
def test_matches_oracle_on_ngon(n):
    d = util.ngon(n)
    assert serialize_tdr(saturate(d)) == serialize_tdr(_saturate_oracle(d))


# Faces of sparse drawings run along both sides of tree-like parts, so a
# vertex can occur more than once on one face walk (as on path3's single
# face, which test_matches_oracle_on_corpus covers).
SPARSE = [(n, budget, seed) for n in (6, 9, 12, 16) for budget in (n - 1, n, n + 2)
          for seed in range(15)]


@pytest.mark.parametrize("n,budget,seed", SPARSE)
def test_matches_oracle_on_sparse_drawings(n, budget, seed):
    d = random_drawing(n, budget, seed)
    assert _outcome(saturate, d) == _outcome(_saturate_oracle, d)


# sha256 of the saturated n-gons' bytes, recorded from the oracle-checked
# loop before faces kept their records across splits.
NGON_SHA256 = {
    200: "60460a62fb3458fc7108b74b4f84b0180c14547bfc8eefa0320341a089bc3217",
    1000: "27468827ec27c3211621f876574fe3bbbf8afc176fe74050a0e35a8dfc17eb24",
    2000: "d464147e3f3cc75ae8a8ec51c922c5eff145bf8f4b2319c35b1b4da4ea7abc92",
}


@pytest.mark.parametrize("n", sorted(NGON_SHA256))
def test_large_ngon_bytes_are_pinned(n):
    text = serialize_tdr(saturate(util.ngon(n)))
    assert hashlib.sha256(text.encode()).hexdigest() == NGON_SHA256[n]


# sha256 of the saturated random (24, 72) drawings' bytes, the inputs of
# perfbench's saturate workload, recorded before the producers' dart store
# went onto dart numbers.
RANDOM_SHA256 = {
    0: "f3e8f9d832e219de7b23f9af25308223328a68111d5d9962332ed506e4b10683",
    1: "5877a8e5bfc466382e1a4c77b079c7a6397981f23aa8317a1029b2acaf24fe70",
    2: "2f69ad00a14e5bdfeabf1511c50eb1c5bcb17fe42e8a258ac387e08f999165ee",
    3: "147d40e5aaf53066d8170f19fcb28731f49177d2b305705796253a880cb2783e",
    4: "1e58e620f251f1044ecd50b70e1f99a763f1591312a6040b5b28e9dd1199a7da",
    5: "4f39438966c3d17e1468def611912e5966bf987361c11ab9d259c0f638af5a3e",
}


@pytest.mark.parametrize("seed", sorted(RANDOM_SHA256))
def test_random_bytes_are_pinned_and_keep_each_first_dart(seed):
    d = random_drawing(24, 72, seed)
    out = saturate(d)
    assert hashlib.sha256(serialize_tdr(out).encode()).hexdigest() == RANDOM_SHA256[seed]
    assert {node: out.rotations[node][:1] for node in d.rotations} == {node: darts[:1] for node, darts in d.rotations.items()}


def test_face_steps_grow_linearly(monkeypatch):
    # Each split walks only its smaller side, so doubling the n-gon about
    # doubles the face steps; re-walking whole faces would quadruple them.
    steps = []
    step = Rotations.next_dart

    def counted(self, dart):
        steps[-1] += 1
        return step(self, dart)

    monkeypatch.setattr(Rotations, "next_dart", counted)
    for n in (1000, 2000):
        steps.append(0)
        saturate(util.ngon(n))
    assert 0 < steps[1] <= 2.5 * steps[0]


def test_large_ngon_saturates_to_a_triangulation():
    n = 1000
    out = saturate(util.ngon(n))
    st = stats(out)
    assert st.n == n and st.E == 3 * n - 6 and st.X == 0
    assert is_3saturated(out)


def test_k3_is_already_saturated():
    d = gen_basic("k3")
    assert filled_witness(d) is None
    assert is_3saturated(d)
    assert serialize_tdr(saturate(d)) == serialize_tdr(d)


def test_k2_is_filled_but_too_small():
    d = gen_basic("k2")
    assert filled_witness(d) is None
    assert not is_3saturated(d)  # needs at least 3 vertices
    assert serialize_tdr(saturate(d)) == serialize_tdr(d)  # nothing to fill


def test_path3_witness_and_fill():
    d = gen_basic("path3")
    assert filled_witness(d) is not None
    _, u, v = filled_witness(d)
    assert {u, v} == {"a", "c"}

    out = saturate(d)
    assert is_3saturated(out)
    assert sorted(out.vertices) == ["a", "b", "c"]
    assert {tuple(sorted(e.ends)) for e in out.edges.values()} == {
        ("a", "b"), ("a", "c"), ("b", "c")}
    assert all(not e.crossings for e in out.edges.values())


def test_fresh_edge_id_skips_a_taken_one():
    # The ingested path a-b-c already holds id s0, so its one new edge is s1.
    d = ingest_geometry(GeometricScene({"a": (-1, 0), "b": (0, 0), "c": (0, -1)},
                                       (("s0", ("a", "b")), ("e1", ("b", "c")))))
    out = saturate(d)
    assert sorted(out.edges) == ["e1", "s0", "s1"]
    assert out.edges["s1"] == EdgeRecord("s1", ("a", "c"), ())


def test_x1_fill_adds_five_boundary_edges():
    d = util.x1()
    out = saturate(d)
    assert is_3saturated(out)
    st = stats(out)
    assert st.n == 4 and st.E == 7 and st.X == 1
    assert st.E0 == 5 and st.E1 == 2


def test_saturation_preserves_vertices_and_crossings():
    for seed in range(8):
        d = random_drawing(8, 16, seed)
        out = saturate(d)
        before, after = stats(d), stats(out)
        assert sorted(out.vertices) == sorted(d.vertices)
        assert after.X == before.X
        assert after.E >= before.E
        assert validate(out).valid
        assert is_3saturated(out)


def test_saturation_is_idempotent():
    for d in (gen_basic("path3"), util.x1(), random_drawing(7, 12, 3)):
        once = saturate(d)
        twice = saturate(once)
        assert serialize_tdr(twice) == serialize_tdr(once)


def test_saturation_never_crosses_new_edges():
    for seed in (0, 1, 2):
        out = saturate(random_drawing(9, 20, seed))
        rep = stats(out)
        # every added edge is uncrossed, so crossing totals stay put
        assert rep.E1 + 2 * rep.E2 + 3 * rep.E3 == 2 * rep.X


def test_fig3_is_born_saturated():
    d = gen_fig3(1)
    assert is_3saturated(d)
    assert stats(saturate(d)).E == stats(d).E


def test_saturate_rejects_invalid_input():
    with pytest.raises(SaturateError):
        saturate(gen_basic("lens-bad"))


def test_saturate_names_the_failing_checks():
    # four vertices and two disjoint edges: Euler characteristic 4, two components
    with pytest.raises(SaturateError, match="^drawing is not valid: sphere, connected$"):
        saturate(util.two_components())


def test_saturate_refuses_an_unfilled_result(monkeypatch):
    # With no witness to insert, x1 comes back as it is, and the one
    # 3-saturation decision on the result refuses it by its first unjoined pair.
    monkeypatch.setattr(importlib.import_module("triplane.saturate"), "_witnesses", lambda drawing: iter(()))
    with pytest.raises(SaturateError) as exc:
        saturate(util.x1())
    assert str(exc.value) == "saturated drawing is not filled: v0-v1 unjoined in c0"
