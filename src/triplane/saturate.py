"""Filling a drawing with uncrossed edges until it is 3-saturated."""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from .combmap import Dart, Rotations, smallest_first
from .drawing import Drawing, EdgeRecord


class SaturateError(ValueError):
    """Saturation cannot proceed on this input."""


def filled_witness(drawing: Drawing) -> Optional[Tuple[str, str, str]]:
    """First (cell id, u, v) whose cell has no uncrossed u-v edge on its boundary.

    A drawing is filled when every pair of distinct vertices incident to a
    common cell is joined by an uncrossed edge on that cell's boundary.
    Cells are scanned in lexicographic id order and vertex pairs in
    lexicographic order, so the witness is deterministic.
    """
    recs = sorted(drawing._cell_view().records, key=lambda r: r.cell_id)
    for rec in recs:
        verts = sorted({drawing.tail(d) for d in rec.walk if drawing.is_vertex(drawing.tail(d))})
        if len(verts) < 2:
            continue
        joined = set()
        for d in rec.walk:
            e = drawing.edges[d[0]]
            if not e.crossings:
                joined.add(tuple(sorted(e.ends)))
        for i, u in enumerate(verts):
            for v in verts[i + 1:]:
                if (u, v) not in joined:
                    return (rec.cell_id, u, v)
    return None


def is_filled(drawing: Drawing) -> bool:
    return filled_witness(drawing) is None


def _cell_witness(walk: Sequence[Dart], tail: Dict[Dart, str],
                  vertices: FrozenSet[str]) -> Optional[Tuple[str, str]]:
    """First unjoined vertex pair (u, v) of one face walk, as ``filled_witness`` picks it.

    A segment whose two ends are vertices is a whole uncrossed edge, so the
    joined pairs are read off consecutive tails of the walk.  It is kept
    apart from ``filled_witness``, which re-checks the result from scratch.
    """
    tails = [tail[d] for d in walk]
    verts = sorted(vertices.intersection(tails))
    if len(verts) < 2:
        return None
    joined = {(a, b) if a < b else (b, a)
              for a, b in zip(tails, tails[1:] + tails[:1]) if a in vertices and b in vertices}
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            if (u, v) not in joined:
                return (u, v)
    return None


def _cyclic(walk: Tuple[Dart, ...], start: int, stop: int) -> Tuple[Dart, ...]:
    """``walk[start..stop-1]``, wrapping past the end when ``stop <= start``."""
    return walk[start:stop] if start < stop else walk[start:] + walk[:stop]


def saturate(drawing: Drawing) -> Drawing:
    """Insert uncrossed edges until the drawing is filled.

    Requires a valid drawing with at least 3 vertices; the input is
    validated in full once.  Each round takes the first filled-ness
    witness (cell, u, v) that ``filled_witness`` would report and joins u
    to v by an uncrossed edge routed through that cell, spliced at the
    first boundary occurrences of u and v by ``Rotations.splice``, the
    splice ``CombMap.insert_edge_in_face`` also uses.  Such an edge splits
    that one cell in two and changes no other cell, crossing or rotation,
    so the map is updated in place and only the two new cells are
    examined: each insertion checks that u differs from v (no loop) and
    that neither new cell is a two-segment lens (non-homotopic).  Every
    other validity check is unaffected by such an edge.  One ``Drawing``
    is built at the end, then validated in full and re-checked from
    scratch with ``filled_witness``, so the result is 3-saturated.
    Raises ``SaturateError`` if any of these checks fails or the number
    of insertions exceeds the edge-count bound.
    """
    if len(drawing.vertices) < 3:
        raise SaturateError("saturation requires at least 3 vertices")
    report = drawing._validation()
    if not report.valid:
        raise SaturateError("input drawing is not valid (failing: " + ", ".join(report.failing()) + ")")

    cmap = drawing.planarize()
    # #segments <= 3#nodes - 6 on the sphere bounds how many edges can fit.
    nodes = len(drawing.vertices) + len(drawing.crossings)
    cap = max(0, 3 * nodes - 6 - cmap.num_segments()) + 1

    rot = Rotations(cmap.rotations)
    vertices = frozenset(drawing.vertices)
    # Every face is keyed by its smallest dart, and its index in the sorted
    # ``keys`` is the ``c{i}`` id that ``cells`` gives it.  ``pending`` maps
    # the key of each face that is not filled yet to its walk and witness;
    # filled faces are never split again, so only their keys are kept.
    keys = []
    pending = {}
    for walk in cmap.faces():
        keys.append(walk[0])
        witness = _cell_witness(walk, rot.tail, vertices)
        if witness is not None:
            pending[walk[0]] = (walk, witness)

    edges = list(drawing.edges.values())
    fresh = 0
    for _ in range(cap + 1):
        if not pending:
            break
        # filled_witness scans cell ids as strings, so "c10" comes before "c2".
        key = min(pending, key=lambda k: str(bisect_left(keys, k)))
        cell_id = f"c{bisect_left(keys, key)}"
        walk, (u, v) = pending.pop(key)
        del keys[bisect_left(keys, key)]

        tails = [rot.tail[d] for d in walk]
        i = tails.index(u)
        j = tails.index(v)
        while f"s{fresh}" in drawing.edges:
            fresh += 1
        new_id = f"s{fresh}"
        fresh += 1
        edges.append(EdgeRecord(new_id, (u, v), ()))
        fwd, bwd = (new_id, 0, "fwd"), (new_id, 0, "bwd")
        rot.splice(walk[i - 1], [fwd])
        rot.splice(walk[j - 1], [bwd])

        splits = (smallest_first((fwd,) + _cyclic(walk, j, i)),
                  smallest_first((bwd,) + _cyclic(walk, i, j)))
        lens = any(len(w) == 2 and w[0][:2] != w[1][:2] for w in splits)
        failing = [name for name, broken in (("no-loops", u == v), ("non-homotopic", lens)) if broken]
        if failing:
            raise SaturateError(
                f"inserting {new_id}={u}-{v} in {cell_id} broke validity "
                "(failing: " + ", ".join(failing) + ")")
        for split in splits:
            insort(keys, split[0])
            witness = _cell_witness(split, rot.tail, vertices)
            if witness is not None:
                pending[split[0]] = (split, witness)
    else:
        raise SaturateError("saturation did not terminate within the edge-count bound")

    out = Drawing(drawing.vertices, edges, rot.lists) if len(edges) > len(drawing.edges) else drawing
    report = out._validation()
    if not report.valid:
        raise SaturateError("saturated drawing is not valid (failing: " + ", ".join(report.failing()) + ")")
    witness = filled_witness(out)
    if witness is not None:
        raise SaturateError("saturated drawing is not filled: {1}-{2} unjoined in {0}".format(*witness))
    return out


def is_3saturated(drawing: Drawing) -> bool:
    """Valid on >= 3 vertices, and every cell's vertex pairs are joined along its boundary."""
    return len(drawing.vertices) >= 3 and drawing._validation().valid and is_filled(drawing)
