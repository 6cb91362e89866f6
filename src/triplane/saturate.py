"""Filling a drawing with uncrossed edges until it is 3-saturated."""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict
from heapq import heapify, heappop, heappush
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from .census import _cell_witness, _first_unjoined, _witnesses, filled_witness, is_3saturated  # noqa: F401 re-exported
from .combmap import Dart, Rotations
from .drawing import Drawing, EdgeRecord


class SaturateError(ValueError):
    """Saturation cannot proceed on this input."""


class _Face:
    """A face not filled yet, kept up to date by taking away each part split off it.

    ``darts`` holds the face's dart numbers and ``heap`` holds them after their
    tuples, with the darts that left popped only when they reach the top, so
    ``key`` (the smallest dart) needs no scan of the face.  ``into`` maps each
    vertex on the face to the face's darts that arrive there, ``verts`` lists
    those vertices sorted, and ``joined`` counts the face's darts per vertex
    pair they join: a segment whose ends are both vertices is a whole uncrossed
    edge, so these are the pairs ``_cell_witness`` reads off the walk.
    """

    __slots__ = ("darts", "heap", "into", "joined", "verts")

    def __init__(self, walk: Sequence[int], rot: Rotations, vertices: FrozenSet[str]):
        tail, decode = rot.tail, rot.decode
        self.darts = set(walk)
        self.heap = [(decode[i], i) for i in walk]
        heapify(self.heap)
        self.into: Dict[str, Set[int]] = defaultdict(set)
        self.joined: Dict[Tuple[str, str], int] = {}
        into, joined = self.into, self.joined
        p, a = walk[-1], tail[walk[-1]]
        for d in walk:
            b = tail[d]  # the dart p before d runs from a to b
            if b in vertices:
                into[b].add(p)
                if a in vertices:
                    pair = (a, b) if a < b else (b, a)
                    joined[pair] = joined.get(pair, 0) + 1
            p, a = d, b
        self.verts = sorted(into)

    def key(self) -> int:
        heap = self.heap
        while heap[0][1] not in self.darts:
            heappop(heap)
        return heap[0][1]

    def arrival(self, w: str, key: int, rot: Rotations) -> int:
        """The dart arriving at the first occurrence of vertex ``w`` on the walk from ``key``."""
        into = self.into[w]
        if len(into) == 1:
            return next(iter(into))
        if rot.tail[key] == w:
            return next(d for d in into if rot.next_dart(d) == key)
        d = key
        while d not in into:
            d = rot.next_dart(d)
        return d

    def split_off(self, part: Sequence[int], tails: Sequence[str], rot: Rotations, vertices: FrozenSet[str]) -> None:
        """Take away ``part`` and keep the twin of its first dart, in one pass over ``part``.

        ``part`` is a split-off walk, a new dart followed by old darts of
        this face, and ``tails`` are its darts' tails.  The new dart joins
        two vertices; its twin runs between them the other way and goes in
        first, so neither end ever leaves ``verts``.  The old darts then go
        from the last to the first, each running from its tail to the tail
        after it.
        """
        darts, into, joined, verts = self.darts, self.into, self.joined, self.verts
        kept, b, a = part[0] ^ 1, tails[0], tails[1]  # kept runs from a to b
        darts.add(kept)
        heappush(self.heap, (rot.decode[kept], kept))
        into[b].add(kept)
        pair = (a, b) if a < b else (b, a)
        joined[pair] = joined.get(pair, 0) + 1
        for i in range(len(part) - 1, 0, -1):
            d, a = part[i], tails[i]  # d runs from a to b
            darts.remove(d)
            if b in vertices:
                arriving = into[b]
                arriving.remove(d)
                if not arriving:
                    del into[b]
                    del verts[bisect_left(verts, b)]
                if a in vertices:
                    pair = (a, b) if a < b else (b, a)
                    left = joined[pair] - 1
                    if left:
                        joined[pair] = left
                    else:
                        del joined[pair]
            b = a


def _smaller_side(rot: Rotations, a: int, b: int) -> List[int]:
    """The face walk from ``a`` or from ``b``, whichever closes first when both are stepped in turn."""
    sides = ([a], [b])
    while True:
        for side in sides:
            d = rot.next_dart(side[-1])
            if d == side[0]:
                return side
            side.append(d)


def saturate(drawing: Drawing) -> Drawing:
    """Insert uncrossed edges until the drawing is filled.

    Requires a valid drawing, validated in full once (else ``SaturateError``);
    a valid one on fewer than 3 vertices is ``k2``, filled, and comes back
    unchanged.  Each round takes the first filled-ness witness (cell, u, v)
    that ``filled_witness`` would report and joins u to v by an uncrossed edge
    routed through that cell, spliced at the first boundary occurrences of u
    and v by ``Rotations.splice``, the splice ``CombMap.insert_edge_in_face``
    also uses.  Such an edge splits that one cell in two and changes no other
    cell, crossing or rotation, so a copy of the input's numbered map is
    updated in place and only the two new cells are examined.  It makes no
    loop, since a witness has u < v, and no two-segment lens: the other side
    would be an uncrossed u-v edge on the split cell, and that edge would
    have joined u and v.

    The two new cells are walked in turn until one closes, so only the
    smaller one is enumerated and gets its witness from its walk.  The
    larger one keeps the split cell's record (``_Face``, built from the
    cell's walk when the cell was found) minus the smaller one; with
    it, its smallest dart, its witness and, for a vertex that occurs on
    it once, that occurrence are found without walking it.  A vertex that
    occurs more than once is found by walking from the smallest dart.

    One ``Drawing`` is built at the end and validated in full once, and
    ``is_3saturated`` decides it once and keeps the answer on it for the
    census.  Raises ``SaturateError`` if the result is not valid, not
    filled, or the number of insertions exceeds the edge-count bound.
    """
    drawing._validation().refuse_invalid(SaturateError)

    cmap = drawing.planarize()
    # #segments <= 3#nodes - 6 on the sphere bounds how many edges can fit.
    nodes = len(drawing.vertices) + len(drawing.crossings)
    cap = max(0, 3 * nodes - 6 - cmap.num_segments()) + 1

    rot = Rotations.from_map(cmap)  # edited in place; the drawing's own map stays as it is
    vertices = drawing._vertex_set
    # Every face is keyed by its smallest dart, a tuple, and its index in the
    # sorted ``keys`` is the ``c{i}`` id that ``cells`` gives it.  ``pending``
    # maps the key of each face that is not filled yet to its ``_Face``, built
    # when ``_witnesses`` or a split finds the face, the key's number and its
    # witness; filled faces are never split again, so only their keys are kept.
    walks, decode = cmap.walks(), rot.decode
    keys = [decode[walk[0]] for walk in walks]
    pending: Dict[Dart, Tuple[_Face, int, Tuple[str, str]]] = {
        keys[k]: (_Face(walks[k], rot, vertices), walks[k][0], witness) for k, witness in _witnesses(drawing)}

    edges = list(drawing.edges.values())
    fresh = 0
    for _ in range(cap + 1):
        if not pending:
            break
        # the first pending cell in id order, as ``_witnesses`` scans them
        key = next(iter(pending)) if len(pending) == 1 else min(pending, key=lambda k: str(bisect_left(keys, k)))
        del keys[bisect_left(keys, key)]
        face, start, (u, v) = pending.pop(key)
        arrive_u, arrive_v = face.arrival(u, start, rot), face.arrival(v, start, rot)

        new_id = f"s{fresh}"
        while new_id in drawing.edges:
            fresh += 1
            new_id = f"s{fresh}"
        fresh += 1
        edges.append(EdgeRecord(new_id, (u, v), ()))
        bwd = rot.new_segments([(new_id, 0)])
        rot.splice(arrive_u, [bwd + 1])
        rot.splice(arrive_v, [bwd])

        small = _smaller_side(rot, bwd + 1, bwd)
        tails = [rot.tail[i] for i in small]
        face.split_off(small, tails, rot, vertices)
        start = min(small, key=decode.__getitem__)
        insort(keys, decode[start])
        witness = _cell_witness(tails, vertices)
        if witness is not None:
            pending[decode[start]] = (_Face(small, rot, vertices), start, witness)
        start = face.key()
        insort(keys, decode[start])
        witness = _first_unjoined(face.verts, face.joined)
        if witness is not None:
            pending[decode[start]] = (face, start, witness)
    else:
        raise SaturateError("saturation did not terminate within the edge-count bound")

    out = Drawing(drawing.vertices, edges, rot.lists) if len(edges) > len(drawing.edges) else drawing
    report = out._validation()
    if not report.valid:
        raise SaturateError("saturated drawing is not valid (failing: " + ", ".join(report.failing()) + ")")
    if len(out.vertices) >= 3 and not is_3saturated(out):
        raise SaturateError("saturated drawing is not filled: {1}-{2} unjoined in {0}".format(*filled_witness(out)))
    return out

