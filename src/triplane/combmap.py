"""Rotation-system combinatorial maps on the sphere.

A map is a set of nodes, each carrying the cyclic counterclockwise list of
darts leaving it.  A dart is a triple ``(edge, seg, dir)``: segment ``seg``
of ``edge``, traversed forwards (``"fwd"``) or backwards (``"bwd"``); its
twin is the same segment the other way.  Faces are the orbits of
``d -> rotation_successor(twin(d))``.  With counterclockwise rotations a
bounded face's walk runs clockwise, i.e. every face lies to the right of
each of its darts, and the gap in a node's rotation just after
``twin(arrival)`` points into the face — that is where ``Rotations.splice``
puts new darts when an edge is inserted inside a face.

Both stores work on dart numbers: the twin of dart ``i`` is ``i ^ 1``, the
``"bwd"`` one even.  A finished map (``CombMap``) numbers its darts in tuple
order, so ``i >> 1`` numbers its segment.  Producers use ``Rotations``,
which starts empty or as a copy of a map (``from_map``) and numbers each
new segment itself, so it never numbers tuple rotations.  This module is
the only one that numbers darts; everyone else decodes a number through
``decode`` or encodes a dart through ``CombMap.encode``.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

Dart = Tuple[str, int, str]

DIRS = ("fwd", "bwd")


class MapError(ValueError):
    """Raised when a rotation system does not describe a map."""


def smallest_first(darts: Tuple[Dart, ...]) -> Tuple[Dart, ...]:
    """The cyclic sequence rotated to start at its smallest dart, as ``CombMap.faces`` starts each walk."""
    if not darts:
        return darts
    k = darts.index(min(darts))
    return darts[k:] + darts[:k]


class Rotations:
    """The dart store of producers: a rotation system on dart numbers, edited in place by those that insert edges.

    ``decode``, ``tail`` and ``succ`` are as in ``CombMap``, with ``tail[i]``
    ``None`` until dart ``i`` is listed; ``first`` maps each node to its first
    dart (``None`` for a node without darts).  The store numbers each new
    segment's darts itself (``new_segments``), so only a copied map's darts
    are in tuple order.  A splice never goes before a node's first dart, so
    ``lists`` gives each rotation from it; a ``Drawing`` built from ``lists``
    checks the result.
    """

    __slots__ = ("decode", "first", "succ", "tail")

    def __init__(self):
        """An empty store; ``new_segments`` numbers its darts and ``update`` lists them at their nodes."""
        self.decode, self.first, self.succ, self.tail = [], {}, [], []

    @classmethod
    def from_map(cls, cmap: "CombMap") -> "Rotations":
        """A copy of ``cmap``'s numbered darts and first darts, to edit while ``cmap`` stays as it is."""
        rot = cls.__new__(cls)
        rot.decode, rot.first, rot.succ, rot.tail = list(cmap.decode), dict(cmap.first), list(cmap.succ), list(cmap.tail)
        return rot

    def new_segments(self, segments: Iterable[Tuple[str, int]]) -> int:
        """Number the darts of the ``(edge, seg)`` segments, in order: the k-th one's ``"bwd"`` dart is the result plus 2k."""
        b = len(self.decode)
        self.decode += [(e, s, r) for e, s in segments for r in ("bwd", "fwd")]
        self.tail += [None] * (len(self.decode) - b)
        self.succ += [-1] * (len(self.decode) - b)
        return b

    def update(self, rotations: Mapping[str, Sequence[int]]) -> None:
        """Add new nodes, each with its whole rotation of darts not listed yet."""
        first, succ, tail = self.first, self.succ, self.tail
        for node, darts in rotations.items():
            if node in first:
                raise MapError(f"node {node!r} already present")
            prev = darts[-1] if darts else None
            for i in darts:
                if tail[i] is not None:
                    raise MapError("a dart is listed more than once")
                tail[i] = node
                succ[prev] = prev = i  # the last dart's successor is the first
            first[node] = darts[0] if darts else None

    def darts_at(self, node: str) -> Tuple[int, ...]:
        """The counterclockwise darts at ``node`` from its first one; empty for an unknown node."""
        i0 = self.first.get(node)
        if i0 is None:
            return ()
        out = [i0]
        i = self.succ[i0]
        while i != i0:
            out.append(i)
            i = self.succ[i]
        return tuple(out)

    @property
    def lists(self) -> Dict[str, Tuple[Dart, ...]]:
        """Every node's rotation as darts, in the order the nodes were added."""
        decode = self.decode.__getitem__
        return {node: tuple(map(decode, self.darts_at(node))) for node in self.first}

    def next_dart(self, i: int) -> int:
        """Face successor: the rotation successor of the twin."""
        return self.succ[i ^ 1]

    def walk(self, i: int) -> Tuple[int, ...]:
        """The face walk that starts at dart ``i``."""
        succ = self.succ
        out = [i]
        j = succ[i ^ 1]  # next_dart, inlined in this hot loop
        while j != i:
            out.append(j)
            j = succ[j ^ 1]
        return tuple(out)

    def splice(self, arrival: int, darts: Sequence[int]) -> None:
        """Insert ``darts``, not listed yet, in order just after the twin of ``arrival``, inside the face it walks."""
        succ, tail = self.succ, self.tail
        t = arrival ^ 1
        after = succ[t]
        node = tail[t]
        for i in darts:
            if tail[i] is not None:
                raise MapError("a dart is listed more than once")
            tail[i] = node
            succ[t] = i
            t = i
        succ[t] = after


class CombMap:
    """An embedded multigraph: one checked rotation system, its darts numbered densely in tuple order.

    ``decode[i]`` is dart ``i``, ``tail[i]`` the node it leaves, ``succ[i]``
    the next dart counterclockwise around that node and ``first`` each node's
    first dart (``None`` if it has none), all filled by the pass that numbers
    and checks the darts.  The twin of dart ``i`` is ``i ^ 1`` and ``i >> 1``
    numbers its segment.  Edge ``e``'s darts are numbered from ``base[e]``,
    the edges in sorted id order: ``(e, s, "bwd")`` is ``base[e] + 2s`` and
    ``(e, s, "fwd")`` is ``base[e] + 2s + 1``.
    """

    __slots__ = ("rotations", "tail", "succ", "decode", "first", "_base", "_walks", "_face_of")

    def __init__(self, rotations: Mapping[str, Sequence], paths: Mapping[str, Sequence[str]], nodes: frozenset):
        """Number and check the rotations of a map whose edge ``e`` runs along the nodes ``paths[e]``.

        Each listed dart is checked once, in the order given: its fields,
        that it is new, and its tail, which is node ``seg`` (``"fwd"``) or
        ``seg + 1`` (``"bwd"``) of its edge's path.  The same pass fills
        ``tail``, ``succ`` and ``decode``, and ``rotations`` keeps each
        node's darts as a tuple of tuples: the one given, when it is one.
        Raises ``MapError`` at the first rotation given for a node outside
        ``nodes`` and at the first malformed, unknown or repeated dart; then
        for nodes without a rotation; then for the first dart, in the order
        of ``paths``, that is missing from the rotations or listed at a node
        not its tail.
        """
        base: Dict[str, Tuple[int, int, Sequence[str]]] = {}
        n = 0
        for e in sorted(paths):
            pts = paths[e]
            base[e] = (n, len(pts) - 2, pts)
            n += 2 * len(pts) - 2
        tail: List[Optional[str]] = [None] * n
        decode: List[Optional[Dart]] = [None] * n
        succ = [0] * (n + 1)  # slot n holds each rotation's first dart until its last one is seen
        rot: Dict[str, Tuple[Dart, ...]] = {}
        first: Dict[str, Optional[int]] = {}
        misplaced = False
        for node, listed in rotations.items():
            if node not in nodes:
                raise MapError(f"rotation given for unknown node {node!r}")
            given = type(listed) is tuple  # kept as the rotation while every dart is a tuple too
            prev = n
            for d in listed:
                try:
                    e, s, r = d
                except (TypeError, ValueError):
                    raise MapError(f"rotation at {node!r}: malformed dart {d!r}") from None
                try:
                    b, last, pts = base[e]
                except (KeyError, TypeError):  # TypeError: an unhashable edge
                    raise MapError(f"rotation at {node!r} names unknown edge {e!r}") from None
                if not (type(s) is int and 0 <= s <= last):
                    raise MapError(f"rotation at {node!r}: segment index {s} out of range "
                                   f"for edge {e!r}")
                if r == "fwd":
                    i = b + 2 * s + 1
                    if pts[s] != node:
                        misplaced = True
                elif r == "bwd":
                    i = b + 2 * s
                    if pts[s + 1] != node:
                        misplaced = True
                else:
                    raise MapError(f"rotation at {node!r}: bad direction {r!r}")
                if tail[i] is not None:
                    raise MapError(f"dart {(e, s, r)!r} listed more than once")
                tail[i] = node
                if type(d) is not tuple:
                    d, given = (e, s, r), False
                decode[i] = d
                succ[prev] = i
                prev = i
            succ[prev] = i0 = succ[n]  # the last dart closes the cycle; a no-op for an empty rotation
            first[node] = None if prev == n else i0
            if given:
                rot[node] = listed
            elif prev == n:
                rot[node] = ()
            else:  # the darts as tuples, in the order given
                out, j = [decode[i0]], succ[i0]
                while j != i0:
                    out.append(decode[j])
                    j = succ[j]
                rot[node] = tuple(out)
        succ.pop()
        if len(rot) != len(nodes):
            raise MapError("rotations must cover exactly the vertices and crossings; missing: "
                           + repr(sorted(nodes - set(rot))[:3]))
        if misplaced or sum(map(len, rot.values())) != n:
            # Every listed dart is a real one, listed once, so one listed too few leaves one missing.
            for e, pts in paths.items():
                b = base[e][0]
                for i in range(len(pts) - 1):
                    for d, t, j in (((e, i, "fwd"), pts[i], b + 2 * i + 1), ((e, i, "bwd"), pts[i + 1], b + 2 * i)):
                        if tail[j] != t:
                            raise MapError(f"dart {d!r} missing from rotations" if tail[j] is None
                                           else f"dart {d!r} listed at {tail[j]!r} but its tail is {t!r}")
        self.rotations, self.tail, self.succ, self.decode, self.first, self._base = rot, tail, succ, decode, first, base
        self._walks = None

    def encode(self, dart) -> int:
        """The number of ``dart``; ``KeyError`` for anything that is not one of this map's darts."""
        try:
            e, s, r = dart
            if type(s) is int and s >= 0 and r in DIRS:
                b, last, _ = self._base[e]
                if s <= last:
                    return b + 2 * s + (r == "fwd")
        except (KeyError, TypeError, ValueError):
            pass
        raise KeyError(dart)

    def inner_segments(self) -> List[int]:
        """The ``"bwd"`` dart of each segment 1..k-1 of every edge with k crossings, in number order.

        These are the segments whose two ends are crossings.
        """
        return [b + 2 * s for b, last, _ in self._base.values() for s in range(1, last)]

    def num_segments(self) -> int:
        return len(self.tail) // 2

    def walks(self) -> Tuple[Tuple[int, ...], ...]:
        """All face walks as dart numbers, each from its smallest dart, in order of that dart.

        The same pass fills ``face_of()``.
        """
        if self._walks is None:
            succ = self.succ
            face_of = [-1] * len(succ)
            out = []
            for i in range(len(succ)):
                if face_of[i] < 0:
                    k = len(out)
                    face_of[i] = k
                    walk = [i]
                    j = succ[i ^ 1]
                    while j != i:
                        face_of[j] = k
                        walk.append(j)
                        j = succ[j ^ 1]
                    out.append(tuple(walk))
            self._walks, self._face_of = tuple(out), face_of
        return self._walks

    def face_of(self) -> List[int]:
        """``face_of()[i]`` is the index in ``walks()`` of the walk that holds dart ``i``."""
        if self._walks is None:
            self.walks()
        return self._face_of

    def faces(self) -> Tuple[Tuple[Dart, ...], ...]:
        """All face walks, each starting at its smallest dart, sorted."""
        decode = self.decode.__getitem__
        return tuple([tuple(map(decode, walk)) for walk in self.walks()])

    def euler_characteristic(self) -> int:
        return len(self.rotations) - self.num_segments() + len(self.walks())

    def component_of(self, node: str) -> frozenset:
        """The nodes joined to ``node``: the tails of the faces reached from its first face across segments."""
        i0 = self.first[node]
        if i0 is None:
            return frozenset((node,))
        walks, face_of, tail = self.walks(), self._face_of, self.tail
        start = face_of[i0]
        seen = bytearray(len(walks))
        seen[start] = 1
        stack = [start]
        while stack:
            for i in walks[stack.pop()]:
                k = face_of[i ^ 1]
                if not seen[k]:
                    seen[k] = 1
                    stack.append(k)
        if all(seen):
            return frozenset(tail)
        return frozenset([tail[i] for walk in compress(walks, seen) for i in walk])

    def insert_edge_in_face(
        self,
        face: Sequence[Dart],
        occurrence_u: int,
        occurrence_v: int,
        edge_id: str,
    ) -> "CombMap":
        """Insert an uncrossed edge between two node-incidences of a face.

        ``occurrence_u`` / ``occurrence_v`` index into the face walk; the new
        edge joins the tails of the two indexed darts, which must be distinct
        nodes.  Returns a new map in which the face is split in two; the
        Euler characteristic is unchanged.  The new map is numbered and
        checked as the ``Drawing`` with the new edge numbers it.
        """
        if not (isinstance(edge_id, str) and edge_id):
            raise MapError("edge ids must be nonempty strings")
        paths = {e: pts for e, (_, _, pts) in self._base.items()}
        if edge_id in paths:
            raise MapError(f"edge id {edge_id!r} already present")
        try:
            walk = [self.encode(d) for d in face]
        except KeyError:
            walk = []
        rot = Rotations.from_map(self)
        if not walk or any(rot.next_dart(walk[i - 1]) != walk[i] for i in range(len(walk))):
            raise MapError("not a face walk of this map")
        for k in (occurrence_u, occurrence_v):
            if type(k) is not int or not 0 <= k < len(walk):
                raise MapError(f"occurrence {k!r} is not an index into the face walk")
        u = rot.tail[walk[occurrence_u]]
        v = rot.tail[walk[occurrence_v]]
        if u == v:
            raise MapError(f"occurrences are incidences of the same node {u!r}")
        bwd = rot.new_segments([(edge_id, 0)])
        rot.splice(walk[occurrence_u - 1], [bwd + 1])
        rot.splice(walk[occurrence_v - 1], [bwd])
        paths[edge_id] = (u, v)
        return CombMap(rot.lists, paths, frozenset(self.rotations))
