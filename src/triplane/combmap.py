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
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

Dart = Tuple[str, int, str]

DIRS = ("fwd", "bwd")


class MapError(ValueError):
    """Raised when a rotation system does not describe a map."""


def twin(dart: Dart) -> Dart:
    """The same segment traversed in the other direction."""
    edge, seg, direction = dart
    return (edge, seg, "bwd" if direction == "fwd" else "fwd")


def smallest_first(darts: Tuple[Dart, ...]) -> Tuple[Dart, ...]:
    """The cyclic sequence rotated to start at its smallest dart, as ``CombMap.faces`` starts each walk."""
    if not darts:
        return darts
    k = darts.index(min(darts))
    return darts[k:] + darts[:k]


def _as_dart(obj) -> Dart:
    try:
        edge, seg, direction = obj
    except (TypeError, ValueError):
        raise MapError(f"malformed dart {obj!r}") from None
    if not isinstance(edge, str) or type(seg) is not int or seg < 0 or direction not in DIRS:
        raise MapError(f"malformed dart {obj!r}")
    return (edge, seg, direction)


class Rotations:
    """A rotation system edited in place, for producers that insert edges.

    ``tail`` maps each dart to its node.  ``given`` keeps each node's
    rotation as it was added and ``spliced`` the nodes whose rotation a
    splice has changed since.  ``succ`` maps a dart to the next dart
    counterclockwise around its tail, so a face step and a splice cost the
    same at a node of any degree; a node's darts enter it the first time a
    step or a splice reaches that node, so a producer pays only for the
    nodes it touches.  A splice never goes before the first dart given,
    so ``lists`` rebuilds only the spliced rotations, each from that dart.
    A ``CombMap`` or ``Drawing`` built from ``lists`` checks the result.
    """

    __slots__ = ("given", "spliced", "succ", "tail")

    def __init__(self, rotations: Mapping[str, Sequence[Dart]]):
        self.given: Dict[str, Tuple[Dart, ...]] = {}
        self.spliced = set()
        self.succ: Dict[Dart, Dart] = {}
        self.tail: Dict[Dart, str] = {}
        self.update(rotations)

    def update(self, rotations: Mapping[str, Sequence[Dart]]) -> None:
        """Add nodes, each with its whole rotation."""
        added = {node: tuple(darts) for node, darts in rotations.items()}
        listed = len(self.tail) + sum(map(len, added.values()))
        self.tail.update({d: node for node, darts in added.items() for d in darts})
        if len(self.tail) != listed:
            raise MapError("a dart is listed more than once")
        self.given.update(added)

    def _link(self, dart: Dart) -> Dart:
        """Enter the darts of the node of ``dart`` into ``succ``; return the successor of ``dart``."""
        darts = self.given[self.tail[dart]]
        self.succ.update(zip(darts, darts[1:] + darts[:1]))
        return self.succ[dart]

    def darts_at(self, node: str) -> Tuple[Dart, ...]:
        """The counterclockwise darts at ``node`` from its first one; empty for an unknown node."""
        if node not in self.spliced:
            return self.given.get(node, ())
        d0 = self.given[node][0]
        out = [d0]
        d = self.succ[d0]
        while d != d0:
            out.append(d)
            d = self.succ[d]
        return tuple(out)

    @property
    def lists(self) -> Dict[str, Tuple[Dart, ...]]:
        """Every node's rotation, in the order the nodes were added."""
        return {node: self.darts_at(node) if node in self.spliced else darts
                for node, darts in self.given.items()}

    def next_dart(self, dart: Dart) -> Dart:
        """Face successor: the rotation successor of the twin."""
        edge, seg, direction = dart
        t = (edge, seg, "bwd" if direction == "fwd" else "fwd")  # twin(dart), inlined in this hot step
        try:
            return self.succ[t]
        except KeyError:
            return self._link(t)

    def walk(self, dart: Dart) -> Tuple[Dart, ...]:
        """The face walk that starts at ``dart``."""
        out = [dart]
        d = self.next_dart(dart)
        while d != dart:
            out.append(d)
            d = self.next_dart(d)
        return tuple(out)

    def splice(self, arrival: Dart, darts: Sequence[Dart]) -> None:
        """Insert ``darts`` in order just after ``twin(arrival)``, inside the face ``arrival`` walks."""
        t = twin(arrival)
        succ, tail = self.succ, self.tail
        after = succ[t] if t in succ else self._link(t)
        node = tail[t]
        self.spliced.add(node)
        for d in darts:
            if d in tail:
                raise MapError("a dart is listed more than once")
            tail[d] = node
            succ[t] = d
            t = d
        succ[t] = after


class CombMap:
    """An embedded multigraph, immutable once built.

    ``rotations`` must list every dart exactly once, at its tail node, and
    must contain the twin of every dart it contains.
    """

    __slots__ = ("rotations", "_pos", "_faces")

    def __init__(self, rotations: Mapping[str, Sequence[Dart]]):
        rot: Dict[str, Tuple[Dart, ...]] = {}
        pos: Dict[Dart, Tuple[str, int]] = {}
        for node in rotations:
            darts = tuple(_as_dart(d) for d in rotations[node])
            rot[node] = darts
            for i, d in enumerate(darts):
                if d in pos:
                    raise MapError(f"dart {d!r} appears in more than one rotation slot")
                pos[d] = (node, i)
        for d in pos:
            if twin(d) not in pos:
                raise MapError(f"dart {d!r} has no twin in the map")
        self.rotations = rot
        self._pos = pos
        self._faces: Tuple[Tuple[Dart, ...], ...] | None = None

    @classmethod
    def _of_checked(cls, rotations: Dict[str, Tuple[Dart, ...]]) -> "CombMap":
        """The map of a ``Drawing``'s rotations, checked there more strictly than here; shared, not copied."""
        self = cls.__new__(cls)
        self.rotations = rotations
        self._pos = {d: (node, i) for node, darts in rotations.items() for i, d in enumerate(darts)}
        self._faces = None
        return self

    def num_segments(self) -> int:
        return len(self._pos) // 2

    def tail(self, dart: Dart) -> str:
        """The node a dart leaves."""
        return self._pos[dart][0]

    def head(self, dart: Dart) -> str:
        """The node a dart enters."""
        return self._pos[twin(dart)][0]

    def successor(self, dart: Dart) -> Dart:
        """The next dart counterclockwise around the tail of ``dart``."""
        node, i = self._pos[dart]
        r = self.rotations[node]
        return r[(i + 1) % len(r)]

    def next_dart(self, dart: Dart) -> Dart:
        """Face successor: the rotation successor of the twin."""
        return self.successor(twin(dart))

    def faces(self) -> Tuple[Tuple[Dart, ...], ...]:
        """All face walks, each starting at its smallest dart, sorted."""
        if self._faces is None:
            seen = set()
            out = []
            for d0 in sorted(self._pos):
                if d0 in seen:
                    continue
                walk = [d0]
                seen.add(d0)
                d = self.next_dart(d0)
                while d != d0:
                    walk.append(d)
                    seen.add(d)
                    d = self.next_dart(d)
                out.append(tuple(walk))
            self._faces = tuple(out)
        return self._faces

    def euler_characteristic(self) -> int:
        return len(self.rotations) - self.num_segments() + len(self.faces())

    def component_of(self, node: str) -> frozenset:
        seen = {node}
        stack = [node]
        while stack:
            n = stack.pop()
            for d in self.rotations[n]:
                h = self.head(d)
                if h not in seen:
                    seen.add(h)
                    stack.append(h)
        return frozenset(seen)

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
        Euler characteristic is unchanged.
        """
        if any(d[0] == edge_id for d in self._pos):
            raise MapError(f"edge id {edge_id!r} already present")
        walk = tuple(face)
        if not walk or any(self.next_dart(walk[i - 1]) != walk[i] for i in range(len(walk))):
            raise MapError("not a face walk of this map")
        if occurrence_u == occurrence_v:
            raise MapError("occurrences must be distinct")
        u = self.tail(walk[occurrence_u])
        v = self.tail(walk[occurrence_v])
        if u == v:
            raise MapError(f"occurrences are incidences of the same node {u!r}")
        rot = Rotations(self.rotations)
        rot.splice(walk[occurrence_u - 1], [(edge_id, 0, "fwd")])
        rot.splice(walk[occurrence_v - 1], [(edge_id, 0, "bwd")])
        return CombMap(rot.lists)
