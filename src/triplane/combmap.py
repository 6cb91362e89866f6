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
    """The one dart store: a rotation system, edited in place by producers that insert edges.

    ``tail`` maps each dart to its node, ``first`` each node to the first
    dart given for it (``None`` for a node without darts), and ``succ``
    each dart to the next dart counterclockwise around its tail, so a
    face step and a splice cost the same at a node of any degree.  A
    node's darts enter ``succ`` when the node is added.  A splice never
    goes before a node's first dart, so ``lists`` gives each rotation
    from that dart.  A ``CombMap`` or ``Drawing`` built from ``lists``
    checks the result.
    """

    __slots__ = ("first", "succ", "tail")

    def __init__(self, rotations: Mapping[str, Sequence[Dart]]):
        self.first, self.succ, self.tail = {}, {}, {}
        self.update(rotations)

    @classmethod
    def _sharing(cls, rotations: Dict[str, Tuple[Dart, ...]], tail: Dict[Dart, str]) -> "Rotations":
        """The store of ``rotations`` over their dart -> node table ``tail``, checked and shared, not copied."""
        self = cls.__new__(cls)
        self.first, self.succ, self.tail = {}, {}, tail
        self._add(rotations)
        return self

    def copy(self) -> "Rotations":
        """An independent store of the same rotations: the three dicts copied, nothing re-enumerated."""
        other = Rotations.__new__(Rotations)
        other.first, other.succ, other.tail = dict(self.first), dict(self.succ), dict(self.tail)
        return other

    def update(self, rotations: Mapping[str, Sequence[Dart]]) -> None:
        """Add nodes, each with its whole rotation."""
        added = {node: tuple(darts) for node, darts in rotations.items()}
        listed = len(self.tail) + sum(map(len, added.values()))
        self.tail.update({d: node for node, darts in added.items() for d in darts})
        if len(self.tail) != listed:
            raise MapError("a dart is listed more than once")
        self._add(added)

    def _add(self, rotations: Mapping[str, Tuple[Dart, ...]]) -> None:
        for node, darts in rotations.items():
            self.first[node] = darts[0] if darts else None
            self.succ.update(zip(darts, darts[1:] + darts[:1]))

    def darts_at(self, node: str) -> Tuple[Dart, ...]:
        """The counterclockwise darts at ``node`` from its first one; empty for an unknown node."""
        d0 = self.first.get(node)
        if d0 is None:
            return ()
        out = [d0]
        d = self.succ[d0]
        while d != d0:
            out.append(d)
            d = self.succ[d]
        return tuple(out)

    @property
    def lists(self) -> Dict[str, Tuple[Dart, ...]]:
        """Every node's rotation, in the order the nodes were added."""
        return {node: self.darts_at(node) for node in self.first}

    def next_dart(self, dart: Dart) -> Dart:
        """Face successor: the rotation successor of the twin."""
        edge, seg, direction = dart
        return self.succ[edge, seg, "bwd" if direction == "fwd" else "fwd"]  # twin(dart), inlined in this hot step

    def walk(self, dart: Dart) -> Tuple[Dart, ...]:
        """The face walk that starts at ``dart``."""
        succ = self.succ
        out = [dart]
        e, s, r = dart
        d = succ[e, s, "bwd" if r == "fwd" else "fwd"]  # next_dart, inlined in this hot loop
        while d != dart:
            out.append(d)
            e, s, r = d
            d = succ[e, s, "bwd" if r == "fwd" else "fwd"]
        return tuple(out)

    def splice(self, arrival: Dart, darts: Sequence[Dart]) -> None:
        """Insert ``darts`` in order just after ``twin(arrival)``, inside the face ``arrival`` walks."""
        t = twin(arrival)
        succ, tail = self.succ, self.tail
        after = succ[t]
        node = tail[t]
        for d in darts:
            if d in tail:
                raise MapError("a dart is listed more than once")
            tail[d] = node
            succ[t] = d
            t = d
        succ[t] = after


class CombMap:
    """An embedded multigraph: a checked, read-only view over one ``Rotations``.

    ``rotations`` must list every dart exactly once, at its tail node, and
    must contain the twin of every dart it contains.
    """

    __slots__ = ("rotations", "_rot", "_faces")

    def __init__(self, rotations: Mapping[str, Sequence[Dart]]):
        rot = {node: tuple(map(_as_dart, darts)) for node, darts in rotations.items()}
        store = Rotations(rot)
        for d in store.tail:
            if twin(d) not in store.tail:
                raise MapError(f"dart {d!r} has no twin in the map")
        self.rotations, self._rot, self._faces = rot, store, None

    @classmethod
    def _of_checked(cls, rotations: Dict[str, Tuple[Dart, ...]], tail: Dict[Dart, str]) -> "CombMap":
        """The map of a ``Drawing``'s rotations and dart -> node table, checked there; shared, not copied."""
        self = cls.__new__(cls)
        self.rotations, self._rot, self._faces = rotations, Rotations._sharing(rotations, tail), None
        return self

    def num_segments(self) -> int:
        return len(self._rot.tail) // 2

    def tail(self, dart: Dart) -> str:
        """The node a dart leaves."""
        return self._rot.tail[dart]

    def faces(self) -> Tuple[Tuple[Dart, ...], ...]:
        """All face walks, each starting at its smallest dart, sorted."""
        if self._faces is None:
            seen, out = set(), []
            for d0 in sorted(self._rot.tail):
                if d0 not in seen:
                    out.append(self._rot.walk(d0))
                    seen.update(out[-1])
            self._faces = tuple(out)
        return self._faces

    def euler_characteristic(self) -> int:
        return len(self.rotations) - self.num_segments() + len(self.faces())

    def component_of(self, node: str) -> frozenset:
        tail = self._rot.tail
        seen, stack = {node}, [node]
        while stack:
            for d in self.rotations[stack.pop()]:
                h = tail[twin(d)]
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
        if any(d[0] == edge_id for d in self._rot.tail):
            raise MapError(f"edge id {edge_id!r} already present")
        walk = tuple(face)
        try:
            known = bool(walk) and all(d in self._rot.tail for d in walk)
        except TypeError:  # an unhashable entry is not a dart
            known = False
        if not known or any(self._rot.next_dart(walk[i - 1]) != walk[i] for i in range(len(walk))):
            raise MapError("not a face walk of this map")
        for k in (occurrence_u, occurrence_v):
            if type(k) is not int or not 0 <= k < len(walk):
                raise MapError(f"occurrence {k!r} is not an index into the face walk")
        u = self.tail(walk[occurrence_u])
        v = self.tail(walk[occurrence_v])
        if u == v:
            raise MapError(f"occurrences are incidences of the same node {u!r}")
        rot = self._rot.copy()
        rot.splice(walk[occurrence_u - 1], [(edge_id, 0, "fwd")])
        rot.splice(walk[occurrence_v - 1], [(edge_id, 0, "bwd")])
        return CombMap(rot.lists)
