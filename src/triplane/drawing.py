"""Topological drawings of multigraphs with crossings, and their JSON format.

A drawing records vertices, edges (each with the ordered list of its
crossings), and the counterclockwise rotation of darts around every vertex
and crossing.  An edge with k crossings is divided into segments 0..k;
segment i runs from point i to point i+1, where point 0 is ``ends[0]``,
point k+1 is ``ends[1]``, and points 1..k are the crossings in order.
Dart ``(e, i, "fwd")`` leaves point i toward point i+1; ``"bwd"`` the
reverse.

The JSON wire format::

    {"vertices": ["v1", ...],
     "edges": [{"id": "e1", "ends": ["v1", "v2"], "crossings": ["x1", ...]}, ...],
     "rotations": {"<node>": [{"edge": "e1", "seg": 0, "dir": "fwd"}, ...], ...}}

Ids hold no surrogate code point: escaped, a lone pair would read as the astral
character it encodes.  Canonical form: ``json.dumps(obj, sort_keys=True,
separators=(",", ":"))`` (ASCII, other characters escaped) plus a newline, of
the wire object with vertices sorted, edges sorted by id, rotation keys sorted
and each rotation list rotated to start at its smallest dart.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

from .combmap import CombMap, Dart, MapError, smallest_first

Segment = Tuple[str, int]


class TDRError(ValueError):
    """A drawing file that cannot be accepted, with the violated invariant."""


_SURROGATE = re.compile("[\\ud800-\\udfff]")  # no id may hold one (see the module docstring)


class EdgeRecord(NamedTuple):
    id: str
    ends: Tuple[str, str]
    crossings: Tuple[str, ...]


class Drawing:
    """An immutable drawing; construction performs all structural checks.

    Structural soundness (ids resolve, every crossing lies on exactly two
    edge records, rotations cover every dart exactly once at its tail) is
    enforced here; geometric plausibility (planarity of the rotation
    system, crossing alternation, and so on) is the job of ``validate``.
    """

    __slots__ = ("vertices", "edges", "rotations", "crossings", "_map",
                 "_vertex_set", "_report", "_cells", "_saturated", "_text")

    def __init__(
        self,
        vertices: Sequence[str],
        edges: Sequence[EdgeRecord],
        rotations: Mapping[str, Sequence[Dart]],
    ):
        verts = tuple(vertices)
        if not all(isinstance(v, str) and v for v in verts):
            raise TDRError("vertex ids must be nonempty strings")
        if len(set(verts)) != len(verts):
            raise TDRError("duplicate vertex id")
        vset = frozenset(verts)

        emap: Dict[str, EdgeRecord] = {}
        occ: Dict[str, List[Tuple[str, int]]] = {}
        paths: Dict[str, Tuple[str, ...]] = {}  # each edge's points: end, crossings, end
        for e in edges:
            eid, ends, xs = e
            if not (isinstance(eid, str) and eid):
                raise TDRError("edge ids must be nonempty strings")
            if eid in emap:
                raise TDRError(f"duplicate edge id {eid!r}")
            u, v = ends if type(ends) is tuple and len(ends) == 2 else (None, None)
            if not (isinstance(u, str) and u in vset and isinstance(v, str) and v in vset):
                raise TDRError(f"edge {eid!r} has an end that is not a vertex")
            if not isinstance(xs, tuple):
                raise TDRError(f"edge {eid!r}: crossings must be a tuple")
            emap[eid] = e
            if not xs:
                paths[eid] = (u, v)
                continue
            for i, x in enumerate(xs):
                if not (isinstance(x, str) and x):
                    raise TDRError(f"edge {eid!r}: crossing ids must be nonempty strings")
                if x in vset:
                    raise TDRError(f"crossing id {x!r} collides with a vertex id")
                occ.setdefault(x, []).append((eid, i))
            paths[eid] = (u, *xs, v)
        for x, places in occ.items():
            if len(places) != 2:
                raise TDRError(f"dangling crossing {x!r}: appears on {len(places)} edge slot(s), expected 2")
        ids = "".join(chain(verts, emap, occ))  # one scan for the whole drawing
        if not ids.isascii() and _SURROGATE.search(ids):
            bad = next(s for s in chain(verts, emap, occ) if _SURROGATE.search(s))
            raise TDRError(f"id {bad!r} contains a surrogate code point")

        try:
            self._map = CombMap(rotations, paths, vset.union(occ))  # the one numbered map of this drawing
        except MapError as exc:
            raise TDRError(str(exc)) from None

        self.vertices = verts
        self.edges = emap
        self.rotations = self._map.rotations
        self._vertex_set = vset
        # Crossing id -> its two (edge, position) occurrences, sorted.
        self.crossings = {x: (a, b) if a < b else (b, a) for x, (a, b) in occ.items()}
        self._report: ValidationReport | None = None
        self._cells = None  # census._classified's cell table, built on first use
        self._saturated: bool | None = None  # census.is_3saturated's answer, worked out on first use
        self._text: str | None = None

    # -- basic geometry of the incidence structure ------------------------

    def planarize(self) -> CombMap:
        """The map whose nodes are the vertices and crossings: the one ``Drawing(...)`` numbered and checked."""
        return self._map

    def _validation(self) -> "ValidationReport":
        """``validate(self)``, computed on first use and kept."""
        if self._report is None:
            self._report = validate(self)
        return self._report

    def canonical(self) -> str:
        """``serialize_tdr(self)``, written on first use and kept; equality and hashing use it."""
        if self._text is None:
            self._text = serialize_tdr(self)
        return self._text

    def __eq__(self, other) -> bool:
        return isinstance(other, Drawing) and self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())


# -- JSON interchange ------------------------------------------------------

_DART_KEYS = frozenset(("edge", "seg", "dir"))
_EDGE_KEYS = frozenset(("id", "ends", "crossings"))
_DART_FIELDS = itemgetter("edge", "seg", "dir")  # a dart object's (edge, seg, dir)


def _malformed_dart(lst: list) -> TDRError:
    """The error that names the first dart object in ``lst`` that is not an object with exactly edge, seg, dir."""
    bad = next(o for o in lst if not isinstance(o, dict) or o.keys() != _DART_KEYS)
    return TDRError(f"malformed dart object {bad!r}")


def _load_json(text: str, error: type) -> object:
    """``json.loads(text)``; each way it fails is raised as ``error("syntax: ...")``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"syntax: {exc.msg} at line {exc.lineno} column {exc.colno}") from None
    except RecursionError:
        raise error("syntax: JSON nested too deeply") from None
    except ValueError as exc:  # an integer literal past CPython's digit limit
        raise error(f"syntax: {exc}") from None


def parse_tdr(text: str) -> Drawing:
    """Parse the JSON wire format; raises TDRError on any defect."""
    obj = _load_json(text, TDRError)
    if not isinstance(obj, dict):
        raise TDRError("top level must be an object")
    if set(obj) != {"vertices", "edges", "rotations"}:
        raise TDRError("top level must have exactly the keys vertices, edges, rotations")
    if not isinstance(obj["vertices"], list):
        raise TDRError("vertices must be a list")
    edges = []
    if not isinstance(obj["edges"], list):
        raise TDRError("edges must be a list")
    for e in obj["edges"]:
        if not (isinstance(e, dict) and e.keys() == _EDGE_KEYS):
            raise TDRError(f"edge record must have exactly id, ends, crossings: {e!r}")
        ends, crossings = e["ends"], e["crossings"]
        if not (isinstance(ends, list) and len(ends) == 2):
            raise TDRError(f"edge {e.get('id')!r}: ends must be a pair")
        if not isinstance(crossings, list):
            raise TDRError(f"edge {e.get('id')!r}: crossings must be a list")
        edges.append(EdgeRecord(e["id"], tuple(ends), tuple(crossings)))
    if not isinstance(obj["rotations"], dict):
        raise TDRError("rotations must be an object")
    rotations = {}
    for node, lst in obj["rotations"].items():
        if not isinstance(lst, list):
            raise TDRError(f"rotation at {node!r} must be a list")
        try:
            rotations[node] = tuple(map(_DART_FIELDS, lst))
        except (TypeError, KeyError):
            raise _malformed_dart(lst) from None
        if sum(map(len, lst)) != 3 * len(lst):  # each has edge, seg and dir, so some other key too
            raise _malformed_dart(lst)
    vertices = obj["vertices"]
    del obj  # the decoded objects go before the map is numbered
    return Drawing(vertices, edges, rotations)


def serialize_tdr(drawing: Drawing) -> str:
    """The canonical form, written directly: each id escaped once as ``json.dumps`` escapes it."""
    q = {s: encode_basestring_ascii(s) for s in chain(drawing.vertices, drawing.edges, drawing.crossings)}
    edges = ",".join([f'{{"crossings":[{",".join([q[x] for x in e.crossings])}],'
                      f'"ends":[{q[e.ends[0]]},{q[e.ends[1]]}],"id":{q[e.id]}}}'
                      for e in map(drawing.edges.__getitem__, sorted(drawing.edges))])
    rot = drawing.rotations
    rotations = ",".join([q[node] + ":[" + ",".join([f'{{"dir":"{d}","edge":{q[e]},"seg":{seg}}}'
                                                   for e, seg, d in smallest_first(rot[node])]) + "]"
                          for node in sorted(rot)])
    vertices = ",".join([q[v] for v in sorted(drawing.vertices)])
    return f'{{"edges":[{edges}],"rotations":{{{rotations}}},"vertices":[{vertices}]}}\n'


def frac_to_str(f: Fraction) -> str:
    """A rational on the wire: ``"p/q"`` in lowest terms, ``q`` positive."""
    return f"{f.numerator}/{f.denominator}"


def _wire(value):
    """One field of a report on the wire; ``type() is`` keeps Fraction's ABC checks out of the way."""
    kind = type(value)
    if kind is Fraction:
        return frac_to_str(value)
    if kind is tuple:
        return [_wire(v) for v in value]
    if isinstance(value, Report):
        return value.as_dict()
    return value


class Report:
    """A dataclass report, written as JSON by one rule.

    ``as_dict`` writes the fields by name, ``passed`` as ``"pass"``, tuples
    as lists, nested reports as objects and every ``Fraction`` as ``"p/q"``.
    """

    def as_dict(self) -> dict:
        return {"pass" if k == "passed" else k: _wire(getattr(self, k)) for k in self.__dataclass_fields__}


# -- validation -------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult(Report):
    name: str
    passed: bool
    witnesses: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ValidationReport(Report):
    valid: bool
    checks: Tuple[CheckResult, ...]

    def failing(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.passed)

    def refuse_invalid(self, error: type) -> None:
        """Raise ``error("drawing is not valid: <failing checks>")`` unless the drawing is valid."""
        if not self.valid:
            raise error("drawing is not valid: " + ", ".join(self.failing()))


def validate(drawing: Drawing) -> ValidationReport:
    """Run the eight validity checks; witnesses name offending objects."""
    results = []

    loops = tuple(e.id for e in drawing.edges.values() if e.ends[0] == e.ends[1])
    results.append(CheckResult("no-loops", not loops, tuple(sorted(loops))))

    heavy = tuple(sorted(e.id for e in drawing.edges.values() if len(e.crossings) > 3))
    results.append(CheckResult("3-plane", not heavy, heavy))

    # One pass over the crossings: self-crossing, crossing of adjacent
    # edges, and a rotation that does not alternate e1, e2, e1, e2.  Each
    # check's witnesses are listed in id order.
    selfx, adjacent, nonalt = [], [], []
    edges, rotations = drawing.edges, drawing.rotations
    for x, ((e1, _), (e2, _)) in drawing.crossings.items():
        if e1 == e2:
            selfx.append(x)
        else:
            (a, b), (c, d) = edges[e1].ends, edges[e2].ends
            if a == c or a == d or b == c or b == d:
                adjacent.append(x)
        rot = rotations[x]
        if not (len(rot) == 4 and rot[0][0] == rot[2][0] and rot[1][0] == rot[3][0]
                and (rot[0][0], rot[1][0]) in ((e1, e2), (e2, e1))):
            nonalt.append(x)
    results.append(CheckResult("no-self-cross", not selfx, tuple(sorted(selfx))))
    results.append(CheckResult("no-adjacent-cross", not adjacent, tuple(sorted(adjacent))))
    results.append(CheckResult("crossing-alternation", not nonalt, tuple(sorted(nonalt))))

    cmap = drawing.planarize()
    euler = cmap.euler_characteristic()
    results.append(CheckResult("sphere", euler == 2, () if euler == 2 else (f"euler={euler}",)))

    reached = cmap.component_of(min(cmap.rotations)) if cmap.rotations else frozenset()
    stranded = set(cmap.rotations) - reached
    results.append(CheckResult("connected", not stranded, (min(stranded),) if stranded else ()))

    lenses = set()
    decode = cmap.decode
    for walk in cmap.walks():
        if len(walk) == 2 and walk[0] >> 1 != walk[1] >> 1:  # two darts of two segments
            a, b = sorted((decode[walk[0]][:2], decode[walk[1]][:2]))
            lenses.add(f"{a[0]}:{a[1]}|{b[0]}:{b[1]}")
    results.append(CheckResult("non-homotopic", not lenses, tuple(sorted(lenses))))

    return ValidationReport(all(c.passed for c in results), tuple(results))


# -- headline counts --------------------------------------------------------

@dataclass(frozen=True)
class DrawingStats(Report):
    n: int
    E: int
    X: int
    E0: int
    E1: int
    E2: int
    E3: int
    Ex: int


def stats(drawing: Drawing) -> DrawingStats:
    by_load = [0, 0, 0, 0]
    for e in drawing.edges.values():
        k = len(e.crossings)
        if k <= 3:  # an edge with more is not 3-plane; still counted in E and Ex
            by_load[k] += 1
    e0 = by_load[0]
    return DrawingStats(
        n=len(drawing.vertices),
        E=len(drawing.edges),
        X=len(drawing.crossings),
        E0=e0,
        E1=by_load[1],
        E2=by_load[2],
        E3=by_load[3],
        Ex=len(drawing.edges) - e0,
    )
