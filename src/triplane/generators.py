"""Drawing generators: geometric ingestion, tight families, random scenes.

The tight families (hexagonal cylinders, pentagonal rings) are data:
rings, spokes, and faces with their chords, handed to one nested-rings
builder that writes the embedding rule once.  The faces are filled with
straight chords via an exact convex model: the face's vertex cycle is
mapped onto a clockwise convex polygon (points of a parabola, reversed),
chords become secants, and all crossings, crossing orders, and angular
rotations are computed with rational arithmetic in that model.  Because
every face walk maps orientation-faithfully onto a clockwise polygon, the
computed rotations splice consistently into the global counterclockwise
rotation system, which every face edits in place; one ``Drawing`` is
built at the end.  The model depends only on the cycle length and the
chords, so each such pattern is computed once, and numbered once as
offsets from one base number; every face with that pattern numbers all
its chords' segments from one base and adds it to each offset.
Scene ingestion, random scenes and the chord model all accept their
segments through one exact arrangement, so the three share one rule set
and one pass, ``_Arrangement.darts``, that turns segments into darts; the
small straight-line basics are ingested scenes too.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from .combmap import Dart, Rotations
from .drawing import Drawing, EdgeRecord
from .geometry import GeometricScene, Point, SceneError, _meet, ccw_from, ccw_sorted, sub
from .saturate import saturate


class GenerationError(ValueError):
    """A generator was misused or an internal construction invariant broke."""


# -- the exact arrangement behind every straight-line producer ---------------

_Triple = Tuple[int, int, int]  # the point (x/w, y/w) as (x, y, w), w > 0, gcd 1

class _Arrangement:
    """Straight segments between fixed points, accepted one at a time.

    A segment is accepted only if no point lies on it and every accepted
    segment meets it at a shared end or in one proper crossing of
    non-adjacent segments, at a point no other pair crosses, with no
    segment crossed more than 3 times.  Points must be distinct (else
    ``SceneError``) and segments non-degenerate.

    The points are scaled once by the lcm of their coordinates'
    denominators and kept as ``int`` pairs, so every predicate runs in
    integers, and crossings are the reduced triples of ``geometry._meet``
    in the scaled frame; ``Fraction`` is built only for sort keys.  A
    positive scale keeps every orientation, every order along a segment
    and the sorted order of the crossings.  No lattice point lies strictly
    inside a segment whose direction is primitive (gcd 1), so only the
    others are scanned for points on them.  A closed bounding box per
    segment skips the pairs and points that cannot meet it, and a pair
    with a shared end is settled by one orientation unless it is collinear.
    ``darts`` walks each accepted segment once into darts and directions.
    """

    def __init__(self, points: Mapping[Hashable, Point]):
        scale = math.lcm(*(c.denominator for p in points.values() for c in p))
        self.points = {k: (x.numerator * (scale // x.denominator),
                           y.numerator * (scale // y.denominator))
                       for k, (x, y) in points.items()}
        seen: Dict[Tuple[int, int], Hashable] = {}
        for k in sorted(self.points):  # points must be distinct
            if seen.setdefault(self.points[k], k) != k:
                raise SceneError(f"coincident-endpoints: {seen[self.points[k]]!r} and {k!r}")
        self.segments: List[Tuple[str, Hashable, Hashable, int, int, int, int]] = []  # (sid, u, v, closed box)
        self.crossings: Dict[str, List[Tuple[_Triple, str]]] = {}  # (point, other segment)
        self.owner: Dict[_Triple, Tuple[str, str]] = {}            # crossing -> (older, newer)

    def add(self, sid: str, u: Hashable, v: Hashable) -> Optional[str]:
        """Accept segment ``sid`` from u to v, or return why it is refused."""
        pts = self.points
        a, b = pts[u], pts[v]
        ax, ay = a
        rx, ry = b[0] - ax, b[1] - ay
        # strict tests on closed boxes: only what the predicates would call disjoint is skipped
        xlo, xhi, ylo, yhi = min(ax, b[0]), max(ax, b[0]), min(ay, b[1]), max(ay, b[1])
        if math.gcd(rx, ry) > 1:  # else no lattice point lies strictly between a and b
            for nm, (px, py) in pts.items():
                if (xlo <= px <= xhi and ylo <= py <= yhi
                        and nm != u and nm != v and rx * (py - ay) == ry * (px - ax)):
                    return f"vertex-on-edge: point {nm!r} lies on segment {sid!r}"
        found: List[Tuple[_Triple, str]] = []
        for o, c, d, oxlo, oxhi, oylo, oyhi in self.segments:
            if oxhi < xlo or oxlo > xhi or oyhi < ylo or oylo > yhi:
                continue
            if c == u or c == v or d == u or d == v:
                qx, qy = pts[d if c == u or c == v else c]
                if rx * (qy - ay) != ry * (qx - ax):
                    continue  # segments with a shared end meet only there, unless collinear
            # the points are distinct, so a shared endpoint is a shared name: never a crossing
            kind, p = _meet(a, b, pts[c], pts[d])
            if kind == "disjoint" or kind == "shared-endpoint":
                continue
            if kind != "proper":
                return f"{kind}: {o!r} and {sid!r}"
            if p in self.owner:  # o is one of the two owners
                o1, o2 = self.owner[p]
                return f"concurrent-crossing: {o1!r}, {o2!r}, {sid!r} meet at one point"
            if len(self.crossings[o]) == 3:
                return f"too-many-crossings: {o!r} is crossed 4 times"
            found.append((p, o))
            if len(found) == 4:
                return f"too-many-crossings: {sid!r} is crossed 4 times"
        self.segments.append((sid, u, v, xlo, xhi, ylo, yhi))
        self.crossings[sid] = found
        for p, o in found:
            self.owner[p] = (o, sid)
            self.crossings[o].append((p, sid))
        return None

    def darts(self) -> Tuple[Dict[_Triple, int], Dict[str, List[_Triple]],
                             Dict[Hashable, List[Tuple[Dart, Tuple[int, int]]]]]:
        """One walk of every segment along ``[u, *its crossings in order, v]``.

        Returns each crossing's index in the sorted order of the crossing points, each segment's
        crossings in order from its first end, and the (dart, direction) items leaving each node:
        the points in sorted order, then the crossings, keyed by their triples, as found.
        Points on a line lie along it in sorted (x, then y) order, reversed from a larger first end.
        """
        order = sorted(self.owner, key=lambda t: (Fraction(t[0], t[2]), Fraction(t[1], t[2])))
        index = {p: i for i, p in enumerate(order)}
        pts = self.points
        along: Dict[str, List[_Triple]] = {}
        items: Dict[Hashable, List[Tuple[Dart, Tuple[int, int]]]] = {p: [] for p in sorted(pts)}
        items.update((p, []) for p in self.owner)
        for sid, u, v, *_ in self.segments:
            fwd, bwd = sub(pts[v], pts[u]), sub(pts[u], pts[v])
            on = along[sid] = sorted([p for p, _ in self.crossings[sid]], key=index.__getitem__,
                                     reverse=pts[u] > pts[v])
            path = [u, *on, v]
            for i, (a, b) in enumerate(zip(path, path[1:])):  # segment i runs from a to b
                items[a].append(((sid, i, "fwd"), fwd))
                items[b].append(((sid, i, "bwd"), bwd))
        return index, along, items


# -- geometric ingestion -----------------------------------------------------

def ingest_geometry(scene: GeometricScene) -> Drawing:
    """Exactly intersect a straight-line scene and emit the drawing.

    The scene has checked its own rules.  Rejections (each naming the
    offending ids): coincident points, then, for the first segment in scene
    order that breaks one, collinear overlaps (a segment given twice among
    them), a vertex lying on another segment, adjacent segments crossing,
    three segments through one point, more than 3 crossings on a segment.
    """
    arr = _Arrangement(scene.points)
    for sid, (u, v) in scene.segments:
        reason = arr.add(sid, u, v)
        if reason is not None:
            raise SceneError(reason)
    return _drawing_of(arr)


def _drawing_of(arr: _Arrangement) -> Drawing:
    """The drawing of an arrangement of named points, its segments in the order they were accepted."""
    prefix = "x"
    while any(f"{prefix}{i}" in arr.points for i in range(len(arr.owner))):
        prefix = "x" + prefix
    index, along, items = arr.darts()
    xname = {p: f"{prefix}{i}" for p, i in index.items()}
    edges = [EdgeRecord(sid, (u, v), tuple(xname[p] for p in along[sid])) for sid, u, v, *_ in arr.segments]
    rotations = {xname.get(p, p): ccw_sorted(darts) for p, darts in items.items()}
    return Drawing(sorted(arr.points), edges, rotations)


# -- chord insertion in a face ----------------------------------------------

_ChordDart = Tuple[int, int, str]  # a dart (chord index, segment, direction)
_ChordModel = Tuple[Tuple[Tuple[int, ...], ...],                    # along
                    Tuple[Tuple[int, Tuple[_ChordDart, ...]], ...],  # crossings
                    Tuple[Tuple[int, Tuple[_ChordDart, ...]], ...]]  # splices


def _chord_arrangement(m: int, chords: Sequence[Tuple[int, int]],
                       names: Sequence[Hashable]) -> Tuple[_Arrangement, Optional[str]]:
    """The chords, named by ``names``, as secants of the clockwise convex model of an m-cycle.

    Also returns why the model refuses them, naming chords by ``names``,
    or ``None`` if it accepts them all.
    """
    # Clockwise convex model: integer parabola points in reversed order, at
    # x = m-1-i for m <= 8 (fig2 and fig3 are drawn on these) and at
    # x = 2^(m-1-i) from m = 9 on, where three diagonals of the first can
    # meet at one point.
    xs = [m - 1 - i if m <= 8 else 2 ** (m - 1 - i) for i in range(m)]
    arr = _Arrangement({i: (x, x * x) for i, x in enumerate(xs)})
    for e, (i, j) in zip(names, chords):
        reason = arr.add(e, i, j)
        if reason is not None:
            return arr, reason
    return arr, None


@functools.lru_cache(maxsize=16)
def _chord_model(m: int, chords: Tuple[Tuple[int, int], ...]) -> Optional[_ChordModel]:
    """The exact fill of an m-cycle face by ``chords``, computed once per pattern; ``None`` if refused.

    The fill is ``(along, crossings, splices)`` in chord- and crossing-index
    form: ``along[k]`` lists the crossings on chord k in order from its
    first end; ``crossings`` holds each crossing's counterclockwise rotation
    as (crossing index, darts), in the order the arrangement found them;
    and ``splices`` the darts that go into the rotation at each cycle index,
    counterclockwise from the face's boundary, as (cycle index, darts).
    """
    arr, refusal = _chord_arrangement(m, chords, range(len(chords)))
    if refusal is not None:
        return None
    order, on, items = arr.darts()
    along = tuple(tuple(order[p] for p in on[k]) for k in range(len(chords)))
    crossings = tuple((order[p], tuple(ccw_sorted(items[p]))) for p in arr.owner)
    at = arr.points
    splices = tuple((i, tuple(ccw_from(sub(at[(i - 1) % m], at[i]), items[i]))) for i in range(m) if items[i])
    return along, crossings, splices


_ChordOffsets = Tuple[Tuple[Tuple[int, ...], ...],                 # along
                      Tuple[Tuple[int, Tuple[int, ...]], ...],     # crossings
                      Tuple[Tuple[int, Tuple[int, ...]], ...]]     # splices


@functools.lru_cache(maxsize=16)
def _chord_offsets(m: int, chords: Tuple[Tuple[int, int], ...]) -> Optional[_ChordOffsets]:
    """``_chord_model(m, chords)`` with each dart numbered as an offset from one base number.

    Chord k has ``len(along[k]) + 1`` segments; the chords' segments are laid
    out chord after chord from offset 0, so dart ``(k, seg, dir)`` becomes
    ``start[k] + 2*seg + (dir == "fwd")``, where ``start[k]`` is twice the
    segment count of the chords before k.  ``along`` is the model's own;
    ``None`` if the model refuses the chords.
    """
    model = _chord_model(m, chords)
    if model is None:
        return None
    along, crossings, splices = model
    start = [0, *itertools.accumulate(2 * len(on) + 2 for on in along)]

    def offsets(darts: Tuple[_ChordDart, ...]) -> Tuple[int, ...]:
        return tuple(start[k] + 2 * seg + (direction == "fwd") for k, seg, direction in darts)

    return along, tuple((n, offsets(d)) for n, d in crossings), tuple((i, offsets(d)) for i, d in splices)


def add_chords_in_face(
    rot: Rotations,
    edges: Dict[str, EdgeRecord],
    cycle: Sequence[str],
    chords: Sequence[Tuple[int, int]],
    edge_prefix: str,
    crossing_prefix: str,
) -> None:
    """Insert straight chords into the face whose walk visits ``cycle``.

    Edits ``rot`` and ``edges`` (edge id -> record) in place.  ``cycle``
    lists the face's vertices in walk order; of several such walks, the one
    whose face has the smallest dart (in tuple order) wins, then the one
    starting nearest it.  Chords are (i, j) index pairs into the cycle, i < j,
    non-adjacent.  New edges are named ``{edge_prefix}{k}`` in chord order and
    new crossings ``{crossing_prefix}{k}`` ordered by model position.  The
    exact model depends only on the cycle length and the chords, so faces with
    the same pattern share one ``_chord_model`` and its ``_chord_offsets``: the
    store numbers all the chords' segments from one base, added here to each
    cached offset.
    """
    m = len(cycle)
    for i, j in chords:
        if not (0 <= i < j < m) or j - i == 1 or (i == 0 and j == m - 1):
            raise GenerationError(f"bad chord ({i},{j}) for a {m}-cycle")
    pattern = tuple((i, j) for i, j in chords)

    found = []
    for d in rot.darts_at(cycle[0]) if m else ():
        walk = rot.walk(d)
        if len(walk) == m and all(rot.tail[w] == c for w, c in zip(walk, cycle)):
            first = walk.index(min(walk, key=rot.decode.__getitem__))
            found.append((rot.decode[walk[first]], -first % m, walk))
    if not found:
        raise GenerationError(
            f"no face with boundary cycle {list(cycle)} (is it in walk order?)")
    aligned = min(found)[2]

    eid = [f"{edge_prefix}{k}" for k in range(len(pattern))]
    for e in eid:
        if e in edges:
            raise GenerationError(f"edge id {e!r} already used")
    offsets = _chord_offsets(m, pattern)
    if offsets is None:  # the refusal names the caller's edge ids, so it is rebuilt, not cached
        raise GenerationError(_chord_arrangement(m, pattern, eid)[1])
    along, crossings, splices = offsets

    xid = [f"{crossing_prefix}{n}" for n in range(len(crossings))]
    for x in xid:
        if x in rot.first:
            raise GenerationError(f"crossing id {x!r} already used")

    b = rot.new_segments([(e, s) for e, on in zip(eid, along) for s in range(len(on) + 1)])
    for e, (i, j), on in zip(eid, pattern, along):
        edges[e] = EdgeRecord(e, (cycle[i], cycle[j]), tuple([xid[n] for n in on]))
    rot.update({xid[n]: [b + o for o in offs] for n, offs in crossings})
    for i, offs in splices:
        rot.splice(aligned[i - 1], [b + o for o in offs])


# -- the nested-rings families ------------------------------------------------

def _filled_rings(
    rings: Sequence[Tuple[Sequence[str], Sequence[str]]],
    spokes: Sequence[Tuple[str, str, str]],
    fills: Sequence[Tuple[Sequence[str], Sequence[Tuple[int, int]], str, str]],
) -> Drawing:
    """Counterclockwise rings joined by spokes, with chords filled into faces.

    ``rings`` are (vertices, edge ids), innermost first, edge i running from
    vertex i to vertex i+1; ``spokes`` are (id, inner end, outer end), at
    most one outward and one inward spoke per vertex.  The nested-rings
    embedding puts at each vertex, counterclockwise: the outward spoke, the
    ring successor, the inward spoke, the ring predecessor.  The store
    numbers the ring and spoke segments in one ``new_segments`` call and
    links every ring vertex's rotation on those numbers in one ``update``,
    as the chord fill links its crossings.  ``fills`` are
    ``add_chords_in_face`` arguments (cycle, chords, edge prefix, crossing
    prefix), applied in order to that one store.
    """
    edges = {e: EdgeRecord(e, (vs[i], vs[(i + 1) % len(vs)]), ())
             for vs, es in rings for i, e in enumerate(es)}
    edges.update((s, EdgeRecord(s, (a, b), ())) for s, a, b in spokes)
    system = Rotations()
    base = system.new_segments([(e, 0) for e in edges])
    bwd = {e: base + 2 * k for k, e in enumerate(edges)}  # each edge's "bwd" dart; its "fwd" one is next
    outward = {a: bwd[s] + 1 for s, a, _ in spokes}
    inward = {b: bwd[s] for s, _, b in spokes}
    rotations = {}
    for vs, es in rings:
        for i, v in enumerate(vs):
            darts = (outward.get(v), bwd[es[i]] + 1, inward.get(v), bwd[es[i - 1]])
            rotations[v] = [d for d in darts if d is not None]
    system.update(rotations)
    for cycle, chords, edge_prefix, crossing_prefix in fills:
        add_chords_in_face(system, edges, cycle, chords, edge_prefix, crossing_prefix)
    return Drawing([v for vs, _ in rings for v in vs], list(edges.values()), system.lists)


_HEX_SIDE = ((0, 2), (1, 3), (2, 4), (3, 5), (0, 4), (1, 5), (0, 3), (2, 5))  # 8 of 9 diagonals
_HEX_LONGS = ((0, 3), (1, 4), (2, 5))
# A cap: the long diagonals plus the triangle of shorts on the even (index 0)
# or odd (index 1) positions of its walk.
_HEX_CAPS = (_HEX_LONGS + ((0, 2), (0, 4), (2, 4)), _HEX_LONGS + ((1, 3), (1, 5), (3, 5)))


def gen_fig3(layers: int) -> Drawing:
    """Hexagonal cylinder with L layers, densely filled with diagonals.

    n = 6(L+1) vertices on L+1 nested hexagonal rings; three vertical
    edges per layer at alternating positions split each layer into three
    hexagonal faces, which receive 8 of their 9 diagonals; the two cap
    faces receive 6 diagonals each.  Totals: |E| = 5.5n - 15 and
    |X| = 5.5n - 21.
    """
    L = layers
    if L < 1:
        raise GenerationError("gen_fig3 needs at least one layer")

    def V(l: int, p: int) -> str:
        return f"u{l}p{p % 6}"

    rings = [([V(l, p) for p in range(6)], [f"r{l}p{p}" for p in range(6)]) for l in range(L + 1)]
    spokes, fills = [], []
    for l in range(1, L + 1):
        for p in range((l - 1) % 2, 6, 2):
            spokes.append((f"z{l}p{p}", V(l - 1, p), V(l, p)))
            side = [V(l - 1, p), V(l - 1, p + 1), V(l - 1, p + 2), V(l, p + 2), V(l, p + 1), V(l, p)]
            fills.append((side, _HEX_SIDE, f"g{l}p{p}n", f"xg{l}p{p}n"))  # a clockwise walk
    # Each cap's parity is chosen to avoid duplicating layer diagonals on the
    # shared ring; the bottom walk runs clockwise, the top one is the outer face's.
    fills.append(([V(0, -p) for p in range(6)], _HEX_CAPS[1], "gbotn", "xbotn"))
    fills.append(([V(L, p) for p in range(6)], _HEX_CAPS[L % 2], "gtopn", "xtopn"))
    return _filled_rings(rings, spokes, fills)


_PENT_CHORDS = ((0, 2), (1, 3), (2, 4), (0, 3), (1, 4))


def gen_fig2(rings: int) -> Drawing:
    """Nested pentagonal rings with a pentagram in every pentagonal face.

    Rings k = 0..R alternate between 5-cycles (k even) and 10-cycles
    (k odd); spokes tie consecutive rings so that every annulus splits
    into five pentagonal faces.  Every pentagonal face — including the
    inner cap and, when ring R is a 5-cycle, the outer cap — receives all
    five diagonals, which pairwise cross: 5 crossings per face, every
    diagonal crossed exactly twice.
    """
    R = rings
    if R < 1:
        raise GenerationError("gen_fig2 needs at least one ring")

    def size(k: int) -> int:
        return 10 if k % 2 else 5

    def W(k: int, j: int) -> str:
        return f"w{k}j{j % size(k)}"

    ring_list = [([W(k, j) for j in range(size(k))], [f"r{k}j{j}" for j in range(size(k))])
                 for k in range(R + 1)]
    spokes = []
    faces = [[W(0, -j) for j in range(5)]]  # inner cap, clockwise
    for k in range(R):
        for i in range(5):
            # face i of annulus k: its positions on ring k, then on ring k+1; spoke i joins the firsts
            inner, outer = ((range(i, i + 2), range(2 * i, 2 * i + 3)) if k % 2 == 0
                            else (range(2 * i + 1, 2 * i + 4), range(i, i + 2)))
            spokes.append((f"s{k}i{i}", W(k, inner[0]), W(k + 1, outer[0])))
            faces.append([W(k, j) for j in inner] + [W(k + 1, j) for j in reversed(outer)])
    if R % 2 == 0:
        faces.append([W(R, j) for j in range(5)])  # outer cap, counterclockwise walk
    fills = [(cycle, _PENT_CHORDS, f"q{fi}n", f"xq{fi}n") for fi, cycle in enumerate(faces)]
    return _filled_rings(ring_list, spokes, fills)


# -- basic named instances -----------------------------------------------------

def _ingested(points: Dict[str, Tuple[int, int]], *segments: Tuple[str, Tuple[str, str]]) -> Drawing:
    """The drawing of a straight-line scene on integer points."""
    return ingest_geometry(GeometricScene(points, segments))


def _basic_lens_bad() -> Drawing:
    edges = [EdgeRecord("e0", ("a", "b"), ()), EdgeRecord("e1", ("a", "b"), ())]
    rotations = {
        "a": [("e0", 0, "fwd"), ("e1", 0, "fwd")],
        "b": [("e0", 0, "bwd"), ("e1", 0, "bwd")],
    }
    return Drawing(["a", "b"], edges, rotations)


_BASIC = {
    "k2": lambda: _ingested({"a": (0, 0), "b": (1, 0)}, ("e0", ("a", "b"))),
    "k3": lambda: _ingested({"a": (0, 0), "b": (1, 0), "c": (0, 1)},
                            ("e0", ("a", "b")), ("e1", ("b", "c")), ("e2", ("c", "a"))),
    "path3": lambda: _ingested({"a": (-1, 0), "b": (0, 0), "c": (0, -1)},
                               ("e0", ("a", "b")), ("e1", ("b", "c"))),
    "x1": lambda: _ingested({"v0": (-1, 0), "v1": (1, 0), "v2": (0, -1), "v3": (0, 1)},
                            ("e0", ("v0", "v1")), ("e1", ("v2", "v3"))),
    "lens-bad": _basic_lens_bad,
    # a pentagram whose top tip is cut off by chords re-anchored at w1, w2: one XTRI-XPENT trail
    "fig3a-micro": lambda: saturate(_ingested(
        {"v1": (5, 1), "v2": (3, -4), "v3": (-3, -4), "v4": (-5, 1), "w1": (-2, 7), "w2": (2, 7)},
        ("c0", ("w1", "v2")), ("c1", ("v1", "v3")), ("c2", ("v2", "v4")),
        ("c3", ("v3", "w2")), ("c4", ("v4", "v1")))),
    # a pentagram of five chords; saturation turns it into the flower
    "fig4-flower": lambda: saturate(_ingested(
        {"v0": (0, 5), "v1": (5, 1), "v2": (3, -4), "v3": (-3, -4), "v4": (-5, 1)},
        ("c0", ("v0", "v2")), ("c1", ("v1", "v3")), ("c2", ("v2", "v4")),
        ("c3", ("v3", "v0")), ("c4", ("v4", "v1")))),
}
BASIC_NAMES = tuple(_BASIC)


def gen_basic(name: str) -> Drawing:
    """Small named instances; 'lens-bad' is intentionally invalid."""
    if name not in _BASIC:
        raise GenerationError(f"unknown basic drawing {name!r}; known: {', '.join(BASIC_NAMES)}")
    return _BASIC[name]()


# -- random scenes -------------------------------------------------------------

_GRID = range(-60, 61)  # each coordinate of a random point


def build_random_scene(n: int, edge_budget: int, seed: int) -> GeometricScene:
    """Deterministic random straight-line scene that ingest_geometry accepts.

    n distinct grid points with coordinates in -60..60 (so n <= 14641);
    candidate segments tried in a seeded random order and accepted greedily
    while the scene stays ingestible (no point on a segment, <= 3 crossings
    per segment, no concurrency).
    If the greedy pass under ``edge_budget`` leaves the scene disconnected,
    a repair pass adds component-joining segments beyond the budget.
    """
    pts, arr = _random_arrangement(n, edge_budget, seed)
    return GeometricScene(pts, tuple([(sid, (u, v)) for sid, u, v, *_ in arr.segments]))


def _random_arrangement(n: int, edge_budget: int, seed: int) -> Tuple[Dict[str, Point], _Arrangement]:
    """The points of ``build_random_scene`` and the arrangement that accepted its segments."""
    if n < 1:
        raise GenerationError("need at least one point")
    if n > len(_GRID) ** 2:
        raise GenerationError(f"n={n} exceeds the {len(_GRID) ** 2} distinct grid points")
    if edge_budget < 0:
        raise GenerationError(f"edge budget must be nonnegative, got {edge_budget}")
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(n)]
    pts: Dict[str, Point] = {}
    used = set()
    for nm in names:
        while True:
            x, y = rng.randrange(_GRID.start, _GRID.stop), rng.randrange(_GRID.start, _GRID.stop)
            if (x, y) not in used:
                used.add((x, y))
                pts[nm] = (Fraction(x), Fraction(y))
                break

    pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)

    arr = _Arrangement(pts)

    def try_add(u: str, v: str) -> bool:
        return arr.add(f"e{len(arr.segments)}", u, v) is None

    for u, v in pairs:
        if len(arr.segments) >= edge_budget:
            break
        try_add(u, v)

    # connectivity repair: join remaining components, budget or not
    parent = {nm: nm for nm in names}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for _, u, v, *_ in arr.segments:
        parent[find(u)] = find(v)
    components = len({find(nm) for nm in names})
    # one sweep: the arrangement only grows, so a refused pair stays refused
    for u, v in pairs:
        if components == 1:
            break
        if find(u) != find(v) and try_add(u, v):
            parent[find(u)] = find(v)
            components -= 1
    if components > 1:
        raise GenerationError(f"could not connect the scene for n={n}, seed={seed}")
    return pts, arr


def random_drawing(n: int, edge_budget: int, seed: int) -> Drawing:
    """Seeded random 3-plane drawing, byte-deterministic per parameters.

    It is ``ingest_geometry(build_random_scene(n, edge_budget, seed))``,
    built from the arrangement that accepted the scene's segments rather
    than from a second one that would accept them all again.
    """
    if n < 3:
        raise GenerationError("random_drawing needs n >= 3")
    return _drawing_of(_random_arrangement(n, edge_budget, seed)[1])
