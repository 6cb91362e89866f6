"""Cell, trail, and configuration censuses of a drawing, and whether it is 3-saturated.

Cells are the faces of the planarization.  The size of a cell is its
number of segment incidences plus its number of vertex incidences; a cell
is degenerate when some vertex or crossing appears more than once among
the tails of its walk.  Small non-degenerate cells fall into a short list
of named types; trails are the maximal corridors of quadrilateral
crossing-only cells threaded by the inner segments; configurations are
the small cell clusters the counting rows charge against.

The census reads only the planarization, its own cell table and the edge
records, and counts on numbers: cells by their index in ``walks()``, darts
by number.  It reads the other edge at a crossing off the rotation, so it
needs alternating crossings; ``census`` and ``extract_trails`` refuse a
drawing that ``validate`` fails with ``CensusError``, naming the failing checks.
Past that it trusts the cell table ``_classified`` builds: a cell's type fixes
its walk's length and which darts leave a vertex.  Every trail's walls are the
other edges at the two crossings of the segment it was found from.
Cell ids (``"c{k}"``) and ``(edge, seg)`` names are written only when a
report's cells, trails or configurations are first read.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, count
from operator import itemgetter
from typing import Collection, Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .combmap import Dart
from .drawing import Drawing, Segment, stats

CELL_COUNT_KEYS = ("XTRI", "XQUAD", "VTRI", "VQUAD", "XPENT", "VVTRI", "KITE", "LARGE", "OTHER")
TRAIL_END_TYPES = ("LARGE", "VQUAD", "VTRI", "XPENT", "XTRI")
CFG_KEYS = ("CFG9", "CFG10", "CFG12", "CFG13", "CFG14", "CFG15", "CFG18")

CROSSING_EVEN_TYPES = frozenset({"VTRI", "XPENT", "XTRI"})


class CensusError(ValueError):
    """The census cannot be computed on this input."""


class WitnessError(CensusError):
    """A structure the counting rows promise is absent."""

    def __init__(self, obj: str, detail: str):
        super().__init__(f"missing witness: {obj}: {detail}")
        self.obj = obj
        self.detail = detail


class CellRecord(NamedTuple):
    cell_id: str
    walk: Tuple[Dart, ...]
    size: int
    vertex_incidences: int
    crossing_incidences: int
    segment_incidences: int
    degenerate: bool


# The non-degenerate cells of size below 6, by (segment, vertex) incidences; the rest are OTHER.
_SMALL = {(3, 0): "XTRI", (4, 0): "XQUAD", (3, 1): "VTRI", (5, 0): "XPENT", (4, 1): "VQUAD", (3, 2): "VVTRI"}


def _kind(s: int, v: int, degenerate: bool, leaves: Sequence[bool]) -> str:
    """The type of a cell of ``s`` segment and ``v`` vertex incidences; the one rule set.

    ``leaves[j]`` tells whether dart ``j`` of the cell's walk leaves a vertex;
    it runs to the corner dart ``j + 1`` leaves.  A cell of two vertices, two
    crossings and four segments is a KITE when a segment has two crossing
    ends: when its two crossings are consecutive on its walk.
    """
    if s + v >= 6:
        kite = v == 2 and s == 4 and not degenerate and any(not (leaves[j - 1] or leaves[j]) for j in range(4))
        return "KITE" if kite else "LARGE"
    return "OTHER" if degenerate else _SMALL.get((s, v), "OTHER")


class _Cells(NamedTuple):
    """A drawing's cells by index: size, vertex incidences and type of cell ``k``; does dart ``i`` leave a vertex.

    Cell ``k``'s walk as dart numbers is the planarization's ``walks()[k]``
    and its id is ``"c{k}"``; ``face_of()[i]`` is the cell whose walk holds
    dart ``i``, so the cell across dart ``i``'s segment is ``face_of()[i ^ 1]``.
    """
    sizes: List[int]
    vertex_incidences: List[int]
    leaves: List[bool]
    kinds: List[str]


def _classified(drawing: Drawing) -> _Cells:
    """The drawing's cell table, on dart numbers; built once per drawing and kept."""
    if drawing._cells is None:
        cmap, vset = drawing.planarize(), drawing._vertex_set
        tail = cmap.tail
        at = [t in vset for t in tail]  # does dart i leave a vertex
        leaving, tail_of = at.__getitem__, tail.__getitem__
        sizes, incidences, kinds = [], [], []
        for walk in cmap.walks():
            s, leaves = len(walk), list(map(leaving, walk))
            v = sum(leaves)
            sizes.append(s + v)
            incidences.append(v)
            kinds.append(_kind(s, v, len(set(map(tail_of, walk))) < s, leaves))
        drawing._cells = _Cells(sizes, incidences, at, kinds)
    return drawing._cells


def cells(drawing: Drawing) -> Tuple[CellRecord, ...]:
    """All cells, ids assigned in sorted order of their canonical walks: the named view of the cell table.

    Of any drawing, valid or not: ``census()`` is the verdict that refuses an invalid one."""
    cmap, table = drawing.planarize(), _classified(drawing)
    return tuple([CellRecord(f"c{k}", walk, size, v, size - 2 * v, size - v, len({cmap.tail[i] for i in ds}) < len(ds))
                  for k, (walk, ds, size, v) in enumerate(zip(cmap.faces(), cmap.walks(), table.sizes,
                                                              table.vertex_incidences))])


def classify_cell(drawing: Drawing, record: CellRecord) -> str:
    """One of XTRI, XQUAD, VTRI, VQUAD, XPENT, VVTRI, KITE, LARGE, OTHER: the cell table's type of ``record``.

    Of any drawing, valid or not: ``census()`` is the verdict that refuses an invalid one."""
    return _classified(drawing).kinds[int(record.cell_id[1:])]


# -- filledness --------------------------------------------------------------

def filled_witness(drawing: Drawing) -> Optional[Tuple[str, str, str]]:
    """First (cell id, u, v) whose cell has no uncrossed u-v edge on its boundary.

    A drawing is filled when every pair of distinct vertices incident to a
    common cell is joined by an uncrossed edge on that cell's boundary.
    Cells are scanned in lexicographic id order and vertex pairs in
    lexicographic order, so the witness is deterministic.
    """
    return next(((f"c{k}", u, v) for k, (u, v) in _witnesses(drawing)), None)


def _witnesses(drawing: Drawing) -> Iterator[Tuple[int, Tuple[str, str]]]:
    """Each cell ``c{k}`` that is not filled, as (k, its first unjoined pair), in cell id order.

    Only LARGE cells with two or more vertex incidences and more than three
    segments are walked, by ``_cell_witness`` on the tails of their walks.
    Every other cell is filled by its shape.  A walk of at most three
    segments has no unjoined pair (see ``_cell_witness``), and every VVTRI
    and every OTHER cell with two or more vertex incidences is one: its size
    is below 6.  The other types have fewer than two vertex incidences, so
    no pair to join, except KITE: its two vertices are consecutive on the
    walk, and a segment whose ends are both vertices is a whole uncrossed edge.
    """
    sizes, incidences, _, kinds = _classified(drawing)
    cmap = drawing.planarize()
    walks, tail, vertices = cmap.walks(), cmap.tail, drawing._vertex_set
    walked = [k for k, (size, v, kind) in enumerate(zip(sizes, incidences, kinds))
              if v >= 2 and size - v > 3 and kind == "LARGE"]
    for k in sorted(walked, key=str):  # cell "c{k}" in id order: "c10" comes before "c2"
        witness = _cell_witness([tail[i] for i in walks[k]], vertices)
        if witness is not None:
            yield k, witness


def _cell_witness(tails: Sequence[str], vertices: FrozenSet[str]) -> Optional[Tuple[str, str]]:
    """First unjoined pair (u, v), u < v, of distinct vertices on a face walk, given its tails.

    A segment whose two ends are vertices is a whole uncrossed edge, so the
    joined pairs are read off consecutive tails of the walk; a loop joins none.
    A walk of at most three darts has no unjoined pair: any two of its
    corners are consecutive, so any two distinct vertices on it are the two
    ends of one of its segments.
    """
    if len(tails) <= 3:
        return None
    verts = vertices.intersection(tails)
    joined = {(a, b) if a < b else (b, a)
              for a, b in zip(tails, tails[1:] + tails[:1]) if a != b and a in vertices and b in vertices}
    if len(joined) == len(verts) * (len(verts) - 1) // 2:
        return None  # every pair of distinct vertices is joined
    return _first_unjoined(sorted(verts), joined)


def _first_unjoined(verts: Sequence[str], joined: Collection[Tuple[str, str]]) -> Optional[Tuple[str, str]]:
    """The first pair (u, v), u before v in ``verts``, that is not in ``joined``.

    Every pair it passes is joined, so it makes at most ``len(joined) + 1`` tests.
    """
    for i, u in enumerate(verts):
        for j in range(i + 1, len(verts)):
            if (u, verts[j]) not in joined:
                return (u, verts[j])
    return None


def is_3saturated(drawing: Drawing) -> bool:
    """Valid on >= 3 vertices, and every cell's vertex pairs are joined along its boundary; kept on the drawing."""
    if drawing._saturated is None:
        drawing._saturated = (len(drawing.vertices) >= 3 and drawing._validation().valid
                              and filled_witness(drawing) is None)
    return drawing._saturated


# -- trails ------------------------------------------------------------------

class Trail(NamedTuple):
    cells: Tuple[str, ...]
    interior_segments: Tuple[Segment, ...]
    endpoint_types: Tuple[str, str]   # sorted; KITE reported as LARGE
    bounding_edges: Tuple[str, str]   # sorted multiset


# A trail on numbers: its cells by index, its interior segments each as its
# "bwd" dart, its endpoint types (sorted; KITE reported as LARGE) and its walls.
NumberedTrail = Tuple[List[int], List[int], Tuple[str, str], Tuple[str, str]]


def _trails(drawing: Drawing) -> List[NumberedTrail]:
    """The trails of the drawing on numbers, refusing an invalid one; their interiors partition the inner segments.

    An inner segment, one whose two ends are crossings, with no XQUAD on
    either side is a whole 2-cell trail, read off the cells of its two
    darts; only corridors through XQUADs march, leaving each XQUAD (four
    darts, no vertex) through the side opposite its entry, an inner segment.
    Every trail's walls are the other edges at the two crossings of the segment
    ``b`` it was found from, the next darts round from ``b + 1`` and ``b``.  An
    XQUAD's wall sides run along the same two edges at both its crossing sides,
    so every interior segment has these walls; and they differ, as one edge on
    both would cross the corridor at an XQUAD's four corners.
    """
    drawing._validation().refuse_invalid(CensusError)
    kinds = _classified(drawing).kinds
    cmap = drawing.planarize()
    walks, cell_of, succ, decode = cmap.walks(), cmap.face_of(), cmap.succ, cmap.decode
    inner = cmap.inner_segments()

    visited, trails = set(), []
    for b in inner:  # each inner segment's "bwd" dart, in segment order
        if b in visited:
            continue
        first, last = cell_of[b + 1], cell_of[b]
        w1, w2 = decode[succ[b + 1]][0], decode[succ[b]][0]
        if kinds[first] != "XQUAD" and kinds[last] != "XQUAD":
            ks, interior = [first, last], [b]
        else:
            # March from b + 1's side to the first non-XQUAD, then, reversed, from b's: the cells met and
            # each segment crossed as its "bwd" dart; a repeated segment needs a forged cell table.
            ks, interior = [], [b]
            for entry in (b + 1, b):
                ks.reverse()
                interior.reverse()
                cell = cell_of[entry]
                ks.append(cell)
                while kinds[cell] == "XQUAD":
                    if len(interior) >= len(inner):
                        raise CensusError("trail corridor does not terminate")
                    walk = walks[cell]
                    exit_dart = walk[(walk.index(entry) + 2) % 4]
                    interior.append(exit_dart & -2)
                    entry = exit_dart ^ 1
                    cell = cell_of[entry]
                    ks.append(cell)
            visited.update(interior)
        t0, t1 = kinds[ks[0]], kinds[ks[-1]]
        t0, t1 = ("LARGE" if t0 == "KITE" else t0), ("LARGE" if t1 == "KITE" else t1)  # KITE reported as LARGE
        trails.append((ks, interior, (t0, t1) if t0 <= t1 else (t1, t0), (w1, w2) if w1 <= w2 else (w2, w1)))
    return trails


def _named(drawing: Drawing, trails: Sequence[NumberedTrail]) -> Tuple[Trail, ...]:
    """The public ``Trail`` of each trail on numbers: cell ids and (edge, seg) segments."""
    decode = drawing.planarize().decode
    return tuple([Trail(tuple([f"c{k}" for k in ks]), tuple([decode[j][:2] for j in interior]), ends, walls)
                  for ks, interior, ends, walls in trails])


def extract_trails(drawing: Drawing) -> Tuple[Trail, ...]:
    """The trails of the drawing; their interiors partition the inner segments.  Refuses an invalid drawing."""
    return _named(drawing, _trails(drawing))


def tkey(a: str, b: str) -> str:
    return "T_" + "_".join(sorted((a, b)))


def trail_counts(trails: Sequence[Tuple]) -> Dict[str, int]:
    """Unordered endpoint-type pair counts over the named endpoint types.

    Field 2 of a trail, named or on numbers, is its sorted endpoint-type
    pair; each pair is tallied once, then written under its key.
    """
    tally = Counter(map(itemgetter(2), trails))
    return {tkey(a, b): tally[a, b] for i, a in enumerate(TRAIL_END_TYPES) for b in TRAIL_END_TYPES[i:]}


# -- configurations ----------------------------------------------------------

class Configuration(NamedTuple):
    kind: str
    cells: Tuple[str, ...]                       # sorted member cell ids
    designated_segments: Tuple[Segment, ...] = ()
    designated_edge: Optional[str] = None


# A configuration on numbers: its kind, its member cells by index, its
# designated segments each as a dart of the segment, and its designated edge.
NumberedConfiguration = Tuple[str, FrozenSet[int], Tuple[int, ...], Optional[str]]

# The kinds whose designated segments no two configurations may share.
DESIGNATING = ("CFG9", "CFG10", "CFG12", "CFG13", "CFG14")


def detect_configurations(drawing: Drawing, trails: Sequence[NumberedTrail]) -> List[NumberedConfiguration]:
    """Find all configurations named by the counting rows, on numbers, given the drawing's trails on numbers.

    A configuration found twice (same kind and member cells) is kept once,
    as first found.  On a 3-saturated drawing, where the counting rows promise
    them, a missing or mistyped witness cell raises :class:`WitnessError`, as
    does a segment designated by two configurations; on any other drawing
    the affected configuration is silently skipped.

    Cells are read by index and darts by number (see ``_classified``); the
    cell vertically opposite dart ``i``'s cell at the crossing ``i``
    leaves holds ``succ[succ[i]]``, two steps round the rotation.
    """
    _, _, at, kinds = _classified(drawing)
    cmap = drawing.planarize()
    walks, cell_of = cmap.walks(), cmap.face_of()
    tail, succ, decode = cmap.tail, cmap.succ, cmap.decode
    edges = drawing.edges
    strict = is_3saturated(drawing)
    found: List[NumberedConfiguration] = []

    def missing(obj: str, detail: str) -> None:
        """A witness is absent: raise on a 3-saturated drawing; otherwise the caller skips the configuration."""
        if strict:
            raise WitnessError(obj, detail)

    # CFG13 / CFG14: one per VTRI, across the outer sides of its inner segment.  A VTRI
    # has three darts and only one leaves a vertex, so exactly one side joins two crossings.
    for k in compress(count(), map("VTRI".__eq__, kinds)):
        vv = []  # outer darts with a VVTRI across
        for i in walks[k]:
            if not (at[i] or at[i ^ 1]):
                inner = i
            elif kinds[cell_of[i ^ 1]] == "VVTRI":
                vv.append(i)
        load = len(edges[decode[inner][0]].crossings)
        if load == 2:
            if len(vv) != 2:
                missing(f"c{k}", "VTRI on a twice-crossed edge must have two VVTRI neighbors")
                continue
            d1, d2 = vv
            found.append(("CFG14", frozenset((k, cell_of[d1 ^ 1], cell_of[d2 ^ 1])), (d1, d2), None))
        elif load == 3:
            if not vv:
                missing(f"c{k}", "VTRI on a thrice-crossed edge must have a VVTRI neighbor")
                continue
            # The first VVTRI in cell id order.
            d = vv[0] if len(vv) == 1 else min(vv, key=lambda i: str(cell_of[i ^ 1]))
            found.append(("CFG13", frozenset((k, cell_of[d ^ 1])), (d,), None))

    # Trail-indexed kinds.
    for ks, interior, pair, walls in trails:
        if pair == ("VQUAD", "VTRI") and len(ks) == 3:
            two = [w for w in walls if len(edges[w].crossings) == 2]
            if len(two) != 1:
                missing("+".join([f"c{k}" for k in ks]),
                        "VTRI-VQUAD trail of length 3 needs exactly one twice-crossed bounding edge")
                continue
            found.append(("CFG18", frozenset(ks), (), two[0]))
            continue

        if pair not in (("XPENT", "XTRI"), ("VQUAD", "XPENT"), ("VQUAD", "XTRI")):
            continue
        if len(ks) != 2:
            missing("+".join([f"c{k}" for k in ks]), f"{pair[0]}-{pair[1]} trail must have length 2")
            continue
        b = interior[0]
        seg = b >> 1

        if pair == ("XPENT", "XTRI"):
            xtri = next(k for k in ks if kinds[k] == "XTRI")
            xpent = next(k for k in ks if kinds[k] == "XPENT")
            ends = (tail[b], tail[b ^ 1])
            d3 = next(i for i in walks[xtri] if tail[i] not in ends)
            x3 = tail[d3]
            vv = cell_of[succ[succ[d3]]]
            if kinds[vv] != "VVTRI":
                missing(f"c{xtri}", f"opposite quadrant at {x3} is {kinds[vv]}, not VVTRI")
                continue
            # The first KITE across a side of the XTRI, and the dart of the segment it shares with vv at x3.
            kite, shared = next(((cell_of[i ^ 1], j) for i in walks[xtri]
                                 if i >> 1 != seg and kinds[cell_of[i ^ 1]] == "KITE"
                                 for j in walks[vv]
                                 if x3 in (tail[j], tail[j ^ 1]) and cell_of[j ^ 1] == cell_of[i ^ 1]),
                                (None, None))
            if kite is None:
                missing(f"c{xtri}", "no kite sharing a segment with the opposite-quadrant VVTRI")
                continue
            found.append(("CFG9", frozenset((xtri, xpent, kite, vv)), (shared,), None))
        else:
            vq = next(k for k in ks if kinds[k] == "VQUAD")
            other = next(k for k in ks if kinds[k] != "VQUAD")
            walk = walks[vq]
            idx = next(n for n, i in enumerate(walk) if i >> 1 == seg)
            far = walk[(idx + 2) % 4]  # a VQUAD's walk has four darts
            z = cell_of[far ^ 1]
            if kinds[z] != "VVTRI":
                missing(f"c{vq}", f"cell across the far side is {kinds[z]}, not VVTRI")
                continue
            kind = "CFG10" if pair == ("VQUAD", "XPENT") else "CFG12"
            found.append((kind, frozenset((other, vq, z)), (far,), None))

    # CFG15: saturated XPENTs, one per window of three consecutive uncrossed trails.
    # End incidences: (endpoint cell, the "bwd" dart of its interior segment)
    # -> (other end's type, trail length), for the trails with an XPENT end,
    # the only ones looked up.  An XPENT has five sides, each an inner segment whose trail
    # ends here.  The VTRIs across a window's first and third sides carry the middle side's
    # edge from each of its crossings straight to a vertex: the designated edge is twice-crossed.
    ends: Dict[Tuple[int, int], Tuple[str, int]] = {}
    for ks, interior, pair, _ in trails:
        if "XPENT" in pair:
            ends[ks[0], interior[0]] = (kinds[ks[-1]], len(ks))
            ends[ks[-1], interior[-1]] = (kinds[ks[0]], len(ks))
    for k in compress(count(), map("XPENT".__eq__, kinds)):
        walk = walks[k]  # the tail of side i is the corner it shares with side i-1
        profile = [ends[k, i & -2] for i in walk]  # per side: (other end's type, trail length)
        if not CROSSING_EVEN_TYPES.issuperset([t for t, _ in profile]):
            continue
        uncrossed = [end == ("VTRI", 2) for end in profile]
        cid = f"c{k}"
        windows = [i for i in range(5) if uncrossed[i] and uncrossed[(i + 1) % 5] and uncrossed[(i + 2) % 5]]
        if not windows:
            missing(cid, "saturated XPENT without three consecutive uncrossed trails")
            continue
        for i in windows:
            ja, jb = (i + 1) % 5, (i + 2) % 5
            ca, cb = cell_of[succ[succ[walk[ja]]]], cell_of[succ[succ[walk[jb]]]]
            if kinds[ca] != "VVTRI":
                missing(cid, f"opposite quadrant at {tail[walk[ja]]} is not VVTRI")
                continue
            if kinds[cb] != "VVTRI":
                missing(cid, f"opposite quadrant at {tail[walk[jb]]} is not VVTRI")
                continue
            found.append(("CFG15", frozenset((k, ca, cb)), (), decode[walk[ja]][0]))

    unique: Dict[Tuple[str, FrozenSet[int]], NumberedConfiguration] = {}
    for cfg in found:
        unique.setdefault(cfg[:2], cfg)
    out = list(unique.values())
    if strict:
        claimed = [i >> 1 for kind, _, designated, _ in out if kind in DESIGNATING for i in designated]
        if len(set(claimed)) < len(claimed):
            _raise_clash(_configurations(drawing, out))
    return out


def _configurations(drawing: Drawing, cfgs: Iterable[NumberedConfiguration]) -> Tuple[Configuration, ...]:
    """The public ``Configuration`` of each configuration on numbers, sorted by kind and cell ids."""
    decode = drawing.planarize().decode
    return tuple(sorted([Configuration(kind, tuple(sorted([f"c{k}" for k in ks])),
                                       tuple(sorted([decode[i][:2] for i in designated])), edge)
                         for kind, ks, designated, edge in cfgs], key=itemgetter(0, 1)))


def _raise_clash(cfgs: Sequence[Configuration]) -> None:
    """Raise the first segment designated twice, reading ``cfgs`` in order."""
    marked: Dict[Segment, Configuration] = {}
    for cfg in cfgs:
        if cfg.kind in DESIGNATING:
            for seg in cfg.designated_segments:
                if seg in marked:
                    prev = marked[seg]
                    raise WitnessError(
                        f"{cfg.kind}@{'+'.join(cfg.cells)}",
                        f"designated segment {seg} already claimed by "
                        f"{prev.kind}@{'+'.join(prev.cells)}")
                marked[seg] = cfg


# -- the full census ---------------------------------------------------------

@dataclass(frozen=True)
class CensusReport:
    """A drawing's census: the ``counts`` vector, whether the drawing is 3-saturated
    (so the census was strict), and the named cells, cell types, trails and configurations
    behind it, each written on first read.  Two reports are equal when their counts, trails and configurations are."""
    counts: Dict[str, int]
    saturated: bool = field(compare=False)
    _drawing: Drawing = field(compare=False, repr=False)
    _trails: List[NumberedTrail] = field(repr=False)
    _configurations: List[NumberedConfiguration] = field(repr=False)

    @cached_property
    def cells(self) -> Tuple[CellRecord, ...]:
        return cells(self._drawing)

    @cached_property
    def cell_types(self) -> Dict[str, str]:
        return {f"c{k}": kind for k, kind in enumerate(_classified(self._drawing).kinds)}

    @cached_property
    def trails(self) -> Tuple[Trail, ...]:
        return _named(self._drawing, self._trails)

    @cached_property
    def configurations(self) -> Tuple[Configuration, ...]:
        return _configurations(self._drawing, self._configurations)

    def as_dict(self) -> dict:
        return {
            "counts": dict(self.counts),
            "cells": [
                {
                    "id": r.cell_id,
                    "type": self.cell_types[r.cell_id],
                    "size": r.size,
                    "vertex_incidences": r.vertex_incidences,
                    "crossing_incidences": r.crossing_incidences,
                    "segment_incidences": r.segment_incidences,
                    "degenerate": r.degenerate,
                    "walk": [
                        {"edge": d[0], "seg": d[1], "dir": d[2]} for d in r.walk
                    ],
                }
                for r in self.cells
            ],
            "trails": [
                {
                    "cells": list(t.cells),
                    "interior_segments": [f"{e}:{i}" for e, i in t.interior_segments],
                    "endpoint_types": list(t.endpoint_types),
                    "bounding_edges": list(t.bounding_edges),
                }
                for t in self.trails
            ],
            "configurations": [
                {
                    "kind": c.kind,
                    "cells": list(c.cells),
                    "designated_segments": [f"{e}:{i}" for e, i in c.designated_segments],
                    "designated_edge": c.designated_edge,
                }
                for c in self.configurations
            ],
        }


def census(drawing: Drawing) -> CensusReport:
    """Count everything the constraint rows talk about; refuses an invalid drawing, strict on a 3-saturated one."""
    trails = _trails(drawing)
    sizes, _, _, kinds = _classified(drawing)
    cfgs = detect_configurations(drawing, trails)

    counts: Dict[str, int] = stats(drawing).as_dict()
    by_type = Counter(kinds)
    counts.update({t: by_type[t] for t in CELL_COUNT_KEYS})
    counts["LARGE"] += counts["KITE"]  # kites are large cells
    counts["large_size_sum"] = sum(
        size for size, kind in zip(sizes, kinds) if kind == "LARGE" or kind == "KITE")
    counts["cells"] = len(kinds)
    counts.update(trail_counts(trails))
    by_kind = Counter(map(itemgetter(0), cfgs))
    counts.update({k: by_kind[k] for k in CFG_KEYS})
    return CensusReport(counts, is_3saturated(drawing), drawing, trails, cfgs)
