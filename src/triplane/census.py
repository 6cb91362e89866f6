"""Cell, trail, and configuration censuses of a drawing.

Cells are the faces of the planarization.  The size of a cell is its
number of segment incidences plus its number of vertex incidences; a cell
is degenerate when some vertex or crossing appears more than once among
the tails of its walk.  Small non-degenerate cells fall into a short list
of named types; trails are the maximal corridors of quadrilateral
crossing-only cells threaded by the inner segments; configurations are
the small cell clusters the counting rows charge against.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .combmap import Dart, twin
from .drawing import Drawing, EdgeRecord, Segment, stats

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


def cells(drawing: Drawing) -> Tuple[CellRecord, ...]:
    """All cells, ids assigned in sorted order of their canonical walks."""
    tail, is_vertex = drawing.tail, drawing.is_vertex
    out = []
    for i, walk in enumerate(drawing.planarize().faces()):
        tails = list(map(tail, walk))
        s = len(walk)
        v = sum(map(is_vertex, tails))
        # cell_id, walk, size, vertex, crossing and segment incidences, degenerate
        out.append(CellRecord(f"c{i}", walk, s + v, v, s - v, s, len(set(tails)) < s))
    return tuple(out)


def _crossings_adjacent(drawing: Drawing, walk: Tuple[Dart, ...]) -> bool:
    tails = [drawing.tail(d) for d in walk]
    pos = [i for i, t in enumerate(tails) if not drawing.is_vertex(t)]
    if len(pos) != 2:
        return False
    i, j = pos
    return j - i == 1 or (i == 0 and j == len(tails) - 1)


def classify_cell(drawing: Drawing, record: CellRecord) -> str:
    """One of XTRI, XQUAD, VTRI, VQUAD, XPENT, VVTRI, KITE, LARGE, OTHER."""
    _, walk, size, v, x, s, degenerate = record  # one unpack, not five field reads
    if size >= 6:
        if not degenerate and v == 2 and x == 2 and s == 4 and _crossings_adjacent(drawing, walk):
            return "KITE"
        return "LARGE"
    if degenerate:
        return "OTHER"
    if size == 3:
        return "XTRI" if x == 3 else "OTHER"
    if size == 4:
        if x == 4 and v == 0:
            return "XQUAD"
        if v == 1 and x == 2:
            return "VTRI"
        return "OTHER"
    if size == 5:
        if x == 5 and v == 0:
            return "XPENT"
        if v == 1 and x == 3:
            return "VQUAD"
        if v == 2 and x == 1:
            return "VVTRI"
        return "OTHER"
    return "OTHER"


# -- trails ------------------------------------------------------------------

class Trail(NamedTuple):
    cells: Tuple[str, ...]
    interior_segments: Tuple[Segment, ...]
    endpoint_types: Tuple[str, str]   # sorted; KITE reported as LARGE
    bounding_edges: Tuple[str, str]   # sorted multiset


class _CellView:
    """One drawing's cells, looked up by id and by dart, and their types.

    ``Drawing._cell_view`` builds it once per drawing.  The types stay
    ``None`` until ``_classified`` fills them, in the order of ``records``.
    """

    __slots__ = ("records", "by_id", "cell_of_dart", "types")

    def __init__(self, drawing: Drawing):
        self.records = cells(drawing)
        self.by_id = {r.cell_id: r for r in self.records}
        self.cell_of_dart = {d: r for r in self.records for d in r.walk}
        self.types: Optional[Dict[str, str]] = None

    def across(self, dart: Dart) -> CellRecord:
        """The cell on the other side of ``dart``'s segment."""
        return self.cell_of_dart[twin(dart)]


def _classified(drawing: Drawing) -> _CellView:
    """The drawing's cell view, with every cell's type filled in."""
    view = drawing._cell_view()
    if view.types is None:
        view.types = {r.cell_id: classify_cell(drawing, r) for r in view.records}
    return view


def _march(drawing: Drawing, view: _CellView, seg: Segment, direction: str, limit: int):
    """Follow a corridor of XQUADs away from one side of ``seg``.

    Returns (cells, exit_segments): the cells starting with the one on this
    side of ``seg`` and ending at the first non-XQUAD, and the inner
    segments consumed after ``seg``.
    """
    types = view.types
    entry = (seg[0], seg[1], direction)  # the cell's dart on the segment just crossed
    cell = view.cell_of_dart[entry]
    cells_out = [cell]
    segs_out: List[Segment] = []
    steps = 0
    while types[cell.cell_id] == "XQUAD":
        steps += 1
        if steps > limit:
            raise CensusError("trail corridor does not terminate")
        walk = cell.walk
        exit_dart = walk[(walk.index(entry) + 2) % 4]
        cur = exit_dart[:2]
        if not drawing.is_inner_segment(cur):
            raise CensusError(f"trail corridor exits through outer segment {cur}")
        segs_out.append(cur)
        entry = twin(exit_dart)
        cell = view.cell_of_dart[entry]
        cells_out.append(cell)
    return cells_out, segs_out


def _walls(edges: Dict[str, EdgeRecord], crossings: Dict[str, Tuple[Tuple[str, int], Tuple[str, int]]],
           interior: Sequence[Segment], start: Segment) -> Tuple[str, str]:
    """The two edges crossing every segment of a trail's interior at its ends, sorted.

    It reads the crossing records itself: ``Drawing.other_edge_at``, a call
    per crossing, makes ``extract_trails`` 5-13% slower on fig3 L=32.
    """
    sides = []
    for e, i in interior:
        xs = edges[e].crossings
        (a1, _), (a2, _) = crossings[xs[i - 1]]
        (b1, _), (b2, _) = crossings[xs[i]]
        sides.append((a2 if e == a1 else a1, b2 if e == b1 else b1))
    w1, w2 = sides[0]
    if len(sides) == 1:
        return (w1, w2) if w1 <= w2 else (w2, w1)
    good = sorted({w1, w2}.intersection(*sides[1:]))
    if len(good) != 2:
        raise CensusError(f"trail through {start} has no well-defined bounding edges")
    return good[0], good[1]


def extract_trails(drawing: Drawing) -> Tuple[Trail, ...]:
    """The trails of the drawing; their interiors partition the inner segments.

    An inner segment with no XQUAD on either side is a whole 2-cell trail,
    read off the cells of its two darts; only corridors through XQUADs march.
    """
    view = _classified(drawing)
    types, cell_of_dart = view.types, view.cell_of_dart
    edges, crossings = drawing.edges, drawing.crossings
    inner = drawing.inner_segments()
    limit = len(inner) + 2

    visited = set()
    trails = []
    for s in inner:
        if s in visited:
            continue
        e, i = s
        first, last = cell_of_dart[(e, i, "fwd")], cell_of_dart[(e, i, "bwd")]
        ids = (first.cell_id, last.cell_id)
        t0, t1 = types[ids[0]], types[ids[1]]
        if t0 != "XQUAD" and t1 != "XQUAD":
            interior: Tuple[Segment, ...] = (s,)
        else:
            cells_fwd, segs_fwd = _march(drawing, view, s, "fwd", limit)
            cells_bwd, segs_bwd = _march(drawing, view, s, "bwd", limit)
            visited.update(segs_fwd)
            visited.update(segs_bwd)
            ids = tuple([c.cell_id for c in reversed(cells_fwd)] + [c.cell_id for c in cells_bwd])
            interior = tuple(reversed(segs_fwd)) + (s,) + tuple(segs_bwd)
            t0, t1 = types[ids[0]], types[ids[-1]]
        if t0 == "KITE":  # reported as LARGE
            t0 = "LARGE"
        if t1 == "KITE":
            t1 = "LARGE"
        trails.append(Trail(ids, interior, (t0, t1) if t0 <= t1 else (t1, t0),
                            _walls(edges, crossings, interior, s)))
    return tuple(trails)


def tkey(a: str, b: str) -> str:
    return "T_" + "_".join(sorted((a, b)))


def trail_counts(trails: Sequence[Trail]) -> Dict[str, int]:
    """Unordered endpoint-type pair counts over the named endpoint types."""
    counts = {}
    for i, a in enumerate(TRAIL_END_TYPES):
        for b in TRAIL_END_TYPES[i:]:
            counts[tkey(a, b)] = 0
    for t in trails:
        a, b = t.endpoint_types
        if a in TRAIL_END_TYPES and b in TRAIL_END_TYPES:
            counts[tkey(a, b)] += 1
    return counts


# -- configurations ----------------------------------------------------------

class Configuration(NamedTuple):
    kind: str
    cells: Tuple[str, ...]                       # sorted member cell ids
    designated_segments: Tuple[Segment, ...] = ()
    designated_edge: Optional[str] = None


def _opposite_quadrant(view: _CellView, rot: Tuple[Dart, ...], d: Dart) -> CellRecord:
    """The cell vertically opposite the cell of ``d`` at the crossing ``d`` leaves; ``rot`` is its rotation."""
    return view.cell_of_dart[rot[(rot.index(d) + 2) % len(rot)]]


def detect_configurations(
    drawing: Drawing,
    trails: Sequence[Trail],
    strict: bool = False,
) -> Tuple[Configuration, ...]:
    """Find all configurations named by the counting rows.

    With ``strict`` (intended for 3-saturated drawings) a missing or
    mistyped witness cell raises :class:`WitnessError`; otherwise the
    affected configuration is silently skipped (advisory mode).
    """
    view = _classified(drawing)
    types = view.types
    found: List[Configuration] = []

    def need(cond: bool, obj: str, detail: str) -> bool:
        if cond:
            return True
        if strict:
            raise WitnessError(obj, detail)
        return False

    # CFG13 / CFG14: one per VTRI, across the outer sides of its inner segment.
    edges, cell_of_dart = drawing.edges, view.cell_of_dart
    for rec, cell_type in zip(view.records, types.values()):
        if cell_type != "VTRI":
            continue
        cid, walk = rec.cell_id, rec.walk
        inner_darts = [d for d in walk if 0 < d[1] < len(edges[d[0]].crossings)]
        if not need(len(inner_darts) == 1, cid, "VTRI without a unique inner side"):
            continue
        inner = inner_darts[0]
        k = len(edges[inner[0]].crossings)
        vv = []  # (outer dart, the VVTRI across it)
        for d in walk:
            if d is not inner:
                nb = cell_of_dart[(d[0], d[1], "bwd" if d[2] == "fwd" else "fwd")]
                if types[nb.cell_id] == "VVTRI":
                    vv.append((d, nb))
        if k == 2:
            if not need(len(vv) == 2, cid,
                        "VTRI on a twice-crossed edge must have two VVTRI neighbors"):
                continue
            (d1, nb1), (d2, nb2) = vv
            found.append(Configuration("CFG14", tuple(sorted((cid, nb1.cell_id, nb2.cell_id))),
                                       tuple(sorted((d1[:2], d2[:2])))))
        elif k == 3:
            if not need(len(vv) >= 1, cid,
                        "VTRI on a thrice-crossed edge must have a VVTRI neighbor"):
                continue
            d, nb = min(vv, key=lambda p: p[1].cell_id)
            found.append(Configuration("CFG13", tuple(sorted((cid, nb.cell_id))), (d[:2],)))
        else:
            need(False, cid, f"VTRI inner side on edge with {k} crossings")

    # Trail-indexed kinds.
    for trail in trails:
        pair = trail.endpoint_types
        length = len(trail.cells)

        if pair == ("VQUAD", "VTRI") and length == 3:
            two = [w for w in trail.bounding_edges
                   if len(drawing.edges[w].crossings) == 2]
            if not need(len(two) == 1, "+".join(trail.cells),
                        "VTRI-VQUAD trail of length 3 needs exactly one twice-crossed bounding edge"):
                continue
            found.append(Configuration(
                kind="CFG18",
                cells=tuple(sorted(trail.cells)),
                designated_edge=two[0],
            ))
            continue

        if pair not in (("XPENT", "XTRI"), ("VQUAD", "XPENT"), ("VQUAD", "XTRI")):
            continue
        if not need(length == 2, "+".join(trail.cells),
                    f"{pair[0]}-{pair[1]} trail must have length 2"):
            continue
        s = trail.interior_segments[0]
        recs2 = [view.by_id[c] for c in trail.cells]

        if pair == ("XPENT", "XTRI"):
            xtri = next(r for r in recs2 if types[r.cell_id] == "XTRI")
            xpent = next(r for r in recs2 if types[r.cell_id] == "XPENT")
            d3 = next(d for d in xtri.walk if drawing.tail(d) not in drawing.segment_nodes(s))
            x3 = drawing.tail(d3)
            vv = _opposite_quadrant(view, drawing.rotations[x3], d3)
            if not need(types[vv.cell_id] == "VVTRI", xtri.cell_id,
                        f"opposite quadrant at {x3} is {types[vv.cell_id]}, not VVTRI"):
                continue
            kite = None
            shared: Optional[Segment] = None
            for d in xtri.walk:
                if d[:2] == s:
                    continue
                cand = view.across(d)
                if types[cand.cell_id] != "KITE":
                    continue
                for dd in vv.walk:
                    if x3 in drawing.segment_nodes(dd[:2]) and view.across(dd) is cand:
                        kite, shared = cand, dd[:2]
                        break
                if kite is not None:
                    break
            if not need(kite is not None, xtri.cell_id,
                        "no kite sharing a segment with the opposite-quadrant VVTRI"):
                continue
            found.append(Configuration(
                kind="CFG9",
                cells=tuple(sorted({xtri.cell_id, xpent.cell_id, kite.cell_id, vv.cell_id})),
                designated_segments=(shared,),
            ))
        else:
            vq = next(r for r in recs2 if types[r.cell_id] == "VQUAD")
            other = next(r for r in recs2 if types[r.cell_id] != "VQUAD")
            idx = next(i for i, d in enumerate(vq.walk) if d[:2] == s)
            far = vq.walk[(idx + 2) % 4]
            z = view.across(far)
            if not need(types[z.cell_id] == "VVTRI", vq.cell_id,
                        f"cell across the far side is {types[z.cell_id]}, not VVTRI"):
                continue
            kind = "CFG10" if pair == ("VQUAD", "XPENT") else "CFG12"
            found.append(Configuration(
                kind=kind,
                cells=tuple(sorted({other.cell_id, vq.cell_id, z.cell_id})),
                designated_segments=(far[:2],),
            ))

    # CFG15: saturated XPENTs, one per window of three consecutive uncrossed trails.
    # End incidences: (endpoint cell, adjacent interior segment) -> (trail, other end).
    ends: Dict[Tuple[str, Segment], Tuple[Trail, str]] = {}
    for t in trails:
        ends[(t.cells[0], t.interior_segments[0])] = (t, t.cells[-1])
        ends[(t.cells[-1], t.interior_segments[-1])] = (t, t.cells[0])
    rotations = drawing.rotations
    for rec, cell_type in zip(view.records, types.values()):
        if cell_type != "XPENT":
            continue
        cid, walk = rec.cell_id, rec.walk
        profile = []  # per side: (other end cell type, trail length)
        for d in walk:
            hit = ends.get((cid, d[:2]))
            if hit is None:
                raise CensusError(f"no trail ends at cell {cid} through {d[:2]}")
            profile.append((types[hit[1]], len(hit[0].cells)))
        if not all(t in CROSSING_EVEN_TYPES for t, _ in profile):
            continue
        corners = [drawing.tail(d) for d in walk]  # x_i = shared corner of sides i-1, i
        uncrossed = [t == "VTRI" and length == 2 for t, length in profile]
        windows = [i for i in range(5)
                   if uncrossed[i] and uncrossed[(i + 1) % 5] and uncrossed[(i + 2) % 5]]
        if not need(bool(windows), cid,
                    "saturated XPENT without three consecutive uncrossed trails"):
            continue
        for i in windows:
            ja, jb = (i + 1) % 5, (i + 2) % 5
            ca = _opposite_quadrant(view, rotations[corners[ja]], walk[ja])
            cb = _opposite_quadrant(view, rotations[corners[jb]], walk[jb])
            ok = need(types[ca.cell_id] == "VVTRI", cid,
                      f"opposite quadrant at {corners[ja]} is not VVTRI") and \
                 need(types[cb.cell_id] == "VVTRI", cid,
                      f"opposite quadrant at {corners[jb]} is not VVTRI")
            if not ok:
                continue
            mid = walk[ja]
            if not need(len(edges[mid[0]].crossings) == 2, cid,
                        f"middle side edge {mid[0]} is not twice-crossed"):
                continue
            found.append(Configuration(
                kind="CFG15",
                cells=tuple(sorted({cid, ca.cell_id, cb.cell_id})),
                designated_edge=mid[0],
            ))

    # Deduplicate by kind + member cell set, deterministically ordered.
    seen = set()
    unique: List[Configuration] = []
    for cfg in sorted(found, key=itemgetter(0, 1)):  # kind, cells
        key = (cfg.kind, cfg.cells)
        if key not in seen:
            seen.add(key)
            unique.append(cfg)

    if strict:
        marked: Dict[Segment, Configuration] = {}
        for cfg in unique:
            if cfg.kind in ("CFG9", "CFG10", "CFG12", "CFG13", "CFG14"):
                for seg in cfg.designated_segments:
                    if seg in marked:
                        prev = marked[seg]
                        raise WitnessError(
                            f"{cfg.kind}@{'+'.join(cfg.cells)}",
                            f"designated segment {seg} already claimed by "
                            f"{prev.kind}@{'+'.join(prev.cells)}")
                    marked[seg] = cfg

    return tuple(unique)


# -- the full census ---------------------------------------------------------

@dataclass(frozen=True)
class CensusReport:
    cells: Tuple[CellRecord, ...]
    cell_types: Dict[str, str]
    trails: Tuple[Trail, ...]
    configurations: Tuple[Configuration, ...]
    counts: Dict[str, int]

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


def census(drawing: Drawing, strict: bool = False) -> CensusReport:
    """Count everything the constraint rows talk about.

    ``strict`` turns missing configuration witnesses into errors; use it
    for 3-saturated inputs, where the counting rows promise them.
    """
    view = _classified(drawing)
    recs, types = view.records, view.types
    trails = extract_trails(drawing)
    cfgs = detect_configurations(drawing, trails, strict=strict)

    counts: Dict[str, int] = dict(stats(drawing).as_dict())
    for t in CELL_COUNT_KEYS:
        counts[t] = 0
    for r in recs:
        counts[types[r.cell_id]] += 1
    counts["LARGE"] += counts["KITE"]  # kites are large cells
    counts["large_size_sum"] = sum(
        r.size for r in recs if types[r.cell_id] in ("LARGE", "KITE"))
    counts["cells"] = len(recs)
    counts.update(trail_counts(trails))
    for k in CFG_KEYS:
        counts[k] = 0
    for c in cfgs:
        counts[c.kind] += 1
    return CensusReport(recs, types, trails, cfgs, counts)
