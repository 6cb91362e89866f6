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

from .combmap import Dart, Darts
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


def cells(drawing: Drawing) -> Tuple[CellRecord, ...]:
    """All cells, ids assigned in sorted order of their canonical walks."""
    cmap = drawing.planarize()
    tail, is_vertex = cmap.darts.tail.__getitem__, drawing._vertex_set.__contains__
    out = []
    for i, (ids, walk) in enumerate(zip(cmap.walks(), cmap.faces())):
        tails = list(map(tail, ids))
        s = len(walk)
        v = sum(map(is_vertex, tails))
        # cell_id, walk, size, vertex, crossing and segment incidences, degenerate
        out.append(CellRecord(f"c{i}", walk, s + v, v, s - v, s, len(set(tails)) < s))
    return tuple(out)


def classify_cell(drawing: Drawing, record: CellRecord) -> str:
    """One of XTRI, XQUAD, VTRI, VQUAD, XPENT, VVTRI, KITE, LARGE, OTHER.

    A cell of two vertices, two crossings and four segments is a KITE when
    its two crossings are consecutive on its walk: when one of its segments
    has two crossing ends, segment s of an edge with k crossings, 0 < s < k.
    """
    _, walk, size, v, x, s, degenerate = record  # one unpack, not five field reads
    if size >= 6:
        if not degenerate and v == 2 and x == 2 and s == 4:
            edges = drawing.edges
            if any(0 < g < len(edges[e].crossings) for e, g, _ in walk):
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


def _classified(drawing: Drawing) -> Tuple[Tuple[CellRecord, ...], List[str]]:
    """The drawing's cell records and each cell's type, by cell index; built once per drawing and kept.

    Cell ``k`` is ``records[k]``.  Its walk as dart numbers is the
    planarization's ``walks()[k]``, and ``face_of()[i]`` is the cell whose
    walk holds dart ``i``, so the cell across dart ``i``'s segment is
    ``face_of()[i ^ 1]``.
    """
    if drawing._cells is None:
        records = cells(drawing)
        drawing._cells = records, [classify_cell(drawing, r) for r in records]
    return drawing._cells


# A trail on numbers: its cells by index, its interior segments each as its
# "bwd" dart, its endpoint types (sorted; KITE reported as LARGE) and its walls.
NumberedTrail = Tuple[List[int], List[int], Tuple[str, str], Tuple[str, str]]


def _walls(darts: Darts, crossings: Dict[str, Tuple[Tuple[str, int], Tuple[str, int]]],
           interior: Sequence[int], start: int) -> Tuple[str, str]:
    """The two edges crossing every segment of a trail's interior at its ends, sorted.

    Each segment is given by its ``"bwd"`` dart ``b``, which leaves the
    segment's last crossing; ``b + 1`` leaves its first.  ``start`` is the
    segment the trail was found from, named if the walls fail.  It reads the
    crossing records itself: a method call per crossing made
    the trail pass 5-13% slower on fig3 L=32.
    """
    tail, decode = darts.tail, darts.decode
    sides = []
    for b in interior:
        e = decode[b][0]
        (a1, _), (a2, _) = crossings[tail[b + 1]]
        (b1, _), (b2, _) = crossings[tail[b]]
        sides.append((a2 if e == a1 else a1, b2 if e == b1 else b1))
    w1, w2 = sides[0]
    if len(sides) == 1:
        return (w1, w2) if w1 <= w2 else (w2, w1)
    good = sorted({w1, w2}.intersection(*sides[1:]))
    if len(good) != 2:
        raise CensusError(f"trail through {decode[start][:2]} has no well-defined bounding edges")
    return good[0], good[1]


def _trails(drawing: Drawing) -> List[NumberedTrail]:
    """The trails of the drawing on numbers; their interiors partition the inner segments.

    An inner segment, one whose two ends are crossings, with no XQUAD on
    either side is a whole 2-cell trail, read off the cells of its two
    darts; only corridors through XQUADs march.
    """
    _, kinds = _classified(drawing)
    cmap = drawing.planarize()
    walks, cell_of, darts, crossings = cmap.walks(), cmap.face_of(), cmap.darts, drawing.crossings
    tail = darts.tail
    inner = darts.inner_segments()
    limit = len(inner) + 2

    visited = set()
    trails = []
    for b in inner:  # each inner segment's "bwd" dart, in segment order
        if b in visited:
            continue
        first, last = cell_of[b + 1], cell_of[b]
        if kinds[first] != "XQUAD" and kinds[last] != "XQUAD":
            ks, interior = [first, last], [b]
        else:
            # March away from each side of b to the first non-XQUAD: the
            # cells met, and each inner segment crossed as its "bwd" dart.
            halves = []
            for entry in (b + 1, b):
                cell = cell_of[entry]
                cells_out, segs_out = [cell], []
                while kinds[cell] == "XQUAD":
                    if len(segs_out) >= limit:
                        raise CensusError("trail corridor does not terminate")
                    walk = walks[cell]
                    exit_dart = walk[(walk.index(entry) + 2) % 4]
                    if not (tail[exit_dart] in crossings and tail[exit_dart ^ 1] in crossings):
                        raise CensusError("trail corridor exits through outer segment "
                                          f"{darts.decode[exit_dart][:2]}")
                    segs_out.append(exit_dart & -2)
                    entry = exit_dart ^ 1
                    cell = cell_of[entry]
                    cells_out.append(cell)
                halves.append((cells_out, segs_out))
            (cells_fwd, segs_fwd), (cells_bwd, segs_bwd) = halves
            visited.update(segs_fwd)
            visited.update(segs_bwd)
            cells_fwd.reverse()
            segs_fwd.reverse()
            ks, interior = cells_fwd + cells_bwd, segs_fwd + [b] + segs_bwd
        t0, t1 = kinds[ks[0]], kinds[ks[-1]]
        if t0 == "KITE":  # reported as LARGE
            t0 = "LARGE"
        if t1 == "KITE":
            t1 = "LARGE"
        trails.append((ks, interior, (t0, t1) if t0 <= t1 else (t1, t0),
                       _walls(darts, crossings, interior, b)))
    return trails


def _named(drawing: Drawing, trails: Sequence[NumberedTrail]) -> Tuple[Trail, ...]:
    """The public ``Trail`` of each trail on numbers: cell ids and (edge, seg) segments."""
    records, _ = _classified(drawing)
    cell_id, decode = [r.cell_id for r in records].__getitem__, drawing.planarize().darts.decode
    return tuple([Trail(tuple(map(cell_id, ks)), tuple([decode[j][:2] for j in interior]), ends, walls)
                  for ks, interior, ends, walls in trails])


def extract_trails(drawing: Drawing) -> Tuple[Trail, ...]:
    """The trails of the drawing; their interiors partition the inner segments."""
    return _named(drawing, _trails(drawing))


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


def detect_configurations(
    drawing: Drawing,
    trails: Sequence[NumberedTrail],
    strict: bool = False,
) -> Tuple[Configuration, ...]:
    """Find all configurations named by the counting rows, given the drawing's trails on numbers.

    With ``strict`` (intended for 3-saturated drawings) a missing or
    mistyped witness cell raises :class:`WitnessError`; otherwise the
    affected configuration is silently skipped (advisory mode).

    Cells are read by index and darts by number (see ``_classified``); the
    cell vertically opposite dart ``i``'s cell at the crossing ``i``
    leaves holds ``succ[succ[i]]``, two steps round the rotation.
    """
    records, kinds = _classified(drawing)
    cmap = drawing.planarize()
    walks, cell_of, darts = cmap.walks(), cmap.face_of(), cmap.darts
    tail, succ, decode = darts.tail, darts.succ, darts.decode
    edges, crossings = drawing.edges, drawing.crossings
    found: List[Configuration] = []

    def need(cond: bool, obj: str, detail: str) -> bool:
        if cond:
            return True
        if strict:
            raise WitnessError(obj, detail)
        return False

    # CFG13 / CFG14: one per VTRI, across the outer sides of its inner segment.
    for k, cell_type in enumerate(kinds):
        if cell_type != "VTRI":
            continue
        cid, walk = records[k].cell_id, walks[k]
        inner, n_inner = 0, 0  # the side whose two ends are crossings
        for i in walk:
            if tail[i] in crossings and tail[i ^ 1] in crossings:
                inner, n_inner = i, n_inner + 1
        if not need(n_inner == 1, cid, "VTRI without a unique inner side"):
            continue
        load = len(edges[decode[inner][0]].crossings)
        vv = []  # (outer dart, the id of the VVTRI across it)
        for i in walk:
            if i != inner:
                nb = cell_of[i ^ 1]
                if kinds[nb] == "VVTRI":
                    vv.append((i, records[nb].cell_id))
        if load == 2:
            if not need(len(vv) == 2, cid,
                        "VTRI on a twice-crossed edge must have two VVTRI neighbors"):
                continue
            (d1, nb1), (d2, nb2) = vv
            found.append(Configuration("CFG14", tuple(sorted((cid, nb1, nb2))),
                                       tuple(sorted((decode[d1][:2], decode[d2][:2])))))
        elif load == 3:
            if not need(len(vv) >= 1, cid,
                        "VTRI on a thrice-crossed edge must have a VVTRI neighbor"):
                continue
            d, nb = min(vv, key=itemgetter(1))
            found.append(Configuration("CFG13", tuple(sorted((cid, nb))), (decode[d][:2],)))
        else:
            need(False, cid, f"VTRI inner side on edge with {load} crossings")

    # Trail-indexed kinds.
    for ks, interior, pair, walls in trails:
        if pair == ("VQUAD", "VTRI") and len(ks) == 3:
            two = [w for w in walls if len(edges[w].crossings) == 2]
            ids = [records[k].cell_id for k in ks]
            if not need(len(two) == 1, "+".join(ids),
                        "VTRI-VQUAD trail of length 3 needs exactly one twice-crossed bounding edge"):
                continue
            found.append(Configuration(
                kind="CFG18",
                cells=tuple(sorted(ids)),
                designated_edge=two[0],
            ))
            continue

        if pair not in (("XPENT", "XTRI"), ("VQUAD", "XPENT"), ("VQUAD", "XTRI")):
            continue
        if not need(len(ks) == 2, "+".join([records[k].cell_id for k in ks]),
                    f"{pair[0]}-{pair[1]} trail must have length 2"):
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
            if not need(kinds[vv] == "VVTRI", records[xtri].cell_id,
                        f"opposite quadrant at {x3} is {kinds[vv]}, not VVTRI"):
                continue
            kite = None
            shared: Optional[Segment] = None
            for i in walks[xtri]:
                if i >> 1 == seg:
                    continue
                cand = cell_of[i ^ 1]
                if kinds[cand] != "KITE":
                    continue
                for j in walks[vv]:
                    if x3 in (tail[j], tail[j ^ 1]) and cell_of[j ^ 1] == cand:
                        kite, shared = cand, decode[j][:2]
                        break
                if kite is not None:
                    break
            if not need(kite is not None, records[xtri].cell_id,
                        "no kite sharing a segment with the opposite-quadrant VVTRI"):
                continue
            found.append(Configuration(
                kind="CFG9",
                cells=tuple(sorted({records[k].cell_id for k in (xtri, xpent, kite, vv)})),
                designated_segments=(shared,),
            ))
        else:
            vq = next(k for k in ks if kinds[k] == "VQUAD")
            other = next(k for k in ks if kinds[k] != "VQUAD")
            walk = walks[vq]
            idx = next(n for n, i in enumerate(walk) if i >> 1 == seg)
            far = walk[(idx + 2) % 4]
            z = cell_of[far ^ 1]
            if not need(kinds[z] == "VVTRI", records[vq].cell_id,
                        f"cell across the far side is {kinds[z]}, not VVTRI"):
                continue
            kind = "CFG10" if pair == ("VQUAD", "XPENT") else "CFG12"
            found.append(Configuration(
                kind=kind,
                cells=tuple(sorted({records[k].cell_id for k in (other, vq, z)})),
                designated_segments=(decode[far][:2],),
            ))

    # CFG15: saturated XPENTs, one per window of three consecutive uncrossed trails.
    # End incidences: (endpoint cell, the "bwd" dart of its interior segment)
    # -> (other end, trail length), for the trails with an XPENT end, the only
    # ones looked up.
    ends: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for ks, interior, pair, _ in trails:
        if "XPENT" in pair:
            ends[ks[0], interior[0]] = (ks[-1], len(ks))
            ends[ks[-1], interior[-1]] = (ks[0], len(ks))
    for k, cell_type in enumerate(kinds):
        if cell_type != "XPENT":
            continue
        cid, walk = records[k].cell_id, walks[k]  # the tail of side i is the corner it shares with side i-1
        profile = []  # per side: (other end cell type, trail length)
        for i in walk:
            hit = ends.get((k, i & -2))
            if hit is None:
                raise CensusError(f"no trail ends at cell {cid} through {decode[i][:2]}")
            profile.append((kinds[hit[0]], hit[1]))
        if not all(t in CROSSING_EVEN_TYPES for t, _ in profile):
            continue
        uncrossed = [t == "VTRI" and length == 2 for t, length in profile]
        windows = [i for i in range(5)
                   if uncrossed[i] and uncrossed[(i + 1) % 5] and uncrossed[(i + 2) % 5]]
        if not need(bool(windows), cid,
                    "saturated XPENT without three consecutive uncrossed trails"):
            continue
        for i in windows:
            ja, jb = (i + 1) % 5, (i + 2) % 5
            ca, cb = cell_of[succ[succ[walk[ja]]]], cell_of[succ[succ[walk[jb]]]]
            ok = need(kinds[ca] == "VVTRI", cid,
                      f"opposite quadrant at {tail[walk[ja]]} is not VVTRI") and \
                 need(kinds[cb] == "VVTRI", cid,
                      f"opposite quadrant at {tail[walk[jb]]} is not VVTRI")
            if not ok:
                continue
            mid = decode[walk[ja]][0]
            if not need(len(edges[mid].crossings) == 2, cid,
                        f"middle side edge {mid} is not twice-crossed"):
                continue
            found.append(Configuration(
                kind="CFG15",
                cells=tuple(sorted({cid, records[ca].cell_id, records[cb].cell_id})),
                designated_edge=mid,
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
    recs, kinds = _classified(drawing)
    numbered = _trails(drawing)
    trails = _named(drawing, numbered)
    cfgs = detect_configurations(drawing, numbered, strict=strict)

    counts: Dict[str, int] = dict(stats(drawing).as_dict())
    for t in CELL_COUNT_KEYS:
        counts[t] = 0
    for kind in kinds:
        counts[kind] += 1
    counts["LARGE"] += counts["KITE"]  # kites are large cells
    counts["large_size_sum"] = sum(
        r.size for r, kind in zip(recs, kinds) if kind in ("LARGE", "KITE"))
    counts["cells"] = len(recs)
    counts.update(trail_counts(trails))
    for k in CFG_KEYS:
        counts[k] = 0
    for c in cfgs:
        counts[c.kind] += 1
    return CensusReport(recs, {r.cell_id: kind for r, kind in zip(recs, kinds)}, trails, cfgs, counts)
