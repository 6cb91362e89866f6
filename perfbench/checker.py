"""Independent checks of triplane's outputs.

Nothing here imports ``triplane``.  Drawings are read from the serialized
TDR JSON and their faces are traced from the rotations directly; expected
sizes come from closed forms, from brute-force exact intersection of the
straight-line scene, and from invariants, never from a stored copy of an
earlier output.  Every check raises ``CheckFailure`` naming what broke.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Mapping, Sequence, Tuple

Dart = Tuple[str, int, str]


class CheckFailure(AssertionError):
    """An output that contradicts a closed form, a brute-force count or an invariant."""


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailure(msg)


class Tdr:
    """The fields of a TDR drawing, read without triplane."""

    def __init__(self, text: str):
        obj = json.loads(text)
        _need(isinstance(obj, dict) and set(obj) == {"vertices", "edges", "rotations"},
              "top level must hold exactly vertices, edges, rotations")
        self.vertices: List[str] = list(obj["vertices"])
        self.edges: Dict[str, Tuple[Tuple[str, str], Tuple[str, ...]]] = {}
        for e in obj["edges"]:
            _need(e["id"] not in self.edges, f"duplicate edge id {e['id']!r}")
            self.edges[e["id"]] = (tuple(e["ends"]), tuple(e["crossings"]))
        self.rotations: Dict[str, List[Dart]] = {
            node: [(d["edge"], d["seg"], d["dir"]) for d in darts]
            for node, darts in obj["rotations"].items()}

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def crossing_ids(self) -> set:
        return {x for _, xs in self.edges.values() for x in xs}

    @property
    def num_crossings(self) -> int:
        return len(self.crossing_ids())

    def tail(self, dart: Dart) -> str:
        (a, b), xs = self.edges[dart[0]]
        points = (a,) + xs + (b,)
        return points[dart[1]] if dart[2] == "fwd" else points[dart[1] + 1]


def _twin(d: Dart) -> Dart:
    return (d[0], d[1], "bwd" if d[2] == "fwd" else "fwd")


def check_valid(t: Tdr) -> List[List[Dart]]:
    """Check that ``t`` is a valid 3-plane drawing on the sphere; return its faces.

    Checks: distinct vertex ids; edge ends are distinct vertices; at most 3
    crossings per edge; every crossing lies on exactly two distinct edges;
    every dart is listed once, at its tail; crossings alternate; the faces
    traced from the rotations satisfy V - S + F = 2; and no face is a lens
    bounded by two different segments.
    """
    vset = set(t.vertices)
    _need(len(vset) == len(t.vertices), "duplicate vertex id")
    places: Dict[str, List[str]] = {}
    for eid, ((a, b), xs) in t.edges.items():
        _need(a in vset and b in vset, f"edge {eid} has an end that is not a vertex")
        _need(a != b, f"edge {eid} is a loop")
        _need(len(xs) <= 3, f"edge {eid} has {len(xs)} crossings")
        for x in xs:
            _need(x not in vset, f"crossing {x} collides with a vertex id")
            places.setdefault(x, []).append(eid)
    for x, eids in places.items():
        _need(len(eids) == 2 and eids[0] != eids[1],
              f"crossing {x} lies on edges {eids}, expected two distinct edges")

    _need(set(t.rotations) == vset | set(places),
          "rotation keys must be exactly the vertices and crossings")
    listed: Dict[Dart, Tuple[str, int]] = {}
    for node, darts in t.rotations.items():
        for i, d in enumerate(darts):
            _need(d[0] in t.edges, f"rotation at {node} names unknown edge {d[0]}")
            _need(d not in listed, f"dart {d} listed twice")
            listed[d] = (node, i)
    segments = 0
    for eid, (_, xs) in t.edges.items():
        for i in range(len(xs) + 1):
            segments += 1
            for d in ((eid, i, "fwd"), (eid, i, "bwd")):
                _need(d in listed, f"dart {d} missing from the rotations")
                _need(listed[d][0] == t.tail(d), f"dart {d} is not listed at its tail")
    _need(len(listed) == 2 * segments, "rotations list darts of no segment")

    for x, eids in places.items():
        rot = [d[0] for d in t.rotations[x]]
        _need(len(rot) == 4 and rot[0] == rot[2] and rot[1] == rot[3]
              and {rot[0], rot[1]} == set(eids), f"crossing {x} does not alternate")

    faces: List[List[Dart]] = []
    seen = set()
    for d0 in sorted(listed):
        if d0 in seen:
            continue
        walk = []
        d = d0
        while d not in seen:
            seen.add(d)
            walk.append(d)
            node, i = listed[_twin(d)]
            rot = t.rotations[node]
            d = rot[(i + 1) % len(rot)]
        _need(d == d0, f"face walk from {d0} does not close")
        faces.append(walk)

    nodes = len(t.rotations)
    _need(nodes - segments + len(faces) == 2,
          f"V - S + F = {nodes} - {segments} + {len(faces)} != 2")
    for walk in faces:
        if len(walk) == 2:
            _need(walk[0][:2] == walk[1][:2],
                  f"lens face bounded by segments {walk[0][:2]} and {walk[1][:2]}")
    return faces


def check_filled(t: Tdr, faces: Sequence[Sequence[Dart]]) -> None:
    """Every pair of vertices on a face is joined by an uncrossed edge of that face's walk."""
    vset = set(t.vertices)
    for walk in faces:
        verts = sorted({t.tail(d) for d in walk} & vset)
        joined = set()
        for d in walk:
            ends, xs = t.edges[d[0]]
            if not xs:
                joined.add(frozenset(ends))
        for u, v in combinations(verts, 2):
            _need(frozenset((u, v)) in joined,
                  f"vertices {u} and {v} share a face but no uncrossed edge of it")


def _sizes(t: Tdr, n: int, edges: int, crossings: int, family: str) -> None:
    _need((t.n, t.num_edges, t.num_crossings) == (n, edges, crossings),
          f"{family}: (n, |E|, |X|) = {(t.n, t.num_edges, t.num_crossings)}, "
          f"closed form gives {(n, edges, crossings)}")


def check_fig3(t: Tdr, layers: int) -> None:
    """n = 6(L+1), |E| = 5.5n - 15, |X| = 5.5n - 21."""
    n = 6 * (layers + 1)
    _sizes(t, n, (11 * n - 30) // 2, (11 * n - 42) // 2, f"fig3 L={layers}")


def fig2_sizes(rings: int) -> Tuple[int, int, int]:
    """(n, |E|, |X|) of the pentagonal-rings family, counted from its construction.

    Rings 0..R alternate 5-cycles and 10-cycles; each annulus has 5 spokes
    and 5 pentagonal faces; the inner cap, and the outer cap when R is even,
    are pentagons too.  Every pentagonal face gets 5 chords that cross in 5
    points.
    """
    n = sum(5 if k % 2 == 0 else 10 for k in range(rings + 1))
    pentagons = 1 + 5 * rings + (1 if rings % 2 == 0 else 0)
    return n, n + 5 * rings + 5 * pentagons, 5 * pentagons


def check_fig2(t: Tdr, rings: int) -> None:
    _sizes(t, *fig2_sizes(rings), f"fig2 R={rings}")


def check_saturated_ngon(t: Tdr, n: int) -> None:
    """A saturated cycle is a triangulation: |E| = 3n - 6 and |X| = 0."""
    _sizes(t, n, 3 * n - 6, 0, f"saturated {n}-gon")


def check_saturation(before: Tdr, after: Tdr) -> int:
    """``after`` is valid, filled and keeps ``before``; return the edges added."""
    check_filled(after, check_valid(after))
    _need(sorted(after.vertices) == sorted(before.vertices), "saturation changed the vertices")
    _need(after.crossing_ids() == before.crossing_ids(), "saturation changed the crossings")
    for eid, rec in before.edges.items():
        _need(after.edges.get(eid) == rec, f"saturation changed edge {eid}")
    for eid in after.edges.keys() - before.edges.keys():
        _need(not after.edges[eid][1], f"inserted edge {eid} is crossed")
    return after.num_edges - before.num_edges


def _as_exact(c):
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _orient(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def brute_force_crossings(points: Mapping[str, Sequence], segments) -> Dict[str, int]:
    """Per segment id, the number of proper crossings with non-adjacent segments.

    Exact: coordinates are compared with integer (or rational) orientation
    signs over every pair of segments.
    """
    pts = {k: (_as_exact(p[0]), _as_exact(p[1])) for k, p in points.items()}
    count = {sid: 0 for sid, _ in segments}
    for (s1, (u1, v1)), (s2, (u2, v2)) in combinations(segments, 2):
        if {u1, v1} & {u2, v2}:
            continue
        a, b, c, d = pts[u1], pts[v1], pts[u2], pts[v2]
        o1, o2 = _orient(a, b, c), _orient(a, b, d)
        o3, o4 = _orient(c, d, a), _orient(c, d, b)
        if o1 * o2 < 0 and o3 * o4 < 0:
            count[s1] += 1
            count[s2] += 1
    return count


def check_random_scene(t: Tdr, points: Mapping[str, Sequence], segments) -> None:
    """The drawing has the scene's points and segments, crossed as brute force says."""
    check_valid(t)
    _need(sorted(t.vertices) == sorted(points), "vertices differ from the scene's points")
    _need({sid: tuple(ends) for sid, ends in segments} == {e: ends for e, (ends, _) in t.edges.items()},
          "edges differ from the scene's segments")
    expected = brute_force_crossings(points, segments)
    for sid, k in expected.items():
        _need(len(t.edges[sid][1]) == k, f"segment {sid}: {len(t.edges[sid][1])} crossings, brute force {k}")
    _need(2 * t.num_crossings == sum(expected.values()),
          f"|X| = {t.num_crossings}, brute force {sum(expected.values()) // 2}")


def _q(s: str) -> Fraction:
    return Fraction(s)


def check_verdict(t: Tdr, check_rc: int, check_out: str, certs: Mapping[str, Tuple[int, str]],
                  fig3: bool) -> None:
    """Check one ``check`` + ``certify --target edges|crossings`` verdict on the drawing ``t``.

    ``certs`` maps each target to (exit code, stdout).  The row arithmetic
    is recomputed from the emitted rows: density residuals are 0 at
    t = 1, 2, 5; equality rows have slack 0; each contribution is coeff *
    slack; certified_slack is their sum; certified_slack +
    residual_at_census = total_slack = bound - value; value <= bound.  On
    fig3 the total slack is 4 for edges and 10 for crossings.
    """
    rep = json.loads(check_out)
    _need(rep["saturated"] is True, "check did not see a 3-saturated drawing")
    _need(rep["density_residuals"] == {"1": "0/1", "2": "0/1", "5": "0/1"},
          f"density residuals {rep['density_residuals']}")
    rows = {r["id"]: r for r in rep["rows"]}
    _need(len(rows) == 21, f"check reported {len(rows)} rows")
    for rid, r in rows.items():
        _need(r["slack"] == r["rhs"] - r["lhs"], f"row {rid}: slack is not rhs - lhs")
        _need(r["applicable"], f"row {rid} not applicable on a saturated drawing")
        if r["relation"] == "=":
            _need(r["slack"] == 0, f"equality row {rid} has slack {r['slack']}")
        _need(r["pass"] == (r["slack"] >= 0), f"row {rid}: pass flag disagrees with its slack")
    all_pass = all(r["pass"] for r in rows.values())
    _need(rep["all_pass"] == all_pass, "all_pass disagrees with the rows")
    _need(check_rc == (0 if all_pass else 1), f"check exited {check_rc}")

    bound = Fraction(11, 2) * (t.n - 2)
    values = {"edges": t.num_edges, "crossings": t.num_crossings}
    for target, (rc, out) in certs.items():
        _need(rc == 0, f"certify --target {target} exited {rc}")
        c = json.loads(out)
        _need(c["target"] == target, f"certify answered for {c['target']}, asked {target}")
        _need(_q(c["bound"]) == bound, f"{target}: bound {c['bound']}, expected {bound}")
        _need(c["value"] == values[target], f"{target}: value {c['value']}, drawing has {values[target]}")
        total = _q(c["total_slack"])
        _need(total == bound - c["value"], f"{target}: total_slack is not bound - value")
        _need(c["value"] <= bound, f"{target}: value {c['value']} exceeds bound {bound}")
        certified = Fraction(0)
        _need({r["id"] for r in c["rows"]} == rows.keys(), f"{target}: rows differ from check's")
        for r in c["rows"]:
            _need(r["slack"] == rows[r["id"]]["slack"], f"{target}: row {r['id']} slack differs from check's")
            contribution = _q(r["coeff"]) * r["slack"]
            _need(_q(r["contribution"]) == contribution, f"{target}: row {r['id']} contribution")
            certified += contribution
        _need(_q(c["certified_slack"]) == certified, f"{target}: certified_slack is not the rows' sum")
        _need(certified + _q(c["residual_at_census"]) == total,
              f"{target}: certified_slack + residual_at_census != total_slack")
        if fig3:
            _need(total == {"edges": 4, "crossings": 10}[target],
                  f"fig3 {target}: total slack {total}")
