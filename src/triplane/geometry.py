"""Exact geometry for straight-line scenes.

Every predicate is decided by sign computations, never by floating point.
Scene coordinates are ``fractions.Fraction``, but the predicates take
``int`` or ``Fraction`` coordinates alike: the arrangement in
``generators`` scales a scene once by the lcm of its denominators and runs
the one crossing test, ``_crossing``, on ``int`` pairs, where two segments
cross in a reduced integer triple; ``_meet`` calls the same test and
decides only the degenerate pairs it leaves (collinear or touching) by
itself.  So ``Fraction`` appears only at the scene-JSON boundary and in
``segment_relation``'s return.  A scene is a set of labelled points and
straight segments between them::

    {"points": {"v1": ["1/2", "-3/1"], ...},
     "segments": [{"id": "e1", "ends": ["v1", "v2"]}, ...]}
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Dict, List, Sequence, Tuple

from .drawing import _SURROGATE, _load_json, frac_to_str

Point = Tuple[Fraction, Fraction]


class SceneError(ValueError):
    """A scene file or scene content that cannot be accepted."""


def frac_from_str(s) -> Fraction:
    if isinstance(s, str):
        try:
            # CPython's limit on int digits (4300 by default) also holds an exponent,
            # so "1e99999999" is refused instead of building a huge power of ten
            _, e, exponent = s.lower().partition("e")
            limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
            if e and limit and abs(int(exponent)) > limit:
                raise ValueError
            return Fraction(s)
        except (ValueError, ZeroDivisionError):
            raise SceneError(f"bad rational {s!r}") from None
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    raise SceneError(f"bad rational {s!r}")


def sub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1])


def cross(a: Point, b: Point) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def orient(o: Point, a: Point, b: Point) -> Fraction:
    """Positive iff o->a->b turns counterclockwise."""
    return cross(sub(a, o), sub(b, o))


def segment_relation(a: Point, b: Point, c: Point, d: Point):
    """How segments ab and cd meet.

    Returns one of
      ("disjoint",)
      ("proper", point)             -- transversal interior crossing
      ("shared-endpoint", point)    -- touch exactly at a shared endpoint
      ("endpoint-on-interior", point)
      ("collinear-overlap",)

    Points are ``Fraction`` pairs; the cases are ``_meet``'s.
    """
    kind, where = _meet(a, b, c, d)
    if where is None:
        return (kind,)
    if kind == "proper":
        return (kind, (Fraction(where[0], where[2]), Fraction(where[1], where[2])))
    return (kind, (Fraction(where[0]), Fraction(where[1])))


def _meet(a: Point, b: Point, c: Point, d: Point):
    """The kind of ``segment_relation`` and where the segments meet, or ``None``.

    An endpoint case gives the endpoint as passed; a proper crossing gives
    ``_crossing``'s triple.  The cases are decided on the numerators of the
    two segment parameters, so ``int`` inputs need no division; only the
    degenerate pairs that ``_crossing`` leaves are decided here.
    """
    rx, ry = b[0] - a[0], b[1] - a[1]
    hit = _crossing(a[0], a[1], rx, ry, c, d)
    if hit is None:
        return ("disjoint", None)
    if hit:
        return ("proper", hit)
    sx, sy = d[0] - c[0], d[1] - c[1]
    cax, cay = c[0] - a[0], c[1] - a[1]
    denom = rx * sy - ry * sx
    if denom == 0:  # collinear: compare 1-d intervals along r
        t0 = cax * rx + cay * ry
        t1 = (d[0] - a[0]) * rx + (d[1] - a[1]) * ry
        lo, hi = min(t0, t1), max(t0, t1)
        myhi = rx * rx + ry * ry
        if hi < 0 or lo > myhi:
            return ("disjoint", None)
        if hi == 0:
            return ("shared-endpoint", c if t0 == hi else d)
        if lo == myhi:
            return ("shared-endpoint", c if t0 == lo else d)
        return ("collinear-overlap", None)
    # they touch: an end of one lies on the other
    tn, un = cax * sy - cay * sx, cax * ry - cay * rx
    if denom < 0:
        denom, tn, un = -denom, -tn, -un
    u_end = un == 0 or un == denom
    if tn == 0 or tn == denom:
        return ("shared-endpoint" if u_end else "endpoint-on-interior", a if tn == 0 else b)
    return ("endpoint-on-interior", c if un == 0 else d)


def _crossing(ax, ay, rx, ry, c: Point, d: Point):
    """How segment ab, given as ``a = (ax, ay)`` and ``r = b - a``, meets segment cd.

    ``None`` if they are disjoint; the proper crossing as the triple
    ``(x*w, y*w, w)`` with ``w > 0``, reduced to ``gcd == 1`` on ``int``
    points, so equal points are equal triples; or ``()`` if they are
    degenerate: collinear (overlapping, touching or apart) or touching
    where an end of one lies on the other.  The one crossing test of the
    package: ``_meet`` calls it first, and the arrangement calls it on
    each pair its box test keeps, with r worked out once per segment.
    """
    sx, sy = d[0] - c[0], d[1] - c[1]
    cax, cay = c[0] - ax, c[1] - ay
    denom = rx * sy - ry * sx
    un = cax * ry - cay * rx
    if denom == 0:
        return None if un else ()
    tn = cax * sy - cay * sx
    if denom < 0:
        denom, tn, un = -denom, -tn, -un
    if not (0 <= tn <= denom and 0 <= un <= denom):
        return None
    if tn == 0 or tn == denom or un == 0 or un == denom:
        return ()
    x, y = ax * denom + tn * rx, ay * denom + tn * ry
    if type(denom) is int:  # every coordinate is an int
        g = math.gcd(x, y, denom)
        return (x // g, y // g, denom // g)
    return (x, y, denom)


def _upper(v: Point) -> bool:
    """``v`` points into the upper half-plane: y > 0, or y = 0 and x > 0."""
    return v[1] > 0 or (v[1] == 0 and v[0] > 0)


def _turn(p: Tuple[object, Point], q: Tuple[object, Point]):
    """Negative iff item p's direction comes before q's counterclockwise, within one half-plane."""
    (_, (px, py)), (_, (qx, qy)) = p, q
    return qx * py - qy * px


_BY_TURN = cmp_to_key(_turn)


def ccw_sorted(items: Sequence[Tuple[object, Point]]) -> List[object]:
    """Sort (key, direction) items counterclockwise from the positive x-axis: the upper half-plane,
    then the lower one, in each of which one cross product orders two items.

    Two items with the same direction are an error: a drawing cannot have
    two darts leaving a node the same way.
    """
    halves: Tuple[list, list] = ([], [])
    for item in items:
        halves[not _upper(item[1])].append(item)
    for half in halves:
        half.sort(key=_BY_TURN)
        for p, q in zip(half, half[1:]):
            if not _turn(p, q):  # opposite directions lie in different halves
                raise SceneError(f"darts {p[0]!r} and {q[0]!r} leave a node in the same direction")
    return [k for half in halves for k, _ in half]


def ccw_from(base: Point, items: Sequence[Tuple[object, Point]]) -> List[object]:
    """Sort items counterclockwise, starting with the first at or after ``base``."""
    ordered = ccw_sorted(items)
    up = _upper(base)
    start = sum(1 for _, v in items if _upper(v) > up or (_upper(v) == up and cross(v, base) > 0))  # items before base
    return ordered[start:] + ordered[:start]


# -- scene format ------------------------------------------------------------

@dataclass(frozen=True)
class GeometricScene:
    """Named points and segments between them.  Construction refuses with ``SceneError`` a name or
    id that is empty, not a string or holds a surrogate, a repeated id, a point that is not a pair of
    ``int`` or ``Fraction``, and a segment whose ends are not two different points of the scene."""
    points: Dict[str, Point]
    segments: Tuple[Tuple[str, Tuple[str, str]], ...]  # (id, (end, end))

    def __post_init__(self):
        for name, xy in self.points.items():
            if not isinstance(name, str) or not name:
                raise SceneError("point names must be nonempty")
            if len(xy) != 2:
                raise SceneError(f"point {name!r} must be a coordinate pair")
            for c in xy:
                if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
                    raise SceneError(f"bad rational {c!r}")
        ids = set()
        for sid, (u, v) in self.segments:
            if not isinstance(sid, str) or not sid:
                raise SceneError(f"segment id {sid!r} must be a nonempty string")
            if sid in ids:
                raise SceneError(f"duplicate segment id {sid!r}")
            ids.add(sid)
            if u not in self.points or v not in self.points:
                raise SceneError(f"segment {sid!r} has an end that is not a point")
            if u == v:
                raise SceneError(f"segment {sid!r} joins a point to itself")
        if _SURROGATE.search("".join(self.points) + "".join(ids)):
            raise SceneError("point names and segment ids must not contain surrogate code points")


def parse_scene(text: str) -> GeometricScene:
    obj = _load_json(text, SceneError)
    if not isinstance(obj, dict) or set(obj) != {"points", "segments"}:
        raise SceneError("top level must have exactly the keys points, segments")
    if not isinstance(obj["points"], dict):
        raise SceneError("points must be an object")
    if not isinstance(obj["segments"], list):
        raise SceneError("segments must be a list")
    points = {}
    for name, xy in obj["points"].items():
        if not isinstance(xy, list) or len(xy) != 2:
            raise SceneError(f"point {name!r} must be a coordinate pair")
        points[name] = (frac_from_str(xy[0]), frac_from_str(xy[1]))
    segments = []
    for s in obj["segments"]:
        if not isinstance(s, dict) or set(s) != {"id", "ends"}:
            raise SceneError(f"segment record must have exactly id, ends: {s!r}")
        sid, ends = s["id"], s["ends"]
        if not isinstance(ends, list) or len(ends) != 2 or not all(isinstance(e, str) for e in ends):
            raise SceneError(f"segment {sid!r} has an end that is not a point")
        segments.append((sid, (ends[0], ends[1])))
    return GeometricScene(points, tuple(segments))


def serialize_scene(scene: GeometricScene) -> str:
    obj = {
        "points": {
            name: [frac_to_str(x), frac_to_str(y)]
            for name, (x, y) in sorted(scene.points.items())
        },
        "segments": [
            {"id": sid, "ends": list(ends)}
            for sid, ends in sorted(scene.segments, key=lambda s: s[0])
        ],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
