import json
import math
import random
import sys
import time
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplane.geometry import (
    GeometricScene,
    SceneError,
    _crossing,
    _meet,
    ccw_from,
    ccw_sorted,
    frac_from_str,
    frac_to_str,
    orient,
    parse_scene,
    segment_relation,
    serialize_scene,
)


def P(x, y):
    return (Fraction(x), Fraction(y))


def on_segment(p, a, b):
    """p lies on the closed segment ab: the oracle the arrangement kernel is checked against."""
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
            and orient(a, b, p) == 0)


def test_frac_round_trip():
    for s in ("1/2", "-3/1", "0/1", "7/3"):
        assert frac_to_str(frac_from_str(s)) == s
    assert frac_from_str(4) == Fraction(4)


def test_frac_rejects_garbage():
    for bad in ("", "x", "1/0", None, 1.5, True, False):
        with pytest.raises(SceneError):
            frac_from_str(bad)


def test_frac_accepts_small_exponents():
    assert frac_from_str("1e3") == 1000
    assert frac_from_str("-2.5E-2") == Fraction(-1, 40)
    assert frac_from_str(" 3e+1_0 ") == 3 * 10 ** 10
    limit = sys.get_int_max_str_digits()
    assert frac_from_str(f"1e{limit}") == 10 ** limit


# An exponent is held to the limit CPython puts on the digits of an int:
# "1e99999999" used to build a hundred-million-digit power of ten.
@pytest.mark.parametrize("text", ["1e99999999", "1e-99999999", "7.5E+99999999", "1e4301",
                                  "1e" + "9" * 5000, "1e_1", "1e"])
def test_frac_refuses_huge_exponents_fast(text):
    start = time.perf_counter()
    with pytest.raises(SceneError, match="^bad rational "):
        frac_from_str(text)
    assert time.perf_counter() - start < 1


def test_orient_signs():
    assert orient(P(0, 0), P(1, 0), P(0, 1)) > 0
    assert orient(P(0, 0), P(0, 1), P(1, 0)) < 0
    assert orient(P(0, 0), P(1, 1), P(2, 2)) == 0
    a, b = P(0, 0), P(2, 2)
    assert on_segment(a, a, b) and on_segment(b, a, b)    # endpoints
    assert on_segment(P(1, 1), a, b)                       # interior
    assert not on_segment(P(3, 3), a, b)                   # collinear, outside
    assert not on_segment(P(-1, -1), a, b)
    assert not on_segment(P(1, 0), a, b)                   # off the line


def test_proper_crossing_with_exact_point():
    kind, p = segment_relation(P(0, 0), P(1, 1), P(0, 1), P(1, 0))
    assert kind == "proper"
    assert p == P(Fraction(1, 2), Fraction(1, 2))


def test_disjoint_segments():
    assert segment_relation(P(0, 0), P(1, 0), P(0, 1), P(1, 1)) == ("disjoint",)
    # collinear but separated intervals
    assert segment_relation(P(0, 0), P(1, 0), P(2, 0), P(3, 0)) == ("disjoint",)
    # parallel, never meeting
    assert segment_relation(P(0, 0), P(2, 2), P(0, 1), P(2, 3)) == ("disjoint",)


def test_shared_endpoint():
    kind, p = segment_relation(P(0, 0), P(1, 0), P(1, 0), P(1, 1))
    assert kind == "shared-endpoint"
    assert p == P(1, 0)
    # collinear segments that only touch at one point
    kind, p = segment_relation(P(0, 0), P(1, 0), P(1, 0), P(2, 0))
    assert kind == "shared-endpoint"
    assert p == P(1, 0)


def test_endpoint_on_interior():
    kind, p = segment_relation(P(0, 0), P(2, 0), P(1, 0), P(1, 1))
    assert kind == "endpoint-on-interior"
    assert p == P(1, 0)
    # symmetric case: first segment's endpoint inside the second
    kind, p = segment_relation(P(1, 0), P(1, 1), P(0, 0), P(2, 0))
    assert kind == "endpoint-on-interior"
    assert p == P(1, 0)


def test_collinear_overlap():
    assert segment_relation(P(0, 0), P(2, 0), P(1, 0), P(3, 0)) == ("collinear-overlap",)
    # containment counts as overlap
    assert segment_relation(P(0, 0), P(3, 0), P(1, 0), P(2, 0)) == ("collinear-overlap",)


_coord = st.fractions(min_value=-8, max_value=8, max_denominator=4)
_point = st.tuples(_coord, _coord)


@settings(derandomize=True, max_examples=200)
@given(_point, _point, _point, _point)
def test_segment_relation_is_symmetric(a, b, c, d):
    if a == b or c == d:
        return
    lhs = segment_relation(a, b, c, d)
    rhs = segment_relation(c, d, a, b)
    assert lhs == rhs


@settings(derandomize=True, max_examples=200)
@given(_point, _point, _point, _point)
def test_proper_crossing_point_lies_on_both_segments(a, b, c, d):
    if a == b or c == d:
        return
    rel = segment_relation(a, b, c, d)
    if rel[0] != "proper":
        return
    p = rel[1]
    for u, v in ((a, b), (c, d)):
        assert orient(u, v, p) == 0
        assert on_segment(p, u, v) and p not in (u, v)


def test_ccw_sorted_orders_by_angle_from_east():
    dirs = {
        "e": P(1, 0), "ne": P(1, 1), "n": P(0, 1), "nw": P(-1, 1),
        "w": P(-1, 0), "sw": P(-1, -1), "s": P(0, -1), "se": P(1, -1),
    }
    items = sorted(dirs.items())  # scrambled relative to angle
    assert ccw_sorted([(k, v) for k, v in items]) == [
        "e", "ne", "n", "nw", "w", "sw", "s", "se"]


def test_ccw_sorted_ignores_magnitude():
    assert ccw_sorted([("a", P(2, 0)), ("b", P(0, 3)), ("c", P(5, 5))]) == ["a", "c", "b"]


def test_ccw_sorted_refuses_two_items_in_one_direction():
    with pytest.raises(SceneError, match="^darts 'a' and 'b' leave a node in the same direction$"):
        ccw_sorted([("a", (1, 0)), ("b", (2, 0))])


def test_ccw_from_rotates_to_base():
    items = [("e", P(1, 0)), ("n", P(0, 1)), ("w", P(-1, 0)), ("s", P(0, -1))]
    assert ccw_from(P(-1, 0), items) == ["w", "s", "e", "n"]
    assert ccw_from(P(1, -1), items) == ["e", "n", "w", "s"]


# ``ccw_sorted`` and ``ccw_from`` as they were before the two half-planes
# were sorted apart: one comparison sort over (half-plane, cross product).
def _half_oracle(v):
    return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1


def _cmp_dir_oracle(v, w):
    hv, hw = _half_oracle(v), _half_oracle(w)
    if hv != hw:
        return -1 if hv < hw else 1
    c = v[0] * w[1] - v[1] * w[0]
    return -1 if c > 0 else 1 if c < 0 else 0


def ccw_sorted_oracle(items):
    ordered = sorted(items, key=cmp_to_key(lambda p, q: _cmp_dir_oracle(p[1], q[1])))
    for (k1, v1), (k2, v2) in zip(ordered, ordered[1:]):
        if _cmp_dir_oracle(v1, v2) == 0:
            raise SceneError(f"darts {k1!r} and {k2!r} leave a node in the same direction")
    return [k for k, _ in ordered]


def ccw_from_oracle(base, items):
    ordered = ccw_sorted_oracle(items)
    start = sum(1 for _, v in items if _cmp_dir_oracle(v, base) < 0)
    return ordered[start:] + ordered[:start]


def _either(sort, *args):
    """What ``sort(*args)`` returns, or the text of the ``SceneError`` it raises."""
    try:
        return sort(*args)
    except SceneError as exc:
        return f"SceneError: {exc}"


_DIRECTION_COORDS = {
    "int": (lambda rng: rng.randint(-3, 3), lambda rng: rng.randint(2, 5)),
    "fraction": (lambda rng: Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                 lambda rng: Fraction(rng.randint(1, 9), rng.randint(1, 4))),
    "1e40": (lambda rng: rng.choice((-1, 0, 1)) * 10 ** 40 + rng.randint(-3, 3) * 10 ** 39,
             lambda rng: rng.randint(2, 5)),
}


def _directions(rng, coord, factor):
    """1-8 nonzero directions: random ones, axis ones, opposites and positive multiples of earlier ones."""
    out, count = [], rng.randint(1, 8)
    while len(out) < count:
        pick = rng.random()
        if out and pick < 0.2:  # the opposite of an earlier one
            x, y = rng.choice(out)
            v = (-x, -y)
        elif out and pick < 0.3:  # the same direction again, refused
            x, y = rng.choice(out)
            f = factor(rng)
            v = (f * x, f * y)
        elif pick < 0.5:  # along an axis
            c = coord(rng) or 1
            v = rng.choice(((c, 0 * c), (0 * c, c)))
        else:
            v = (coord(rng), coord(rng))
        if v != (0, 0):
            out.append(v)
    return out


@pytest.mark.parametrize("kind", _DIRECTION_COORDS)
def test_ccw_sorted_and_ccw_from_decide_as_the_oracle(kind):
    coord, factor = _DIRECTION_COORDS[kind]
    rng = random.Random(kind)
    refused = accepted = opposite = axis = 0
    for _ in range(400):
        dirs = _directions(rng, coord, factor)
        items = [(f"d{i}", v) for i, v in enumerate(dirs)]
        got = _either(ccw_sorted, items)
        assert got == _either(ccw_sorted_oracle, items), items
        refused += isinstance(got, str)
        accepted += not isinstance(got, str)
        opposite += any((-x, -y) in dirs for x, y in dirs)
        axis += any(0 in v for v in dirs)
        for base in [*dirs, *((-x, -y) for x, y in dirs), (coord(rng) or 1, 0), (0, -(coord(rng) or 1))]:
            assert _either(ccw_from, base, items) == _either(ccw_from_oracle, base, items), (base, items)
    assert min(refused, accepted, opposite, axis) > 20


def test_ccw_sorted_names_the_first_pair_in_one_direction_as_the_oracle():
    items = [("a", (0, -2)), ("b", (3, 1)), ("c", (0, -1)), ("d", (6, 2)), ("e", (-1, 0))]
    with pytest.raises(SceneError, match="^darts 'b' and 'd' leave a node in the same direction$"):
        ccw_sorted(items)
    assert _either(ccw_sorted_oracle, items) == "SceneError: darts 'b' and 'd' leave a node in the same direction"
    with pytest.raises(SceneError, match="^darts 'a' and 'c' leave a node in the same direction$"):
        ccw_sorted(items[:1] + items[2:])


def test_scene_round_trip():
    text = json.dumps({
        "points": {"a": ["0", "0"], "b": ["1", "0"], "c": ["1/2", "3/4"]},
        "segments": [{"id": "e0", "ends": ["a", "b"]}, {"id": "e1", "ends": ["b", "c"]}],
    })
    scene = parse_scene(text)
    assert scene.points["c"] == (Fraction(1, 2), Fraction(3, 4))
    again = parse_scene(serialize_scene(scene))
    assert again.points == scene.points
    assert again.segments == scene.segments


def test_parse_scene_rejects_malformed_input():
    with pytest.raises(SceneError):
        parse_scene("not json")
    with pytest.raises(SceneError):
        parse_scene(json.dumps([]))
    with pytest.raises(SceneError):
        parse_scene(json.dumps({"points": {"a": ["0", "0"]}}))  # missing segments
    with pytest.raises(SceneError):
        parse_scene(json.dumps({                                # unknown endpoint
            "points": {"a": ["0", "0"]},
            "segments": [{"id": "e0", "ends": ["a", "zz"]}],
        }))
    with pytest.raises(SceneError):
        parse_scene(json.dumps({                                # duplicate segment id
            "points": {"a": ["0", "0"], "b": ["1", "0"], "c": ["0", "1"]},
            "segments": [{"id": "e0", "ends": ["a", "b"]}, {"id": "e0", "ends": ["b", "c"]}],
        }))
    ab = {"a": ["0", "0"], "b": ["1", "0"]}
    for bad in (
        {"points": [], "segments": []},                                    # points not an object
        {"points": ab, "segments": {}},                                    # segments not a list
        {"points": ab, "segments": [{"id": ["s"], "ends": ["a", "b"]}]},   # unhashable id
        {"points": ab, "segments": [{"id": 7, "ends": ["a", "b"]}]},       # id not a string
        {"points": ab, "segments": [{"id": "", "ends": ["a", "b"]}]},      # empty id
        {"points": {"": ["0", "0"]}, "segments": []},                      # empty point name
        {"points": ab, "segments": [{"id": "e0", "ends": 5}]},             # ends not a pair
        {"points": ab, "segments": [{"id": "e0", "ends": [["a"], "b"]}]},  # unhashable end
        {"points": {"a": [True, "0"], "b": ["1", "0"]}, "segments": []},   # boolean coordinate
    ):
        with pytest.raises(SceneError):
            parse_scene(json.dumps(bad))


# A scene built in code is held to the rules parse_scene's scenes are, with
# the same texts: each case is one defect, given as (points, segments) and,
# where JSON can say it, as the scene file that parse_scene refuses alike.
_AB = {"a": (0, 0), "b": (1, Fraction(1, 2))}
_AB_JSON = {"a": ["0", "0"], "b": ["1", "1/2"]}


@pytest.mark.parametrize("points,segments,text,obj", [
    ({"a": (1.5, 0)}, (), "bad rational 1.5", {"points": {"a": [1.5, "0"]}, "segments": []}),
    ({"a": (0, 0, 0)}, (), "point 'a' must be a coordinate pair", {"points": {"a": ["0", "0", "0"]}, "segments": []}),
    ({3: (0, 0)}, (), "point names must be nonempty", None),
    ({"": (0, 0)}, (), "point names must be nonempty", {"points": {"": ["0", "0"]}, "segments": []}),
    (_AB, (("", ("a", "b")),), "segment id '' must be a nonempty string",
     {"points": _AB_JSON, "segments": [{"id": "", "ends": ["a", "b"]}]}),
    (_AB, (("e0", ("a", "b")), ("e0", ("b", "a"))), "duplicate segment id 'e0'",
     {"points": _AB_JSON, "segments": [{"id": "e0", "ends": ["a", "b"]}, {"id": "e0", "ends": ["b", "a"]}]}),
    (_AB, (("e0", ("a", "zz")),), "segment 'e0' has an end that is not a point",
     {"points": _AB_JSON, "segments": [{"id": "e0", "ends": ["a", "zz"]}]}),
    (_AB, (("e0", ("a", "a")),), "segment 'e0' joins a point to itself",
     {"points": _AB_JSON, "segments": [{"id": "e0", "ends": ["a", "a"]}]}),
    ({"\ud800": (0, 0)}, (), "point names and segment ids must not contain surrogate code points",
     {"points": {"\ud800": ["0", "0"]}, "segments": []}),
], ids=["float-coordinate", "three-coordinates", "int-name", "empty-name", "empty-id", "duplicate-id", "unknown-end",
        "equal-ends", "surrogate-name"])
def test_scene_checks_itself(points, segments, text, obj):
    with pytest.raises(SceneError) as built:
        GeometricScene(points, segments)
    assert str(built.value) == text
    if obj is not None:
        with pytest.raises(SceneError) as parsed:
            parse_scene(json.dumps(obj))
        assert str(parsed.value) == text


_int_coord = st.integers(min_value=-6, max_value=6)
_int_point = st.tuples(_int_coord, _int_coord)


# The arrangement runs segment_relation on integer points; its answers must be
# those of the Fraction copies, with exact Fraction points, never floats.
@settings(derandomize=True, max_examples=300)
@given(_int_point, _int_point, _int_point, _int_point)
def test_segment_relation_on_ints_matches_fractions(a, b, c, d):
    if a == b or c == d:
        return
    rel = segment_relation(a, b, c, d)
    assert rel == segment_relation(*(P(*q) for q in (a, b, c, d)))
    for coord in rel[1] if len(rel) == 2 else ():
        assert type(coord) is Fraction


def _seeded_quads(seed, coord):
    rng = random.Random(seed)
    for _ in range(400):
        a, b, c, d = (tuple(coord(rng) for _ in range(2)) for _ in range(4))
        if a != b and c != d:
            yield a, b, c, d


# segment_relation is _meet plus a conversion to Fraction points: proper
# crossings come back from reduced triples, endpoints as the very points passed.
@pytest.mark.parametrize("coord", [
    lambda rng: rng.randint(-4, 4),
    lambda rng: Fraction(rng.randint(-12, 12), rng.randint(1, 3)),
    lambda rng: rng.choice((-1, 1)) * 10 ** 40 + rng.randint(-3, 3) * 10 ** 39,
], ids=["int", "fraction", "1e40"])
@pytest.mark.parametrize("seed", range(3))
def test_segment_relation_is_the_kernel_converted(coord, seed):
    kinds = set()
    for a, b, c, d in _seeded_quads(seed, coord):
        kind, where = _meet(a, b, c, d)
        rel = segment_relation(a, b, c, d)
        kinds.add(kind)
        assert rel[0] == kind
        if kind == "proper":
            x, y, w = where
            assert w > 0 and rel[1] == (Fraction(x, w), Fraction(y, w))
            if type(a[0]) is int:
                assert math.gcd(x, y, w) == 1
        elif where is not None:
            assert any(where is q for q in (a, b, c, d)) and rel[1] == P(*where)
        else:
            assert rel == (kind,)
    assert {"disjoint", "proper"} <= kinds


# _crossing is the one crossing test: _meet's proper crossings are its
# triples, its disjoint pairs are _meet's disjoint pairs that are not
# collinear, and what it leaves degenerate is collinear or an end on the other.
@pytest.mark.parametrize("coord", [
    lambda rng: rng.randint(-4, 4),
    lambda rng: Fraction(rng.randint(-12, 12), rng.randint(1, 3)),
    lambda rng: rng.choice((-1, 1)) * 10 ** 40 + rng.randint(-3, 3) * 10 ** 39,
], ids=["int", "fraction", "1e40"])
@pytest.mark.parametrize("seed", range(3))
def test_crossing_is_meets_kernel(coord, seed):
    answers = set()
    for a, b, c, d in _seeded_quads(seed, coord):
        hit = _crossing(a[0], a[1], b[0] - a[0], b[1] - a[1], c, d)
        kind, where = _meet(a, b, c, d)
        collinear = orient(a, b, c) == 0 and orient(a, b, d) == 0
        if hit is None:
            assert kind == "disjoint" and not collinear
        elif hit == ():
            assert kind != "proper" and (kind != "disjoint" or collinear)
        else:
            assert kind == "proper" and hit == where
        answers.add(hit if hit is None or hit == () else "proper")
    assert answers >= {None, "proper"}


@pytest.mark.parametrize("a,b,c,d,kind", [
    ((0, 0), (4, 0), (1, 0), (3, 0), "collinear-overlap"),
    ((0, 0), (1, 0), (2, 0), (3, 0), "disjoint"),              # collinear, apart
    ((0, 0), (2, 0), (2, 0), (3, 1), "shared-endpoint"),
    ((0, 0), (2, 0), (1, 0), (1, 1), "endpoint-on-interior"),
    ((1, 1), (1, 0), (0, 0), (2, 0), "endpoint-on-interior"),  # an end of the first on the second
])
@pytest.mark.parametrize("as_fraction", [False, True])
def test_crossing_leaves_degenerate_pairs_to_meet(a, b, c, d, kind, as_fraction):
    if as_fraction:
        a, b, c, d = (P(*q) for q in (a, b, c, d))
    assert _crossing(a[0], a[1], b[0] - a[0], b[1] - a[1], c, d) == ()
    assert _meet(a, b, c, d)[0] == kind
