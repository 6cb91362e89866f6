"""``_Arrangement.add`` and ``_Arrangement.darts`` against the rules they replaced.

``_add_oracle`` is ``add`` as it was before the one crossing test and the
lattice walk: every pair that passes the box test and shares no end goes to
``_meet``, and a segment whose direction is not primitive scans every point.
Both must return the same after every step, ``None`` or the same refusal
text, and end with the same segments, crossings and owners.

``_fraction_order`` is the crossing order ``darts`` gave by ``Fraction``
keys, and ``test_geometry.ccw_sorted_oracle`` the one comparison sort that
gave every node's rotation, crossings included: ``darts``' integer keys and
``generators._crossing_rotation``'s one orientation sign must agree with
them at every crossing.
"""

import math
import random
from fractions import Fraction

import pytest

from triplane import generators
from triplane.generators import GenerationError, _Arrangement, _crossing_rotation, _random_arrangement
from triplane.geometry import _meet, ccw_from, ccw_sorted, sub

from test_geometry import ccw_from_oracle, ccw_sorted_oracle


def _add_oracle(arr, sid, u, v):
    pts = arr.points
    a, b = pts[u], pts[v]
    ax, ay = a
    rx, ry = b[0] - ax, b[1] - ay
    xlo, xhi, ylo, yhi = min(ax, b[0]), max(ax, b[0]), min(ay, b[1]), max(ay, b[1])
    if math.gcd(rx, ry) > 1:
        for nm, (px, py) in pts.items():
            if (xlo <= px <= xhi and ylo <= py <= yhi
                    and nm != u and nm != v and rx * (py - ay) == ry * (px - ax)):
                return f"vertex-on-edge: point {nm!r} lies on segment {sid!r}"
    found = []
    for o, c, d, oxlo, oxhi, oylo, oyhi in arr.segments:
        if oxhi < xlo or oxlo > xhi or oyhi < ylo or oylo > yhi:
            continue
        if c == u or c == v or d == u or d == v:
            qx, qy = pts[d if c == u or c == v else c]
            if rx * (qy - ay) != ry * (qx - ax):
                continue
        kind, p = _meet(a, b, pts[c], pts[d])
        if kind == "disjoint" or kind == "shared-endpoint":
            continue
        if kind != "proper":
            return f"{kind}: {o!r} and {sid!r}"
        if p in arr.owner:
            o1, o2 = arr.owner[p]
            return f"concurrent-crossing: {o1!r}, {o2!r}, {sid!r} meet at one point"
        if len(arr.crossings[o]) == 3:
            return f"too-many-crossings: {o!r} is crossed 4 times"
        found.append((p, o))
        if len(found) == 4:
            return f"too-many-crossings: {sid!r} is crossed 4 times"
    arr.segments.append((sid, u, v, xlo, xhi, ylo, yhi))
    arr.crossings[sid] = found
    for p, o in found:
        arr.owner[p] = (o, sid)
        arr.crossings[o].append((p, sid))
    return None


def _branch(arr, u, v):
    """How ``add`` looks for points inside u-v, and how many lie there."""
    (ax, ay), (bx, by) = arr.points[u], arr.points[v]
    g = math.gcd(bx - ax, by - ay)
    inside = sum(1 for nm, (px, py) in arr.points.items()
                 if nm not in (u, v) and (bx - ax) * (py - ay) == (by - ay) * (px - ax)
                 and min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by))
    return ("primitive" if g == 1 else "walk" if g - 1 <= len(arr.points) else "scan", min(inside, 2))


def decide_both(points, candidates, branches=None):
    """Each candidate's outcome, asserted equal to the oracle's after every step."""
    arr, oracle = _Arrangement(points), _Arrangement(points)
    outcomes = []
    for sid, u, v in candidates:
        if branches is not None:
            branches.add(_branch(arr, u, v))
        got = arr.add(sid, u, v)
        assert got == _add_oracle(oracle, sid, u, v), (sid, u, v)
        outcomes.append(got)
    assert arr.segments == oracle.segments
    assert arr.crossings == oracle.crossings
    assert list(arr.owner.items()) == list(oracle.owner.items())
    return outcomes


def _on_segment(name, sid):
    return f"vertex-on-edge: point {name!r} lies on segment {sid!r}"


# Three points strictly inside a-b on one lattice line.  In point order m
# comes first; in sorted order k; walking from a, z; walking from b, m.
_LINE = {"m": (6, 0), "k": (4, 0), "z": (2, 0), "a": (0, 0), "b": (8, 0), "q": (3, 5)}
_SIXTEEN = {f"p{i}": (i % 4 * 10, i // 4 * 10) for i in range(16)}

SCENES = {
    "first-in-point-order": (_LINE, [("s0", "a", "b"), ("s1", "b", "a"), ("s2", "z", "b"), ("s3", "k", "a")],
                             [_on_segment("m", "s0"), _on_segment("m", "s1"), _on_segment("m", "s2"),
                              _on_segment("z", "s3")]),
    # the same ends twice, collinear and touching at a shared end, collinear apart
    "collinear-shared-end": ({"a": (0, 0), "b": (2, 1), "c": (4, 2), "d": (0, 5)},
                             [("s0", "a", "b"), ("s1", "b", "a"), ("s2", "b", "c"), ("s3", "c", "b"),
                              ("s4", "a", "c"), ("s5", "d", "b")],
                             [None, "collinear-overlap: 's0' and 's1'", None, "collinear-overlap: 's2' and 's3'",
                              _on_segment("b", "s4"), None]),
    "collinear-apart": ({"a": (0, 0), "b": (1, 1), "c": (3, 3), "d": (5, 5), "e": (0, 4)},
                        [("s0", "a", "b"), ("s1", "c", "d"), ("s2", "b", "c"), ("s3", "a", "d"), ("s4", "e", "c")],
                        [None, None, None, _on_segment("b", "s3"), None]),
    # collinear overlap with no shared end: an end always lies inside the other segment
    "collinear-no-shared-end": ({"a": (0, 0), "b": (4, 0), "c": (2, 0), "d": (6, 0)},
                                [("s0", "a", "c"), ("s1", "c", "d"), ("s2", "a", "b"), ("s3", "b", "d")],
                                [None, _on_segment("b", "s1"), _on_segment("c", "s2"), None]),
    # an end of one segment on the interior of the other, in both orders
    "end-on-interior": ({"a": (0, 0), "b": (4, 2), "c": (2, 1), "d": (2, 7), "e": (7, 0)},
                        [("s0", "c", "d"), ("s1", "a", "b"), ("s2", "e", "c"), ("s3", "b", "a")],
                        [None, _on_segment("c", "s1"), None, _on_segment("c", "s3")]),
    "concurrent": ({"a": (-2, 0), "b": (2, 0), "c": (0, -2), "d": (0, 2), "e": (-2, -2), "f": (2, 2),
                    "g": (-1, 2), "h": (1, -2)},
                   [("s0", "a", "b"), ("s1", "c", "d"), ("s2", "e", "f"), ("s3", "g", "h")],
                   [None, None, "concurrent-crossing: 's0', 's1', 's2' meet at one point",
                    "concurrent-crossing: 's0', 's1', 's3' meet at one point"]),
    # the last vertical would cross h a 4th time; above h, x would cross 4 horizontals
    "fourth-crossing": ({"L": (-9, 0), "R": (9, 0), **{f"t{i}": (2 * i - 3, 1) for i in range(4)},
                         **{f"b{i}": (2 * i - 3, -1) for i in range(4)},
                         **{f"l{i}": (-8, 2 * i + 1) for i in range(1, 5)}, **{f"r{i}": (8, 2 * i + 1) for i in range(1, 5)},
                         "T": (5, 10), "B": (5, 2)},
                        [("h", "L", "R"), *((f"v{i}", f"t{i}", f"b{i}") for i in range(4)),
                         *((f"w{i}", f"l{i}", f"r{i}") for i in range(1, 5)), ("x", "T", "B")],
                        [None, None, None, None, "too-many-crossings: 'h' is crossed 4 times",
                         None, None, None, None, "too-many-crossings: 'x' is crossed 4 times"]),
    # g - 1 exceeds the 16 points: the points are scanned, and the refusal names the first
    "scan": (_SIXTEEN, [("s0", "p0", "p15"), ("s1", "p3", "p0"), ("s2", "p12", "p3"), ("s3", "p1", "p13"),
                        ("s4", "p0", "p4")],
             [_on_segment("p5", "s0"), _on_segment("p1", "s1"), _on_segment("p6", "s2"), _on_segment("p5", "s3"),
              None]),
}


@pytest.mark.parametrize("name", SCENES)
def test_add_decides_as_the_oracle_on_branch_scenes(name):
    points, candidates, expected = SCENES[name]
    assert decide_both(points, candidates) == expected


def _grid_scene(rng, span, count):
    cells = rng.sample([(x, y) for x in span for y in span], count)
    return {f"p{i}": xy for i, xy in enumerate(cells)}


def _line_scene(rng):
    """Several points on one lattice line, given in shuffled order, and a few others."""
    dx, dy = rng.choice([(1, 0), (0, 1), (1, 1), (2, -1), (1, 3)])
    ks = rng.sample(range(-6, 7), rng.randint(4, 7))
    cells = {(k * dx, k * dy) for k in ks}
    while len(cells) < len(ks) + 4:
        cells.add((rng.randint(-8, 8), rng.randint(-8, 8)))
    cells = sorted(cells)
    rng.shuffle(cells)
    return {f"p{i}": xy for i, xy in enumerate(cells)}


def _candidates(rng, points, count):
    names = list(points)
    return [(f"s{k}", *rng.sample(names, 2)) for k in range(count)]


def _seeded_scenes():
    for seed in range(24):
        rng = random.Random(seed)
        yield f"grid-{seed}", _grid_scene(rng, range(-3, 4) if seed % 2 else range(-12, 13), rng.randint(6, 16))
        yield f"line-{seed}", _line_scene(rng)
        # the line scene scaled by 97 (g - 1 > n: scanned), given as ints and as Fractions over 7
        scaled = _line_scene(rng)
        yield f"scaled-{seed}", {k: (97 * x, 97 * y) for k, (x, y) in scaled.items()}
        yield f"rational-{seed}", {k: (Fraction(97 * x, 7), Fraction(97 * y, 7)) for k, (x, y) in scaled.items()}


SEEDED = dict(_seeded_scenes())


@pytest.mark.parametrize("name", SEEDED)
def test_add_decides_as_the_oracle_on_seeded_scenes(name):
    rng = random.Random(name)
    points = SEEDED[name]
    decide_both(points, _candidates(rng, points, 60))


# The chord models of m >= 9 put the corners at x = 2^(m-1-i): a chord
# between x = 2^a and 2^b has g = |2^a - 2^b|, so most chords scan the
# points, and the shortest ones walk.
@pytest.mark.parametrize("m", [9, 10, 11])
def test_add_decides_as_the_oracle_on_chord_models(m):
    xs = [2 ** (m - 1 - i) for i in range(m)]
    chords = [(i, j) for i in range(m) for j in range(i + 2, m) if (i, j) != (0, m - 1)]
    random.Random(m).shuffle(chords)
    outcomes = decide_both({i: (x, x * x) for i, x in enumerate(xs)}, [(f"c{k}", i, j) for k, (i, j) in enumerate(chords)])
    assert None in outcomes and any(outcomes)


def test_the_scenes_reach_every_branch():
    branches, texts = set(), set()
    for points, candidates, expected in SCENES.values():
        decide_both(points, candidates, branches)
        texts.update(t.split(":")[0] for t in expected if t)
    for name, points in SEEDED.items():
        for outcome in decide_both(points, _candidates(random.Random(name), points, 60), branches):
            texts.add(outcome.split(":")[0] if outcome else None)
    assert texts == {None, "vertex-on-edge", "collinear-overlap", "concurrent-crossing", "too-many-crossings"}
    assert branches == {(kind, inside) for kind in ("walk", "scan") for inside in (0, 1, 2)} | {("primitive", 0)}


def _fraction_order(owner):
    """The crossings in the order ``darts`` gave them by ``Fraction`` keys."""
    return sorted(owner, key=lambda t: (Fraction(t[0], t[2]), Fraction(t[1], t[2])))


def check_order(arr):
    """``arr.darts()``'s crossing order against the oracle's; the crossings and the items at each node."""
    index, _, items = arr.darts()
    assert sorted(index, key=index.__getitem__) == _fraction_order(arr.owner)
    return index, items


def check_darts(arr):
    """``check_order``, and every node's rotation against the oracle; the crossing count."""
    _, items = check_order(arr)
    for p in arr.owner:
        assert _crossing_rotation(items[p]) == ccw_sorted_oracle(items[p]), p
    for p in arr.points:
        assert ccw_sorted(items[p]) == ccw_sorted_oracle(items[p]), p
    return len(arr.owner)


def _recorded_arrangement(monkeypatch, n, budget, seed):
    """The arrangement ``_random_arrangement`` builds, kept when the scene cannot connect."""
    made = []

    class Recorded(_Arrangement):
        def __init__(self, points):
            super().__init__(points)
            made.append(self)

    monkeypatch.setattr(generators, "_Arrangement", Recorded)
    try:
        _random_arrangement(n, budget, seed)
    except GenerationError:
        assert (n, budget, seed) == (24, 72, 15)  # the one unconnectable input here
    return made[-1]


@pytest.mark.parametrize("n,budget,seed", [(24, 72, s) for s in range(20)] + [(40, 120, 0), (40, 120, 1)])
def test_darts_decide_as_the_oracles_on_random_scenes(monkeypatch, n, budget, seed):
    assert check_darts(_recorded_arrangement(monkeypatch, n, budget, seed)) > 20


# The chords of each m-cycle in five seeded orders, each accepted as far as the model allows.
@pytest.mark.parametrize("m", [9, 10, 11])
def test_darts_decide_as_the_oracles_on_chord_models(m):
    xs = [2 ** (m - 1 - i) for i in range(m)]
    crossings = 0
    for seed in range(5):
        arr = _Arrangement({i: (x, x * x) for i, x in enumerate(xs)})
        chords = [(i, j) for i in range(m) for j in range(i + 2, m) if (i, j) != (0, m - 1)]
        random.Random(m + 100 * seed).shuffle(chords)
        for k, (i, j) in enumerate(chords):
            arr.add(f"c{k}", i, j)
        crossings += check_darts(arr)
        _, _, items = arr.darts()
        for i in range(m):  # the chord fill's splices start from the face's boundary
            base = sub(arr.points[(i - 1) % m], arr.points[i])
            assert ccw_from(base, items[i]) == ccw_from_oracle(base, items[i])
    assert crossings > 30


def _key_triples(seed):
    """Reduced triples (x, y, w) with w from 1 to 1e40, negative coordinates and equal x/w."""
    rng = random.Random(seed)
    triples = set()
    for _ in range(80):
        w = rng.choice((1, 2, 3, rng.randint(1, 10 ** 6), 10 ** 40 + rng.randint(0, 9)))
        triples.add((rng.randint(-3 * w, 3 * w), rng.randint(-3 * w, 3 * w), w))
    for x, _, w in list(triples)[:20]:  # the same x/w, another y
        triples.add((2 * x, rng.randint(-6 * w, 6 * w), 2 * w))
    return {(x // g, y // g, w // g) for x, y, w in triples for g in [math.gcd(x, y, w)]}


@pytest.mark.parametrize("seed", range(6))
def test_darts_integer_key_orders_as_fractions(seed):
    arr = _Arrangement({})
    arr.owner = dict.fromkeys(_key_triples(seed), ("s", "t"))
    assert len(check_order(arr)[0]) > 80


def _neighbour_pairs():
    """Pairs whose x/w differ by 1/(w1*w2), the least two denominators allow: consecutive Fibonacci
    ratios.  The one with the larger x/w has the smaller y, so only the x key orders them."""
    fib = [1, 2]
    while len(fib) < 60:
        fib.append(fib[-2] + fib[-1])
    for k in range(len(fib) - 2):
        for sign in (1, -1):
            pair = (sign * fib[k], fib[k + 1]), (sign * fib[k + 1], fib[k + 2])
            lo, hi = sorted(pair, key=lambda t: Fraction(*t))
            yield {(lo[0], 1, lo[1]), (hi[0], 0, hi[1])}


def test_darts_integer_key_orders_the_closest_neighbours():
    for owner in _neighbour_pairs():
        arr = _Arrangement({})
        arr.owner = dict.fromkeys(owner, ("s", "t"))
        check_order(arr)
