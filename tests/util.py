"""Hand-built fixture drawings used across the test modules.

Each builder returns a fresh Drawing; rotations were derived by hand from
straight-line layouts (counterclockwise order around every node).  The
small valid instances ``k2``, ``k3``, ``path3`` and the invalid lens are
``gen_basic("k2" | "k3" | "path3" | "lens-bad")``.
"""

import itertools
from fractions import Fraction

from triplane.drawing import Drawing, EdgeRecord


def twin(dart):
    """The same segment traversed in the other direction, for tests that read dart tuples."""
    edge, seg, direction = dart
    return (edge, seg, "bwd" if direction == "fwd" else "fwd")


def x1():
    """Two edges crossing once: the diagonals of a square."""
    return Drawing(
        ["v0", "v1", "v2", "v3"],
        [
            EdgeRecord("e0", ("v0", "v2"), ("x0",)),
            EdgeRecord("e1", ("v1", "v3"), ("x0",)),
        ],
        {
            "v0": [("e0", 0, "fwd")],
            "v1": [("e1", 0, "fwd")],
            "v2": [("e0", 1, "bwd")],
            "v3": [("e1", 1, "bwd")],
            "x0": [("e0", 0, "bwd"), ("e1", 0, "bwd"), ("e0", 1, "fwd"), ("e1", 1, "fwd")],
        },
    )


def lasso():
    """One edge crossing itself once (invalid: self-crossing)."""
    return Drawing(
        ["a", "b"],
        [EdgeRecord("e", ("a", "b"), ("x", "x"))],
        {
            "a": [("e", 0, "fwd")],
            "b": [("e", 2, "bwd")],
            "x": [("e", 0, "bwd"), ("e", 1, "fwd"), ("e", 1, "bwd"), ("e", 2, "fwd")],
        },
    )


def adjacent_cross():
    """Two edges sharing vertex a and also crossing (invalid)."""
    return Drawing(
        ["a", "b", "c"],
        [
            EdgeRecord("e0", ("a", "b"), ("x",)),
            EdgeRecord("e1", ("a", "c"), ("x",)),
        ],
        {
            "a": [("e0", 0, "fwd"), ("e1", 0, "fwd")],
            "b": [("e0", 1, "bwd")],
            "c": [("e1", 1, "bwd")],
            "x": [("e0", 0, "bwd"), ("e1", 0, "bwd"), ("e0", 1, "fwd"), ("e1", 1, "fwd")],
        },
    )


def overloaded_line():
    """A horizontal edge crossed by four vertical edges (not 3-plane)."""
    edges = [EdgeRecord("e", ("a", "b"), ("x1", "x2", "x3", "x4"))]
    rotations = {
        "a": [("e", 0, "fwd")],
        "b": [("e", 4, "bwd")],
    }
    for i in range(1, 5):
        f = f"f{i}"
        edges.append(EdgeRecord(f, (f"c{i}", f"d{i}"), (f"x{i}",)))
        rotations[f"c{i}"] = [(f, 0, "fwd")]
        rotations[f"d{i}"] = [(f, 1, "bwd")]
        rotations[f"x{i}"] = [
            ("e", i - 1, "bwd"), (f, 0, "bwd"), ("e", i, "fwd"), (f, 1, "fwd"),
        ]
    return Drawing(["a", "b"] + [f"c{i}" for i in range(1, 5)] + [f"d{i}" for i in range(1, 5)],
                   edges, rotations)


def two_components():
    return Drawing(
        ["a", "b", "c", "d"],
        [EdgeRecord("e0", ("a", "b"), ()), EdgeRecord("e1", ("c", "d"), ())],
        {
            "a": [("e0", 0, "fwd")],
            "b": [("e0", 0, "bwd")],
            "c": [("e1", 0, "fwd")],
            "d": [("e1", 0, "bwd")],
        },
    )


def ngon(n):
    """A convex n-gon with no chords: vertex v<i> joins v<i+1> by edge e<i>."""
    return Drawing(
        [f"v{i}" for i in range(n)],
        [EdgeRecord(f"e{i}", (f"v{i}", f"v{(i + 1) % n}"), ()) for i in range(n)],
        {f"v{i}": [(f"e{i}", 0, "fwd"), (f"e{(i - 1) % n}", 0, "bwd")] for i in range(n)},
    )


# -- a crossing oracle independent of the geometry kernel ------------------


def intersection_params(a, b, c, d):
    """Solve a + t(b-a) = c + u(d-c) exactly; None if parallel."""
    rx, ry = b[0] - a[0], b[1] - a[1]
    sx, sy = d[0] - c[0], d[1] - c[1]
    denom = rx * sy - ry * sx
    if denom == 0:
        return None
    qx, qy = c[0] - a[0], c[1] - a[1]
    t = Fraction(qx * sy - qy * sx, denom)
    u = Fraction(qx * ry - qy * rx, denom)
    return t, u


def brute_force_crossings(scene):
    """Proper crossings among the scene's segments, each pair solved on its own.

    Solves for the parameters with ``Fraction`` instead of asking
    ``segment_relation``, so it checks the kernel rather than repeating it.
    """
    count = 0
    for (_, (a, b)), (_, (c, d)) in itertools.combinations(scene.segments, 2):
        params = intersection_params(scene.points[a], scene.points[b],
                                     scene.points[c], scene.points[d])
        if params is None:
            continue
        t, u = params
        if 0 < t < 1 and 0 < u < 1:
            count += 1
    return count
