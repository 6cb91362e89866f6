"""Counts, row slacks and verdicts do not depend on orientation or labels.

Each drawing is put through three transforms that describe the same
drawing up to isomorphism:

- mirror: every rotation reversed, which reverses every face walk;
- a seeded reversal of edges: ends swapped, crossings reversed, and dart
  ``(e, i, d)`` renamed ``(e, k - i, twin d)`` for an edge with k crossings;
- a seeded relabelling of vertices, crossings and edges.

The face walks of the result are those of the input, renamed dart by dart
(and reversed, for the mirror), and ``census(...).counts`` (strict on the
3-saturated drawings among these), every row slack of ``check`` and the exit
codes of ``check`` and both ``certify`` targets are unchanged.
"""

import json
import random

import pytest

from triplane.census import census
from triplane.cli import main
from triplane.combmap import smallest_first
from triplane.drawing import Drawing, EdgeRecord, serialize_tdr
from triplane.generators import gen_fig2, gen_fig3, random_drawing
from triplane.saturate import saturate

from util import twin

DRAWINGS = (
    [(f"fig3-L{k}", lambda k=k: gen_fig3(k)) for k in range(1, 4)]
    + [(f"fig2-R{k}", lambda k=k: gen_fig2(k)) for k in range(1, 4)]
    + [(f"rand-{seed}", lambda seed=seed: saturate(random_drawing(10, 30, seed)))
       for seed in range(10)]
)


def mirror(d, rng):
    rotations = {node: darts[::-1] for node, darts in d.rotations.items()}
    return Drawing(d.vertices, list(d.edges.values()), rotations), twin, True


def reverse_edges(d, rng):
    flipped = {e for e in sorted(d.edges) if rng.random() < 0.5}

    def rename(dart):
        e, i, direction = dart
        if e not in flipped:
            return dart
        return twin((e, len(d.edges[e].crossings) - i, direction))

    edges = [EdgeRecord(e.id, e.ends[::-1], e.crossings[::-1]) if e.id in flipped else e
             for e in d.edges.values()]
    rotations = {node: [rename(x) for x in darts] for node, darts in d.rotations.items()}
    return Drawing(d.vertices, edges, rotations), rename, False


def relabel(d, rng):
    def shuffled(names, prefix):
        names = sorted(names)
        fresh = [f"{prefix}{k}" for k in range(len(names))]
        rng.shuffle(fresh)
        return dict(zip(names, fresh))

    node = {**shuffled(d.vertices, "u"), **shuffled(d.crossings, "y")}
    edge = shuffled(d.edges, "f")

    def rename(dart):
        return (edge[dart[0]],) + dart[1:]

    edges = [EdgeRecord(edge[e.id], (node[e.ends[0]], node[e.ends[1]]),
                        tuple(node[x] for x in e.crossings)) for e in d.edges.values()]
    rotations = {node[n]: [rename(x) for x in darts] for n, darts in d.rotations.items()}
    return Drawing([node[v] for v in d.vertices], edges, rotations), rename, False


def verdicts(d, path, capsys):
    """Census counts, the row slacks of ``check``, and the three exit codes."""
    path.write_text(serialize_tdr(d))
    codes, outs = [], []
    for argv in (["check"], ["certify", "--target", "edges"], ["certify", "--target", "crossings"]):
        codes.append(main([argv[0], str(path), *argv[1:]]))
        outs.append(capsys.readouterr().out)
    slacks = [(row["id"], row["slack"]) for row in json.loads(outs[0])["rows"]]
    return census(d).counts, slacks, codes


@pytest.mark.parametrize("build", [b for _, b in DRAWINGS], ids=[i for i, _ in DRAWINGS])
def test_verdicts_are_invariant_under_mirror_reversal_and_relabelling(build, tmp_path, capsys):
    d = build()
    path = tmp_path / "drawing.json"
    expected = verdicts(d, path, capsys)
    for seed, transform in enumerate((mirror, reverse_edges, relabel)):
        image, rename, reverses = transform(d, random.Random(seed))
        walks = {smallest_first(tuple(map(rename, w[::-1] if reverses else w)))
                 for w in d.planarize().faces()}
        assert set(image.planarize().faces()) == walks, transform.__name__
        assert verdicts(image, path, capsys) == expected, transform.__name__
