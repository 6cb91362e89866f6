"""Parse and validation failure text, pinned on mutations of one drawing file.

Each seeded case takes fig3 L=1's canonical TDR and makes one edit: it
replaces a value, deletes a list item or a key, adds a key to an object, or
replaces a rotation by the same darts with two of them swapped, which
mostly leaves a drawing that parses but fails validation.  The exit
code, stdout and stderr of ``validate`` and ``check`` on every case go into
one sha256, so any change to an error text, a witness or the order in which
defects are found shows.  The malformed-dart cases name today's message.
"""

import copy
import hashlib
import json
import random

import pytest

from triplane.cli import main
from triplane.drawing import TDRError, parse_tdr, serialize_tdr
from triplane.generators import gen_fig3

SEED = 20
CASES = 300

VALUES = [None, True, False, 0, 1, -1, 3, 2.5, "", "fwd", "bwd", "x", "u0p0", "g1p0n0",
          "xg1p0n0", [], {}, ["u0p0", "u0p1"], {"edge": "g1p0n0", "seg": 0, "dir": "fwd"}]
KEYS = ["extra", "edge", "seg", "dir", "id", "ends", "crossings", "u0p0"]


def _containers(obj, out):
    """Every list and dict in ``obj``, depth first."""
    if isinstance(obj, (list, dict)):
        out.append(obj)
        for child in (obj if isinstance(obj, list) else obj.values()):
            _containers(child, out)
    return out


def mutations():
    """``CASES`` one-edit variants of fig3 L=1's TDR object, from a fixed seed."""
    base = json.loads(serialize_tdr(gen_fig3(1)))
    rng = random.Random(SEED)
    for _ in range(CASES):
        obj = copy.deepcopy(base)
        found = _containers(obj, [])
        op = rng.randrange(4)
        if op == 3:
            rotation = rng.choice([r for r in obj["rotations"].values() if len(r) > 1])
            i, j = rng.sample(range(len(rotation)), 2)
            rotation[i], rotation[j] = rotation[j], rotation[i]
            yield obj
            continue
        if op == 2:
            target = rng.choice([c for c in found if isinstance(c, dict)])
            target[rng.choice(KEYS)] = copy.deepcopy(rng.choice(VALUES))
            yield obj
            continue
        target = rng.choice([c for c in found if c])
        key = rng.randrange(len(target)) if isinstance(target, list) else rng.choice(sorted(target))
        if op == 0:
            target[key] = copy.deepcopy(rng.choice(VALUES))
        else:
            del target[key]
        yield obj


def test_mutated_files_give_pinned_output(capsys, tmp_path):
    p = tmp_path / "drawing.json"
    digest = hashlib.sha256()
    for obj in mutations():
        p.write_text(json.dumps(obj))
        for command in ("validate", "check"):
            code = main([command, str(p)])
            out = capsys.readouterr()
            digest.update(f"{code}\n{out.out}\n{out.err.replace(str(p), 'FILE')}\n".encode())
    assert digest.hexdigest() == (
        "4c583de726080a95e866ff1a079cc670a11a4b80cca27600396f3caa65f5712d")


# Malformed dart objects and where they sit in the rotations: in the first
# rotation first, in the middle and last, and in a later rotation after
# valid ones.
MALFORMED = [
    ("string", "g1p0n0"),
    ("number", 5),
    ("list", ["g1p0n0", 0, "fwd"]),
    ("null", None),
    ("missing-key", {"edge": "g1p0n0", "seg": 0}),
    ("extra-key", {"edge": "g1p0n0", "seg": 0, "dir": "fwd", "x": 1}),
]


def _rotations():
    obj = json.loads(serialize_tdr(gen_fig3(1)))
    return obj, list(obj["rotations"])


def _place(rotation, where, bad):
    k = {"first": 0, "middle": len(rotation) // 2, "last": len(rotation)}[where]
    rotation.insert(k, bad)


@pytest.mark.parametrize("where", ["first", "middle", "last", "later-rotation"])
@pytest.mark.parametrize("bad", [b for _, b in MALFORMED], ids=[name for name, _ in MALFORMED])
def test_malformed_dart_text(where, bad):
    obj, nodes = _rotations()
    if where == "later-rotation":
        _place(obj["rotations"][nodes[len(nodes) // 2]], "middle", bad)
    else:
        _place(obj["rotations"][nodes[0]], where, bad)
    with pytest.raises(TDRError) as exc:
        parse_tdr(json.dumps(obj))
    assert str(exc.value) == f"malformed dart object {bad!r}"


def test_first_malformed_dart_is_named():
    # An extra key before a missing one in the same rotation, then another
    # malformed dart and a rotation that is not a list in later rotations.
    obj, nodes = _rotations()
    first = obj["rotations"][nodes[1]]
    first.insert(1, {"edge": "g1p0n0", "seg": 0, "dir": "fwd", "x": 1})
    first.insert(3, {"edge": "g1p0n0"})
    obj["rotations"][nodes[2]].append(None)
    obj["rotations"][nodes[3]] = "not a list"
    with pytest.raises(TDRError) as exc:
        parse_tdr(json.dumps(obj))
    assert str(exc.value) == "malformed dart object {'edge': 'g1p0n0', 'seg': 0, 'dir': 'fwd', 'x': 1}"
    # Without the first two, the null in the next rotation is named.
    del first[3], first[1]
    with pytest.raises(TDRError) as exc:
        parse_tdr(json.dumps(obj))
    assert str(exc.value) == "malformed dart object None"
    # A rotation that is not a list, before any malformed dart, is named first.
    obj["rotations"][nodes[2]].pop()
    obj["rotations"][nodes[0]] = 7
    with pytest.raises(TDRError) as exc:
        parse_tdr(json.dumps(obj))
    assert str(exc.value) == f"rotation at {nodes[0]!r} must be a list"
