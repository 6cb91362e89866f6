"""The canonical writer against the ``json.dumps`` construction it replaced,
and the id rule that keeps the canonical bytes injective."""

import importlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplane.cli import main
from triplane.combmap import smallest_first
from triplane.drawing import Drawing, EdgeRecord, TDRError, parse_tdr, serialize_tdr
from triplane.generators import (BASIC_NAMES, build_random_scene, gen_basic, gen_fig2,
                                 gen_fig3, ingest_geometry)
from triplane.geometry import SceneError, parse_scene
from triplane.saturate import saturate

from test_acceptance import CORPUS_NAMES, corpus_drawing


def reference_tdr(drawing):
    """The canonical bytes built as a dict tree and written by ``json.dumps``."""
    obj = {
        "vertices": sorted(drawing.vertices),
        "edges": [
            {"id": e.id, "ends": list(e.ends), "crossings": list(e.crossings)}
            for e in sorted(drawing.edges.values(), key=lambda e: e.id)
        ],
        "rotations": {
            node: [{"edge": d[0], "seg": d[1], "dir": d[2]}
                   for d in smallest_first(drawing.rotations[node])]
            for node in sorted(drawing.rotations)
        },
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def crossed_pair(a, b, c, d, e0, e1, x):
    """Two edges a-c and b-d crossing once at x (the diagonals of the square a, b, c, d)."""
    return Drawing(
        [a, b, c, d],
        [EdgeRecord(e0, (a, c), (x,)), EdgeRecord(e1, (b, d), (x,))],
        {a: [(e0, 0, "fwd")], b: [(e1, 0, "fwd")], c: [(e0, 1, "bwd")], d: [(e1, 1, "bwd")],
         x: [(e0, 0, "bwd"), (e1, 0, "bwd"), (e0, 1, "fwd"), (e1, 1, "fwd")]},
    )


def assert_writer_matches(drawing):
    text = serialize_tdr(drawing)
    assert text == reference_tdr(drawing)
    assert text.isascii()
    assert serialize_tdr(parse_tdr(text)) == text


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_writer_matches_reference_on_the_acceptance_corpus(name):
    assert_writer_matches(corpus_drawing(name))


@pytest.mark.parametrize("build", (
    [lambda layers=layers: gen_fig3(layers) for layers in (*range(1, 9), 16, 32)]
    + [lambda rings=rings: gen_fig2(rings) for rings in range(1, 10)]
    + [lambda name=name: gen_basic(name) for name in BASIC_NAMES]),
    ids=([f"fig3-L{layers}" for layers in (*range(1, 9), 16, 32)]
         + [f"fig2-R{rings}" for rings in range(1, 10)] + list(BASIC_NAMES)))
def test_writer_matches_reference_on_the_families(build):
    assert_writer_matches(build())


@pytest.mark.parametrize("seed", range(12))
def test_writer_matches_reference_on_random_scenes_and_saturations(seed):
    drawing = ingest_geometry(build_random_scene(24, 72, seed))
    assert_writer_matches(drawing)
    assert_writer_matches(saturate(drawing))


@pytest.mark.parametrize("ids", [
    ('a"', 'b\\', "c\x00", "d\x7f", "\u2028", "e\xe9", "x\U0001f600"),
    ("\x01", "\t", "\n", "/", "\xff", "\u0100", "\U0010ffff"),
    ("v", "v\u2029", '"\\"', "\ufeff", "\uffff", "e", "\U000103ff"),
], ids=["quote-backslash-nul-del-ls-latin-astral", "controls-and-limits", "bom-and-nonchars"])
def test_writer_escapes_like_json_dumps(ids):
    assert_writer_matches(crossed_pair(*ids))


def test_writer_on_an_isolated_vertex():
    drawing = Drawing(["v"], [], {"v": []})
    assert serialize_tdr(drawing) == reference_tdr(drawing) == '{"edges":[],"rotations":{"v":[]},"vertices":["v"]}\n'
    assert_writer_matches(drawing)


_id_char = st.one_of(st.sampled_from('"\\\x00\x1f\x7f\u2028\xe9\U0001f600'), st.characters())


@settings(derandomize=True, max_examples=300)
@given(st.lists(st.text(_id_char, min_size=1, max_size=5), min_size=7, max_size=7, unique=True))
def test_writer_matches_reference_on_any_ids(ids):
    drawing = crossed_pair(*ids)
    assert_writer_matches(drawing)
    assert parse_tdr(serialize_tdr(drawing)) == drawing


# -- ids with surrogate code points ---------------------------------------------

_LONE_PAIR = chr(0xD800) + chr(0xDFFF)  # escapes to the same text as chr(0x103FF)
_NAMES = ("a", "b", "c", "d", "e0", "e1", "x")


@pytest.mark.parametrize("slot", range(len(_NAMES)), ids=_NAMES)
def test_drawing_refuses_surrogate_ids(slot):
    ids = list(_NAMES)
    ids[slot] = "p" + _LONE_PAIR
    with pytest.raises(TDRError, match="surrogate"):
        crossed_pair(*ids)


def test_the_lone_pair_and_its_astral_character_stay_apart():
    astral = crossed_pair(chr(0x103FF), *_NAMES[1:])
    text = serialize_tdr(astral)
    assert "\\ud800\\udfff" in text
    assert parse_tdr(text) == astral and chr(0x103FF) in parse_tdr(text).vertices
    with pytest.raises(TDRError, match="surrogate"):
        crossed_pair(_LONE_PAIR, *_NAMES[1:])


def test_an_escaped_pair_parses_to_its_astral_character_and_round_trips():
    # "x" and U+103FF both sort last, so the text stays canonical
    text = serialize_tdr(crossed_pair(*_NAMES)).replace('"x"', '"\\ud800\\udfff"')
    drawing = parse_tdr(text)
    assert chr(0x103FF) in drawing.crossings
    assert serialize_tdr(drawing) == text


def test_parse_scene_refuses_surrogate_names():
    scene = {"points": {"a": ["0", "0"], "b": ["1", "0"]}, "segments": [{"id": "s", "ends": ["a", "b"]}]}
    parse_scene(json.dumps(scene))
    for text in (json.dumps(scene).replace('"a"', '"\\ud800"'), json.dumps(scene).replace('"s"', '"\\udfff"')):
        with pytest.raises(SceneError, match="surrogate"):
            parse_scene(text)


@pytest.mark.parametrize("command,text", [
    ("validate", serialize_tdr(crossed_pair(*_NAMES)).replace('"a"', '"\\ud800"')),
    ("ingest", '{"points": {"\\ud800": ["0", "0"], "b": ["1", "0"]}, '
               '"segments": [{"id": "s", "ends": ["\\ud800", "b"]}]}'),
], ids=["validate", "ingest"])
def test_a_lone_surrogate_escape_is_a_usage_error(capsys, tmp_path, command, text):
    p = tmp_path / "lone.json"
    p.write_text(text)
    assert main([command, str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "surrogate" in err and "Traceback" not in err


def test_equality_and_hash_serialize_each_drawing_once(monkeypatch):
    drawing_mod = importlib.import_module("triplane.drawing")
    written = []

    def counted(drawing):
        written.append(id(drawing))
        return serialize_tdr(drawing)

    monkeypatch.setattr(drawing_mod, "serialize_tdr", counted)
    a, b, c = gen_fig3(2), gen_fig3(2), gen_fig2(2)
    for _ in range(3):
        assert a == b and b == a and a != c
        assert hash(a) == hash(b) != hash(c)
        assert a.canonical() == b.canonical()
    assert sorted(written) == sorted([id(a), id(b), id(c)])


def test_equality_and_hash_follow_the_canonical_bytes():
    # Every pair of acceptance-corpus drawings is equal exactly when their
    # bytes are, and each equals a fresh parse of its own bytes.
    drawings = [corpus_drawing(name) for name in CORPUS_NAMES]
    texts = [serialize_tdr(d) for d in drawings]
    parsed = [parse_tdr(text) for text in texts]
    for drawing, text, again in zip(drawings, texts, parsed):
        assert again == drawing and hash(again) == hash(drawing) == hash(text)
    for drawing, text in zip(drawings, texts):
        for other, other_text in zip(parsed, texts):
            assert (drawing == other) == (text == other_text)
