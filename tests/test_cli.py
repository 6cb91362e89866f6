import gc
import hashlib
import importlib
import json
import time
from collections import Counter

import pytest

from triplane import cli
from triplane.certificate import verify_numeric
from triplane.cli import main
from triplane.combmap import CombMap
from triplane.constraints import evaluate_constraints
from triplane.drawing import Drawing, serialize_tdr, stats
from triplane.generators import gen_basic, gen_fig2, gen_fig3, random_drawing
from triplane.saturate import saturate

import util


@pytest.fixture()
def k3_file(tmp_path):
    p = tmp_path / "k3.json"
    p.write_text(serialize_tdr(gen_basic("k3")))
    return str(p)


@pytest.fixture()
def fig3_file(tmp_path):
    p = tmp_path / "fig3.json"
    p.write_text(serialize_tdr(gen_fig3(1)))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(capsys, k3_file):
    code, out, _ = run(capsys, "validate", k3_file)
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True
    assert {c["name"] for c in report["checks"]} >= {"connected", "non-homotopic"}


def test_validate_rejects_lens(capsys, tmp_path):
    p = tmp_path / "lens.json"
    p.write_text(serialize_tdr(gen_basic("lens-bad")))
    code, out, _ = run(capsys, "validate", str(p))
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False


def test_census_emits_counts(capsys, k3_file):
    code, out, _ = run(capsys, "census", k3_file)
    assert code == 0
    counts = json.loads(out)
    assert counts["n"] == 3 and counts["E"] == 3 and counts["X"] == 0
    assert counts["LARGE"] == 2


# Every verdict refuses an invalid drawing alike, with or without --saturate:
# nothing on stdout, exit 1, and the failing checks named on stderr before
# any saturation is tried.
@pytest.mark.parametrize("build", [
    lambda: gen_basic("lens-bad"),
    util.two_components,
    lambda: Drawing(["a"], [], {"a": []}),
], ids=["lens-bad", "two-components", "lone-vertex"])
def test_census_rejects_invalid_drawing(capsys, tmp_path, build):
    p = tmp_path / "bad.json"
    p.write_text(serialize_tdr(build()))
    for cmd in (["census"], ["check"], ["certify", "--target", "edges"]):
        for extra in ([], ["--saturate"]):
            code, out, err = run(capsys, cmd[0], str(p), *cmd[1:], *extra)
            assert (code, out) == (1, ""), (cmd, extra)
            assert err.startswith("drawing is not valid: "), (cmd, extra, err)


# A valid drawing on two vertices is already filled: --saturate leaves it as it is.
def test_saturate_flag_keeps_k2(capsys, tmp_path):
    p = tmp_path / "k2.json"
    p.write_text(serialize_tdr(gen_basic("k2")))
    for cmd in (["census"], ["check"], ["certify", "--target", "edges"]):
        plain = run(capsys, cmd[0], str(p), *cmd[1:])
        assert run(capsys, cmd[0], str(p), *cmd[1:], "--saturate")[:2] == plain[:2], cmd


def test_check_passes_on_k3(capsys, k3_file):
    code, out, _ = run(capsys, "check", k3_file)
    assert code == 0
    report = json.loads(out)
    assert report["all_pass"] is True
    assert report["density_residuals"] == {"1": "0/1", "2": "0/1", "5": "0/1"}


def test_check_reports_known_failing_row_on_fig3(capsys, fig3_file):
    code, out, _ = run(capsys, "check", fig3_file)
    assert code == 1
    report = json.loads(out)
    failing = [r["id"] for r in report["rows"] if r["applicable"] and not r["pass"]]
    assert failing == ["3.E"]
    assert report["density_residuals"] == {"1": "0/1", "2": "0/1", "5": "0/1"}


# sha256 of each verdict's stdout on gen_fig3(2): sharing one validation
# report and one cell table per drawing must not change a byte.  A verdict
# counts on numbers: it builds the cell table once and never the named cells.
@pytest.mark.parametrize("argv,code,digest", [
    (["check"], 1, "63db8bd510f9b0d3f33e570357964faa777fa3c2465161d93945c37e0ed7f123"),
    (["certify", "--target", "edges"], 0,
     "137bef95e2f44647118a206f41850ac6887d6684836899ebafa2e673cca343b2"),
    (["certify", "--target", "crossings"], 0,
     "0d4701132a180e2f9a5ba75233af6ceef1caf6cc035dd36143a56360a3413909"),
], ids=["check", "certify-edges", "certify-crossings"])
def test_verdict_validates_and_builds_cells_once(capsys, monkeypatch, tmp_path, argv, code, digest):
    p = tmp_path / "fig3.json"
    p.write_text(serialize_tdr(gen_fig3(2)))
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # ``triplane.census`` is the census function; the module is looked up by name.
    census_mod = importlib.import_module("triplane.census")
    drawing_mod = importlib.import_module("triplane.drawing")
    monkeypatch.setattr(census_mod, "cells", counted("cells", census_mod.cells))
    monkeypatch.setattr(census_mod, "_Cells", counted("table", census_mod._Cells))
    monkeypatch.setattr(drawing_mod, "validate", counted("validate", drawing_mod.validate))
    # One check and numbering of the rotations: the one ``CombMap`` the ``Drawing`` builds.
    monkeypatch.setattr(CombMap, "__init__", counted("CombMap", CombMap.__init__))
    got, out, _ = run(capsys, argv[0], str(p), *argv[1:])
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
    assert (calls["cells"], calls["table"], calls["validate"], calls["CombMap"]) == (0, 1, 1, 1)


_VERDICTS = {"census": ["census"], "check": ["check"], "certify-edges": ["certify", "--target", "edges"],
             "certify-crossings": ["certify", "--target", "crossings"]}
_BUILDS = {"saturated": lambda: gen_fig3(2), "unsaturated": lambda: random_drawing(10, 30, 3)}


# A verdict scans the cells for filledness once: the census reads
# 3-saturation off the drawing, which keeps the answer, so the census,
# the row scopes and the certificate's saturation gate share one scan.
# ``saturate`` keeps its result's answer too, so a ``--saturate`` verdict
# scans the saturated drawing once as well.
@pytest.mark.parametrize("argv,build", [
    *(pytest.param(argv, build, id=f"{b}-{a}") for b, build in _BUILDS.items() for a, argv in _VERDICTS.items()),
    *(pytest.param(_VERDICTS[a] + ["--saturate"], _BUILDS["unsaturated"], id=f"unsaturated-{a}-saturate")
      for a in ("census", "check", "certify-edges")),
])
def test_verdict_scans_for_filledness_once(capsys, monkeypatch, tmp_path, argv, build):
    p = tmp_path / "drawing.json"
    p.write_text(serialize_tdr(build()))
    census_mod = importlib.import_module("triplane.census")
    witnesses = census_mod._witnesses
    scans = []

    def counted(drawing):
        scans.append(drawing)
        return witnesses(drawing)

    monkeypatch.setattr(census_mod, "_witnesses", counted)
    code, _, _ = run(capsys, argv[0], str(p), *argv[1:])
    assert code in (0, 1) and len(scans) == 1


# One verdict classifies each cell once, by the one rule set (``_kind``):
# the filledness check, the trails and the configurations all read the
# drawing's one cell table, and ``classify_cell`` (the named API) is not called.
@pytest.mark.parametrize("argv", [["check"], ["certify", "--target", "edges"],
                                  ["certify", "--target", "crossings"]],
                         ids=["check", "certify-edges", "certify-crossings"])
def test_verdict_classifies_each_cell_once(capsys, monkeypatch, tmp_path, argv):
    drawing = gen_fig3(2)
    p = tmp_path / "fig3.json"
    p.write_text(serialize_tdr(drawing))
    census_mod = importlib.import_module("triplane.census")
    expected = Counter(census_mod.census(drawing).cell_types.values())
    classified = Counter()
    kind = census_mod._kind

    def counted(*args):
        got = kind(*args)
        classified[got] += 1
        return got

    monkeypatch.setattr(census_mod, "_kind", counted)
    monkeypatch.setattr(census_mod, "classify_cell", None)  # a call would raise
    run(capsys, argv[0], str(p), *argv[1:])
    assert classified == expected  # one call per cell, with the census's type


def test_verdict_bytes_are_pinned(capsys, tmp_path):
    # One sha256 over the exit code and stdout of every verdict on a fixed
    # corpus: fig3 L=1-4, fig2 R=1-4 and saturated random (10, 30) seeds
    # 0-24 under check and both certify targets, then certify --symbolic.
    drawings = ([gen_fig3(layers) for layers in range(1, 5)]
                + [gen_fig2(rings) for rings in range(1, 5)]
                + [saturate(random_drawing(10, 30, seed)) for seed in range(25)])
    p = tmp_path / "drawing.json"
    digest = hashlib.sha256()
    for d in drawings:
        p.write_text(serialize_tdr(d))
        for argv in (["check"], ["certify", "--target", "edges"],
                     ["certify", "--target", "crossings"]):
            code, out, _ = run(capsys, argv[0], str(p), *argv[1:])
            digest.update(f"{code}\n{out}".encode())
    for target in ("edges", "crossings"):
        code, out, _ = run(capsys, "certify", "--symbolic", "--target", target)
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == (
        "a1c1aae6854f83b88cc5853699e151efed98b310e4f93c7dff0f761e264a5de2")


# The corpus of test_verdict_bytes_are_pinned.
VERDICT_CORPUS = ([(f"fig3-L{layers}", lambda layers=layers: gen_fig3(layers)) for layers in range(1, 5)]
                  + [(f"fig2-R{rings}", lambda rings=rings: gen_fig2(rings)) for rings in range(1, 5)]
                  + [(f"sat-rand-{seed}", lambda seed=seed: saturate(random_drawing(10, 30, seed)))
                     for seed in range(25)])


@pytest.mark.parametrize("argv", [["check"], ["certify", "--target", "edges"],
                                  ["certify", "--target", "crossings"], ["census"]],
                         ids=["check", "certify-edges", "certify-crossings", "census"])
def test_verdicts_name_nothing(capsys, monkeypatch, tmp_path, argv):
    # A verdict prints counts only: it never builds the named cells, decodes
    # a face walk, or names a trail or a configuration.
    paths = [tmp_path / "fig3.json", tmp_path / "sat-rand.json"]
    for p, d in zip(paths, (gen_fig3(2), saturate(random_drawing(10, 30, 3)))):
        p.write_text(serialize_tdr(d))
    census_mod = importlib.import_module("triplane.census")
    named = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            named[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("cells", "Trail", "Configuration"):
        monkeypatch.setattr(census_mod, name, counted(name, getattr(census_mod, name)))
    monkeypatch.setattr(CombMap, "faces", counted("faces", CombMap.faces))
    for p in paths:
        code, out, _ = run(capsys, argv[0], str(p), *argv[1:])
        assert code in (0, 1) and out
    assert named == Counter()


def named_counts(drawing):
    """The census counts read off the named report: cell types, cells, trails and configurations."""
    census_mod = importlib.import_module("triplane.census")
    rep = census_mod.census(drawing)
    counts = dict(stats(drawing).as_dict())
    types = Counter(rep.cell_types.values())
    counts.update({t: types[t] for t in census_mod.CELL_COUNT_KEYS})
    counts["LARGE"] += counts["KITE"]
    counts["large_size_sum"] = sum(r.size for r in rep.cells if rep.cell_types[r.cell_id] in ("LARGE", "KITE"))
    counts["cells"] = len(rep.cells)
    counts.update(census_mod.trail_counts(rep.trails))
    kinds = Counter(c.kind for c in rep.configurations)
    counts.update({k: kinds[k] for k in census_mod.CFG_KEYS})
    return counts


@pytest.mark.parametrize("build", [b for _, b in VERDICT_CORPUS], ids=[n for n, _ in VERDICT_CORPUS])
def test_verdict_counts_match_named_census(capsys, monkeypatch, tmp_path, build):
    # The counts a verdict evaluates, made on numbers, are the counts of the
    # named cells, trails and configurations of the same drawing.
    evaluated = []

    def recorded(counts, saturated=False):
        evaluated.append(dict(counts))
        return evaluate_constraints(counts, saturated=saturated)

    monkeypatch.setattr(cli, "evaluate_constraints", recorded)
    p = tmp_path / "drawing.json"
    p.write_text(serialize_tdr(build()))
    run(capsys, "check", str(p))
    assert evaluated == [named_counts(build())]


def _paused(args):
    return 0 if not gc.isenabled() else 3


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("argv,code", [
    (["check", "K3"], 0),
    (["check", "FIG3"], 1),
    (["validate", "LENS"], 1),
    (["certify", "X1", "--target", "edges"], 1),
    (["check", "MISSING"], 2),
    (["no-such-command"], 2),
], ids=["pass", "failing-row", "invalid", "not-saturated", "missing-file", "usage"])
def test_main_restores_the_collector(capsys, tmp_path, k3_file, fig3_file, collecting, argv, code):
    files = {"K3": k3_file, "FIG3": fig3_file, "MISSING": str(tmp_path / "missing.json"),
             "LENS": str(tmp_path / "lens.json"), "X1": str(tmp_path / "x1.json")}
    (tmp_path / "lens.json").write_text(serialize_tdr(gen_basic("lens-bad")))
    (tmp_path / "x1.json").write_text(serialize_tdr(util.x1()))
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        got, _, _ = run(capsys, *[files.get(a, a) for a in argv])
        assert (got, gc.isenabled()) == (code, collecting)
    finally:
        (gc.enable if was else gc.disable)()


def test_command_runs_with_the_collector_paused(capsys, monkeypatch, k3_file):
    monkeypatch.setattr(cli, "_cmd_validate", _paused)
    cli._parser.cache_clear()  # the parser holds the command functions
    try:
        assert gc.isenabled()
        assert run(capsys, "validate", k3_file)[0] == 0
        assert gc.isenabled()
    finally:
        monkeypatch.undo()
        cli._parser.cache_clear()


def test_check_rejects_invalid_drawing(capsys, tmp_path):
    p = tmp_path / "lens.json"
    p.write_text(serialize_tdr(gen_basic("lens-bad")))
    code, _, err = run(capsys, "check", str(p))
    assert code == 1
    assert "valid" in err


def test_certify_numeric(capsys, fig3_file):
    code, out, _ = run(capsys, "certify", fig3_file, "--target", "crossings")
    assert code == 0
    report = json.loads(out)
    assert report["target"] == "crossings"
    assert report["total_slack"] == "10/1"
    assert report["value"] == 45
    assert report["bound"] == "55/1"


@pytest.mark.parametrize("target", ["edges", "crossings"])
def test_certify_evaluates_only_its_target(capsys, monkeypatch, fig3_file, target):
    cli_mod = importlib.import_module("triplane.cli")
    evaluated = []

    def recorded(drawing, certificate):
        evaluated.append(certificate.target)
        return verify_numeric(drawing, certificate)

    monkeypatch.setattr(cli_mod, "verify_numeric", recorded)
    code, out, _ = run(capsys, "certify", fig3_file, "--target", target)
    assert code == 0 and json.loads(out)["target"] == target
    assert evaluated == [target]


def test_certify_requires_saturation(capsys, tmp_path):
    p = tmp_path / "x1.json"
    p.write_text(serialize_tdr(util.x1()))
    code, _, err = run(capsys, "certify", str(p), "--target", "edges")
    assert code == 1
    assert "--saturate" in err
    code, out, _ = run(capsys, "certify", str(p), "--target", "edges", "--saturate")
    assert code == 0
    assert json.loads(out)["value"] == 7


@pytest.mark.parametrize("flags", [[], ["--saturate"]], ids=["raw", "saturate"])
def test_certify_refuses_tiny_drawing_without_saturation_advice(capsys, tmp_path, flags):
    p = tmp_path / "k2.json"
    p.write_text(serialize_tdr(gen_basic("k2")))
    code, out, err = run(capsys, "certify", str(p), "--target", "edges", *flags)
    assert (code, out) == (1, "")
    assert "at least 3 vertices" in err and "--saturate" not in err


@pytest.mark.parametrize("with_file,flags,message", [
    (True, ["--symbolic"], "certify --symbolic takes no drawing file"),
    (False, [], "certify needs a drawing file (or --symbolic)"),
    (False, ["--symbolic", "--saturate"], "certify --symbolic takes no --saturate"),
], ids=["symbolic-with-file", "no-file", "symbolic-saturate"])
def test_certify_usage_errors(capsys, fig3_file, with_file, flags, message):
    files = [fig3_file] if with_file else []
    assert run(capsys, "certify", *flags, *files, "--target", "edges") == (2, "", message + "\n")


def test_certify_symbolic_reports_residual(capsys):
    code, out, _ = run(capsys, "certify", "--symbolic", "--target", "edges")
    assert code == 1  # the builtin column does not cancel exactly
    report = json.loads(out)
    assert report["target"] == "edges"
    assert report["residual"]["VQUAD"] == "1/4"


def test_generate_fig3(capsys):
    code, out, _ = run(capsys, "generate", "fig3", "--layers", "2")
    assert code == 0
    tdr = json.loads(out)
    assert len(tdr["vertices"]) == 18


def test_generate_fig2(capsys):
    assert run(capsys, "generate", "fig2", "--rings", "1") == (0, serialize_tdr(gen_fig2(1)), "")


def test_generate_basic_unknown_name(capsys):
    code, _, err = run(capsys, "generate", "basic", "zzz")
    assert code == 2
    assert "zzz" in err


def test_generate_rejects_bad_layers(capsys):
    code, _, _ = run(capsys, "generate", "fig3", "--layers", "0")
    assert code == 2


def test_ingest_scene(capsys, tmp_path):
    p = tmp_path / "scene.json"
    p.write_text(json.dumps({
        "points": {"a": ["-1", "0"], "b": ["1", "0"], "c": ["0", "-1"], "d": ["0", "1"]},
        "segments": [{"id": "e0", "ends": ["a", "b"]}, {"id": "e1", "ends": ["c", "d"]}],
    }))
    code, out, _ = run(capsys, "ingest", str(p))
    assert code == 0
    tdr = json.loads(out)
    assert tdr["edges"][0]["crossings"] == ["x0"]


def test_ingest_rejects_bad_geometry(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({
        "points": {"a": ["0", "0"], "b": ["2", "0"], "c": ["1", "0"]},
        "segments": [{"id": "e0", "ends": ["a", "b"]}, {"id": "e1", "ends": ["a", "c"]}],
    }))
    code, _, err = run(capsys, "ingest", str(p))
    assert code == 1
    assert "segment" in err or "point" in err


# Scene rules are checked while the file is read (exit 2); distinct points are
# the arrangement's geometric rule, checked on ingestion (exit 1).
@pytest.mark.parametrize("segments,code,message", [
    ([{"id": "e0", "ends": ["a", "c"]}, {"id": "e0", "ends": ["b", "c"]}], 2, "duplicate segment id 'e0'"),
    ([{"id": "e0", "ends": ["a", "c"]}, {"id": "e1", "ends": ["b", "c"]}], 1, "coincident-endpoints: 'a' and 'b'"),
], ids=["duplicate-id", "coincident-points"])
def test_ingest_exit_codes(capsys, tmp_path, segments, code, message):
    p = tmp_path / "scene.json"
    p.write_text(json.dumps({"points": {"a": ["0", "0"], "b": ["0/5", "0"], "c": ["1", "1"]},
                             "segments": segments}))
    got, out, err = run(capsys, "ingest", str(p))
    assert (got, out) == (code, "")
    assert err.rstrip("\n").endswith(message)


def test_random_is_deterministic(capsys):
    code, out1, _ = run(capsys, "random", "--n", "6", "--budget", "10", "--seed", "3")
    assert code == 0
    code, out2, _ = run(capsys, "random", "--n", "6", "--budget", "10", "--seed", "3")
    assert out1 == out2


# Both are refused before any point is drawn: more points than the 121 x 121
# grid holds made the point loop spin forever, and a negative budget was
# read as 0.
@pytest.mark.parametrize("n,budget,message", [
    ("14642", "0", "n=14642 exceeds the 14641 distinct grid points"),
    ("6", "-1", "edge budget must be nonnegative, got -1"),
], ids=["too-many-points", "negative-budget"])
def test_random_rejects_impossible_parameters(capsys, monkeypatch, n, budget, message):
    def no_points(seed):
        raise AssertionError("random points were drawn")

    monkeypatch.setattr("random.Random", no_points)
    assert run(capsys, "random", "--n", n, "--budget", budget, "--seed", "0") == (2, "", message + "\n")


@pytest.mark.parametrize("command,text", [
    ("validate", "[" * 100000),
    ("ingest", "[" * 100000),
    ("validate", json.dumps({"vertices": ["a", "b"], "rotations": {},
                             "edges": [{"id": "e0", "ends": [["a"], "b"], "crossings": []}]})),
    ("validate", json.dumps({"vertices": ["a", "b"],
                             "edges": [{"id": "e0", "ends": ["a", "b"], "crossings": []}],
                             "rotations": {"a": [{"edge": ["e0"], "seg": 0, "dir": "fwd"}],
                                           "b": [{"edge": "e0", "seg": 0, "dir": "bwd"}]}})),
    ("ingest", json.dumps({"points": [], "segments": []})),
    ("ingest", json.dumps({"points": {"a": ["0", "0"], "b": ["1", "0"]},
                           "segments": [{"id": ["s"], "ends": ["a", "b"]}]})),
    ("ingest", json.dumps({"points": {"a": ["0", "0"], "b": ["1", "0"]},
                           "segments": [{"id": "s", "ends": 5}]})),
    ("ingest", json.dumps({"points": {"a": [True, "0"], "b": ["1", "0"]}, "segments": []})),
], ids=["validate-deep-json", "ingest-deep-json", "validate-list-end", "validate-list-dart-edge",
        "ingest-list-points", "ingest-list-segment-id", "ingest-int-ends", "ingest-bool-coordinate"])
def test_malformed_input_is_usage_error(capsys, tmp_path, command, text):
    p = tmp_path / "bad.json"
    p.write_text(text)
    code, out, err = run(capsys, command, str(p))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err and str(p) in err


_EXTRA_KEY_SEGMENT = {"id": "s", "ends": ["a", "b"], "color": "red"}


@pytest.mark.parametrize("command,obj,text", [
    ("validate", [], "top level must be an object"),
    ("validate", {"vertices": {}, "edges": [], "rotations": {}}, "vertices must be a list"),
    ("validate", {"vertices": [], "edges": {}, "rotations": {}}, "edges must be a list"),
    ("validate", {"vertices": [], "edges": [], "rotations": []}, "rotations must be an object"),
    ("validate", {"vertices": [""], "edges": [], "rotations": {}}, "vertex ids must be nonempty strings"),
    ("ingest", {"points": {"a": ["0", "0"], "b": ["1", "0"]}, "segments": [_EXTRA_KEY_SEGMENT]},
     f"segment record must have exactly id, ends: {_EXTRA_KEY_SEGMENT!r}"),
], ids=["list-top-level", "object-vertices", "object-edges", "list-rotations", "empty-vertex-id",
        "segment-extra-key"])
def test_shape_refusal_names_file_and_defect(capsys, tmp_path, command, obj, text):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj))
    assert run(capsys, command, str(p)) == (2, "", f"{p}: {text}\n")


# json.loads refuses an integer literal past CPython's digit limit (4300)
@pytest.mark.parametrize("command,text", [
    ("ingest", '{"points": {"a": [1%s, "0"]}, "segments": []}' % ("0" * 5000)),
    ("validate", serialize_tdr(gen_basic("k2")).replace('"seg":0', '"seg":1' + "0" * 5000, 1)),
], ids=["ingest", "validate"])
def test_integer_past_the_digit_limit_is_usage_error(capsys, tmp_path, command, text):
    p = tmp_path / "huge.json"
    p.write_text(text)
    code, out, err = run(capsys, command, str(p))
    assert (code, out) == (2, "")
    assert err.startswith(f"{p}: syntax: ") and "Traceback" not in err


def test_ingest_refuses_huge_exponent_fast(capsys, tmp_path):
    p = tmp_path / "huge.json"
    p.write_text(json.dumps({"points": {"a": ["1e99999999", "0"]}, "segments": []}))
    start = time.perf_counter()
    code, out, err = run(capsys, "ingest", str(p))
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"{p}: bad rational '1e99999999'\n")


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "validate", "/no/such/file.json")
    assert code == 2
    assert err


@pytest.mark.parametrize("argv", [["validate"], ["census"], ["check"], ["certify", "--target", "edges"],
                                  ["ingest"]], ids=lambda argv: argv[0])
def test_non_utf8_file_is_usage_error(capsys, tmp_path, argv):
    p = tmp_path / "utf16.json"
    p.write_bytes(b"\xff\xfe{\x00}\x00")
    code, out, err = run(capsys, *argv, str(p))
    assert (code, out) == (2, "")
    assert err.startswith(f"cannot read {p}: not UTF-8 (") and "Traceback" not in err


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 2
    assert "invalid choice" in err


def test_help_exits_zero(capsys):
    for _ in range(2):  # the second call uses the parser the first one built
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "validate" in out


def test_parser_built_once_answers_as_fresh(capsys, fig3_file):
    calls = [("certify", fig3_file, "--target", "bogus"),
             ("check", fig3_file),
             ("certify", fig3_file, "--target", "edges")]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    cli._parser.cache_clear()
    shared = [run(capsys, *argv) for argv in calls]
    assert cli._parser.cache_info().misses == 1
    assert [code for code, _, _ in fresh] == [2, 1, 0]
    assert shared == fresh


def test_pipeline_generate_then_census(capsys, tmp_path):
    code, out, _ = run(capsys, "generate", "basic", "fig4-flower")
    assert code == 0
    p = tmp_path / "flower.json"
    p.write_text(out)
    code, out, _ = run(capsys, "census", str(p))
    assert code == 0
    assert json.loads(out)["XPENT"] == 1
