import hashlib
import importlib
import json
import time
from collections import Counter

import pytest

from triplane import cli
from triplane.certificate import verify_numeric
from triplane.cli import main
from triplane.combmap import CombMap, Darts
from triplane.drawing import Drawing, serialize_tdr
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


# census refuses an invalid drawing with check's message and exit code.
@pytest.mark.parametrize("build", [
    lambda: gen_basic("lens-bad"),
    util.two_components,
    lambda: Drawing(["a"], [], {"a": []}),
], ids=["lens-bad", "two-components", "lone-vertex"])
def test_census_rejects_invalid_drawing(capsys, tmp_path, build):
    p = tmp_path / "bad.json"
    p.write_text(serialize_tdr(build()))
    for cmd in ("census", "check"):
        code, out, err = run(capsys, cmd, str(p))
        assert (code, out) == (1, "")
        assert err.startswith("drawing is not valid: ")


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
# report and one cell view per drawing must not change a byte.
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
    monkeypatch.setattr(drawing_mod, "validate", counted("validate", drawing_mod.validate))
    # One check and numbering of the rotations (``Darts.of_paths``), and one view of them.
    monkeypatch.setattr(Darts, "of_paths", counted("of_paths", Darts.of_paths))
    monkeypatch.setattr(CombMap, "__init__", counted("CombMap", CombMap.__init__))
    got, out, _ = run(capsys, argv[0], str(p), *argv[1:])
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
    assert (calls["cells"], calls["validate"], calls["of_paths"], calls["CombMap"]) == (1, 1, 1, 1)


# One verdict classifies each cell once: the filledness check, the trails
# and the configurations all read the drawing's one classified cell view.
@pytest.mark.parametrize("argv", [["check"], ["certify", "--target", "edges"],
                                  ["certify", "--target", "crossings"]],
                         ids=["check", "certify-edges", "certify-crossings"])
def test_verdict_classifies_each_cell_once(capsys, monkeypatch, tmp_path, argv):
    drawing = gen_fig3(2)
    p = tmp_path / "fig3.json"
    p.write_text(serialize_tdr(drawing))
    census_mod = importlib.import_module("triplane.census")
    classified = Counter()
    classify = census_mod.classify_cell

    def counted(d, record):
        classified[record.cell_id] += 1
        return classify(d, record)

    monkeypatch.setattr(census_mod, "classify_cell", counted)
    run(capsys, argv[0], str(p), *argv[1:])
    assert classified == Counter(r.cell_id for r in census_mod.cells(drawing))


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

    def recorded(drawing, certificates=None):
        evaluated.append(certificates and sorted(certificates))
        return verify_numeric(drawing, certificates)

    monkeypatch.setattr(cli_mod, "verify_numeric", recorded)
    code, out, _ = run(capsys, "certify", fig3_file, "--target", target)
    assert code == 0 and json.loads(out)["target"] == target
    assert evaluated == [[target]]


def test_certify_requires_saturation(capsys, tmp_path):
    p = tmp_path / "x1.json"
    p.write_text(serialize_tdr(util.x1()))
    code, _, err = run(capsys, "certify", str(p), "--target", "edges")
    assert code == 1
    assert "--saturate" in err
    code, out, _ = run(capsys, "certify", str(p), "--target", "edges", "--saturate")
    assert code == 0
    assert json.loads(out)["value"] == 7


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
