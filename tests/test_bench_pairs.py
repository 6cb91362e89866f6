"""The pure summary functions of ``tools/bench_pairs.py``."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_quartiles_are_inclusive():
    assert bench_pairs.quartiles([1, 2, 3, 4, 5]) == [2, 3, 4]
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == [1.75, 2.5, 3.25]
    assert bench_pairs.quartiles([7.0]) == [7.0, 7.0, 7.0]


def test_higher_is_better_gain():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    change = [12.0, 12.1, 11.9, 12.2, 9.0, 12.0, 12.3, 11.8, 12.0, 12.1]
    m = bench_pairs.summarize_metric(parent, change, "higher", bound=0.15)
    assert m["change_wins"] == "9/10"
    assert m["parent"]["median"] == 10.0 and m["change"]["median"] == 12.0
    assert m["median_change_pct"] == pytest.approx(20.0)
    assert m["parent_iqr"] == pytest.approx(10.1 - 9.925)
    assert m["gain_rule_holds"]
    assert m["worse_pct"] == pytest.approx(-20.0) and m["within_bound"]


def test_lower_is_better_and_ties_count_for_neither():
    parent = [1.0, 1.0, 1.0, 1.0]
    change = [0.9, 1.0, 1.2, 0.9]
    m = bench_pairs.summarize_metric(parent, change, "lower", bound=0.05)
    assert m["change_wins"] == "2/4"  # one tie, one loss
    assert not m["gain_rule_holds"]
    assert m["change"]["median"] == pytest.approx(0.95)
    assert m["worse_pct"] == pytest.approx(-5.0) and m["within_bound"]


def test_gain_needs_the_median_past_the_parent_spread():
    # Ten wins of ten, but by less than the parent's own quartile spread.
    parent = [float(x) for x in range(10, 20)]
    change = [x + 0.5 for x in parent]
    m = bench_pairs.summarize_metric(parent, change, "higher")
    assert m["change_wins"] == "10/10" and not m["gain_rule_holds"]
    assert "within_bound" not in m


def test_worse_beyond_the_bound_is_reported():
    m = bench_pairs.summarize_metric([100.0] * 3, [106.0] * 3, "lower", bound=0.05)
    assert m["worse_pct"] == pytest.approx(6.0) and not m["within_bound"]


@pytest.mark.parametrize("parent,change,better", [([], [], "higher"), ([1.0], [1.0, 2.0], "lower"),
                                                  ([1.0], [1.0], "faster")])
def test_bad_input_is_refused(parent, change, better):
    with pytest.raises(ValueError):
        bench_pairs.summarize_metric(parent, change, better)


RUN_STDOUT = """workload certify seed 3: 6 round(s) of 8 ops, 2.412 s wall per round; attempted 48, failed 0, correct true
  time in operations: 13.001 s wall, 12.100 s at the reference speed (x0.931)
  outputs sha256:{digest}: 8 match the reference, 0 have none, {differ} differ
  ops_per_s 39.6 op/s
{last}
"""


def run_stdout(ops_per_s, digest="ab" * 32, differ=0, attempted=48, failed=0):
    last = json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                       "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "op/s"}}})
    return RUN_STDOUT.format(digest=digest, differ=differ, last=last)


def test_parse_run_reads_rounds_digests_and_metrics():
    run = bench_pairs.parse_run(run_stdout(39.6))
    assert (run["rounds"], run["attempted"], run["failed"], run["correct"]) == (6, 48, 0, True)
    assert run["metrics"] == {"ops_per_s": 39.6}
    assert run["digest"] == "ab" * 32 and run["digests_match"]
    assert not bench_pairs.parse_run(run_stdout(39.6, differ=1))["digests_match"]
    with pytest.raises(ValueError):
        bench_pairs.parse_run("")


TRACED_STDOUT = """workload certify seed 5: 1 round(s) of 8 ops, 0.477 s wall per round; attempted 8, failed 1, correct true
  time in operations: 0.329 s wall, 0.176 s at the reference speed (x0.536)
  outputs sha256:{digest}: 8 match the reference, 0 have none, 0 differ
  spans written to perfbench/out/trace-certify-seed5.json.gz
  combmap.CombMap.calls                                     24 count
  combmap.CombMap.self_s                            0.0615834 s
  census.cells_per_verdict                                   0 ratio
{last}
"""


def traced_stdout(combmap_calls, self_s=0.0615834, failed=1, differ=0):
    last = json.dumps({"correct": True, "attempted": 8, "failed": failed, "metrics": {
        "combmap.CombMap.calls": {"value": combmap_calls, "unit": "count"},
        "combmap.CombMap.self_s": {"value": self_s, "unit": "s"},
        "census.cells_per_verdict": {"value": 0.0, "unit": "ratio"}}})
    return TRACED_STDOUT.format(digest="ef" * 32, last=last).replace(" 0 differ", f" {differ} differ")


def test_parse_run_reads_a_traced_round():
    run = bench_pairs.parse_run(traced_stdout(24))
    assert (run["rounds"], run["attempted"], run["failed"], run["digests_match"]) == (1, 8, 1, True)
    assert run["metrics"] == {"combmap.CombMap.calls": 24, "combmap.CombMap.self_s": 0.0615834,
                              "census.cells_per_verdict": 0.0}


def test_summarize_workload_pairs_the_sides():
    runs = {"parent": [bench_pairs.parse_run(run_stdout(v)) for v in (30.0, 31.0, 32.0)],
            "change": [bench_pairs.parse_run(run_stdout(v, digest="cd" * 32)) for v in (36.0, 37.0, 38.0)]}
    traced = {"parent": [bench_pairs.parse_run(traced_stdout(0))] * 3,
              "change": [bench_pairs.parse_run(traced_stdout(24))] * 3}
    w = bench_pairs.summarize_workload(runs, [5, 6, 7], [{"name": "ops_per_s", "better": "higher", "bound": 0.15}],
                                       traced)
    assert w["first_in_pair"] == ["parent", "change", "parent"]
    assert w["failed_per_run"]["change"] == ["0/48"] * 3 and w["rounds_per_run"]["parent"] == [6] * 3
    assert w["correct"] and w["digests_match_reference"] and not w["digests_agree"]
    assert w["metrics"]["ops_per_s"]["change_wins"] == "3/3"
    assert w["failed_share"] == {"parent": 0.0, "change": 0.0} and w["failed_share_no_higher"]
    assert w["traced_rounds"]["parent"]["per_layer_median"]["combmap.CombMap.calls"] == 0
    assert w["traced_rounds"]["change"] == {
        "rounds": [{"seed": seed, "correct": True, "failed": "1/8", "digests_match_reference": True}
                   for seed in (5, 6, 7)],
        "per_layer_median": {"combmap.CombMap.calls": 24, "combmap.CombMap.self_s": 0.0615834,
                             "census.cells_per_verdict": 0.0}}


def test_one_noisy_traced_round_sets_no_per_layer_figure():
    rounds = [bench_pairs.parse_run(traced_stdout(24, self_s=t, failed=f, differ=d))
              for t, f, d in ((0.0145, 0, 0), (0.0249, 1, 1), (0.0146, 0, 0))]
    traced = bench_pairs.summarize_traced(rounds, [3601, 3602, 3603])
    assert traced["per_layer_median"]["combmap.CombMap.self_s"] == 0.0146
    assert traced["per_layer_median"]["combmap.CombMap.calls"] == 24
    assert [(r["seed"], r["failed"], r["digests_match_reference"]) for r in traced["rounds"]] == [
        (3601, "0/8", True), (3602, "1/8", False), (3603, "0/8", True)]


def test_src_lines_counts_newlines_like_wc(tmp_path):
    pkg = tmp_path / "src" / "triplane"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_bytes(b"x = 1\n\ny = 2\n")
    (pkg / "b.py").write_bytes(b"z = 3")  # no final newline: wc -l does not count the line
    (pkg / "notes.txt").write_bytes(b"not\ncounted\n")
    assert bench_pairs.src_lines(tmp_path) == 3


def test_failed_share_is_over_all_attempted_operations():
    # parent 1/27 + 1/27 + 2/54 = 4/108; change 1/27 + 1/27 + 1/27 = 3/81
    parent = [bench_pairs.parse_run(run_stdout(30.0, attempted=a, failed=f)) for a, f in ((27, 1), (27, 1), (54, 2))]
    change = [bench_pairs.parse_run(run_stdout(31.0, attempted=27, failed=1)) for _ in range(3)]
    traced = {side: [bench_pairs.parse_run(traced_stdout(0))] * 3 for side in bench_pairs.SIDES}
    end_to_end = [{"name": "ops_per_s", "better": "higher"}]
    w = bench_pairs.summarize_workload({"parent": parent, "change": change}, [1, 2, 3], end_to_end, traced)
    assert w["failed_share"] == {"parent": pytest.approx(1 / 27), "change": pytest.approx(1 / 27)}
    assert w["failed_share_no_higher"]  # equal shares pass
    change[0] = bench_pairs.parse_run(run_stdout(31.0, attempted=27, failed=2))
    w = bench_pairs.summarize_workload({"parent": parent, "change": change}, [1, 2, 3], end_to_end, traced)
    assert w["failed_share"]["change"] == pytest.approx(4 / 81) and not w["failed_share_no_higher"]
    w = bench_pairs.summarize_workload({"parent": change, "change": parent}, [1, 2, 3], end_to_end, traced)
    assert w["failed_share_no_higher"]
    assert bench_pairs.failed_share([]) == 0.0


def _git(*args):
    return subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com", *args],
                          capture_output=True, text=True, check=True).stdout.strip()


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_rev_reads_the_head_of_a_clone(tmp_path):
    _git("init", "-q", str(tmp_path))
    _git("-C", str(tmp_path), "commit", "-q", "--allow-empty", "-m", "first")
    assert bench_pairs._rev(tmp_path) == _git("-C", str(tmp_path), "rev-parse", "HEAD")


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_rev_is_null_for_an_export_inside_another_clone(tmp_path):
    _git("init", "-q", str(tmp_path))
    _git("-C", str(tmp_path), "commit", "-q", "--allow-empty", "-m", "first")
    export = tmp_path / "export"
    export.mkdir()
    assert bench_pairs._rev(export) is None
    assert bench_pairs._rev(tmp_path / "missing") is None


def test_main_alternates_the_sides_in_the_pairs_and_the_traced_rounds(tmp_path, monkeypatch):
    calls = []

    def fake_run(checkout, workload, seed, trace=0):
        calls.append((checkout.name, seed, trace))
        return bench_pairs.parse_run(traced_stdout(24) if trace else run_stdout(30.0))

    for side in bench_pairs.SIDES:
        (tmp_path / side / "src" / "triplane").mkdir(parents=True)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "certify"}], "end_to_end": [{"name": "ops_per_s", "better": "higher"}]}))
    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main(["--parent", "parent", "--change", "change", "--label", "t", "--first-seed", "100",
                             "--parent-rev", "p", "--change-rev", "c"]) == 0
    assert calls[:4] == [("parent", 100, 0), ("change", 100, 0), ("change", 101, 0), ("parent", 101, 0)]
    assert [c for c in calls if c[2]] == [("parent", 100, 1), ("change", 100, 1), ("change", 101, 1),
                                         ("parent", 101, 1), ("parent", 102, 1), ("change", 102, 1)]
    traced = json.loads((tmp_path / "BENCH_t.json").read_text())["workloads"]["certify"]["traced_rounds"]
    assert [r["seed"] for r in traced["change"]["rounds"]] == [100, 101, 102]
