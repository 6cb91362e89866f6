"""The output parser of ``tools/tier1.py``, on canned ``pytest -q`` output."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "tier1", Path(__file__).resolve().parent.parent / "tools" / "tier1.py")
tier1 = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tier1)

_EDGES, _CROSSINGS, _ROWS = sorted(tier1.DELIBERATE)


def _output(*summary, closing):
    return "\n".join(["..F.....F......F", "=" * 27 + " short test summary info " + "=" * 28,
                      *summary, closing, ""])


DOCUMENTED = _output(f"FAILED {_EDGES} - AssertionError: assert not {{'CFG10': ...}}",
                     f"FAILED {_CROSSINGS} - AssertionError: assert not {{'CFG10': ...}}",
                     f"FAILED {_ROWS} - AssertionError: assert not Counter({{'3.E': 123}})",
                     closing="3 failed, 3393 passed in 25.82s")


def test_the_documented_result_passes():
    outcome = tier1.parse(DOCUMENTED)
    assert outcome.counts == {"failed": 3, "passed": 3393}
    assert outcome.failed == tier1.DELIBERATE and not outcome.errored
    assert tier1.problems(outcome) == []


def test_an_extra_failure_is_named():
    extra = "tests/test_cli.py::test_check_exit_codes[a b]"
    out = _output(f"FAILED {extra} - AssertionError: exit 1 - not 0",
                  *DOCUMENTED.splitlines()[2:5], closing="4 failed, 3392 passed in 25.82s")
    assert tier1.problems(tier1.parse(out)) == [f"unexpected failure: {extra}"]


def test_a_missing_deliberate_failure_is_named():
    out = _output(*DOCUMENTED.splitlines()[2:4], closing="2 failed, 3394 passed in 25.82s")
    assert tier1.problems(tier1.parse(out)) == [f"deliberate failure missing: {_ROWS}"]


def test_a_collection_error_is_named():
    out = _output(*DOCUMENTED.splitlines()[2:5], "ERROR tests/test_census.py",
                  closing="3 failed, 3300 passed, 1 error in 20.01s")
    outcome = tier1.parse(out)
    assert outcome.counts == {"failed": 3, "passed": 3300, "error": 1}
    assert tier1.problems(outcome) == ["error: tests/test_census.py"]


def test_output_without_a_closing_line_fails():
    assert tier1.problems(tier1.parse(DOCUMENTED.replace("3 failed, 3393 passed in 25.82s", ""))) == [
        "no closing counts line in the pytest output"]
