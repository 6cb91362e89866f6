"""Run the Tier-1 suite and pass only when its failures are exactly the deliberate ones.

Usage::

    python3 tools/tier1.py

From the root of the checkout this file sits in, it runs
``python -m pytest -q --continue-on-collection-errors`` with ``src`` put
first on ``PYTHONPATH``, echoing pytest's output.  It then reads the node
ids of pytest's short summary (``FAILED <id>`` and ``ERROR <id>`` lines)
and its closing counts line, prints the pass count, and exits 0 only when
the failed tests are exactly ``DELIBERATE`` and nothing errored: no
collection error, no fixture error.  Any other outcome is named, one line
each, and the exit status is 1.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, FrozenSet, List, NamedTuple

# The three failures the project keeps on purpose: the built-in certificate
# columns do not cancel, and row 3.E is falsifiable on saturated drawings.
DELIBERATE: FrozenSet[str] = frozenset({
    "tests/test_acceptance.py::test_criterion2_symbolic_certificate[edges]",
    "tests/test_acceptance.py::test_criterion2_symbolic_certificate[crossings]",
    "tests/test_acceptance.py::test_criterion3_all_rows_after_saturation",
})

_COUNT = re.compile(r"(\d+) ([a-z]+?)s?\b")  # "3 failed", "1 error", "2 errors"
_CLOSING = re.compile(r"^=*\s*(?:\d+ \w+, )*\d+ \w+ in [\d.]+s")


class Outcome(NamedTuple):
    counts: Dict[str, int]  # from the closing line: "passed", "failed", "error", ...
    failed: FrozenSet[str]
    errored: FrozenSet[str]


def parse(output: str) -> Outcome:
    """The closing counts and the failed and errored node ids of ``pytest -q`` output."""
    failed, errored, counts = set(), set(), {}
    for line in output.splitlines():
        for word, ids in (("FAILED ", failed), ("ERROR ", errored)):
            if line.startswith(word):
                ids.add(line[len(word):].split(" - ", 1)[0])
        if _CLOSING.match(line):
            counts = {kind: int(k) for k, kind in _COUNT.findall(line)}
    return Outcome(counts, frozenset(failed), frozenset(errored))


def problems(outcome: Outcome) -> List[str]:
    """Why ``outcome`` is not the documented Tier-1 result; empty when it is."""
    if not outcome.counts:
        return ["no closing counts line in the pytest output"]
    out = [f"unexpected failure: {t}" for t in sorted(outcome.failed - DELIBERATE)]
    out += [f"deliberate failure missing: {t}" for t in sorted(DELIBERATE - outcome.failed)]
    out += [f"error: {t}" for t in sorted(outcome.errored)]
    if outcome.counts.get("failed", 0) != len(outcome.failed) or outcome.counts.get("error", 0) != len(outcome.errored):
        out.append("the closing counts do not match the FAILED and ERROR lines")
    return out


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ("src", env.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                         cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    sys.stdout.write(run.stdout)
    outcome = parse(run.stdout)
    print(f"tier1: {outcome.counts.get('passed', 0)} passed")
    found = problems(outcome)
    for line in found:
        print(f"tier1: {line}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
