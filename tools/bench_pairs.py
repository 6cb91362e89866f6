"""Alternating parent/change runs of perfbench, summarized into a BENCH_<label>.json file.

Usage::

    python3 tools/bench_pairs.py --parent DIR --change DIR --label 23
        [--first-seed 2301] [--note TEXT] [--parent-rev REV] [--change-rev REV]

``DIR`` is a checkout (a ``git archive`` or a clone) holding ``perfbench/``,
``src/`` and ``BENCHMARK.json``.  For each workload ``BENCHMARK.json``
lists, pair ``i`` of ten runs ``python3 perfbench/run.py --workload W
--seed <first-seed + i> --trace 0`` once in each checkout, at perfbench's
own run length, the parent first when ``i`` is even and the change first
when it is odd, one process at a time.  After the pairs, each side runs
three traced rounds of the workload (``--trace 1``, seeds ``first-seed``
to ``first-seed + 2``, the sides alternating as in the pairs), which
report perfbench's per-layer calls and self times.  The file,
written to the current directory, records, per workload and end-to-end
metric, each side's runs, median and inclusive quartiles, the pairs the
change wins, and the change's median against the parent's with the bound
``BENCHMARK.json`` sets; per run, the rounds, the failed operations and
whether the output digests match perfbench's reference; per workload,
each side's failed share of all attempted operations, whether the
change's is no higher, and each side's traced rounds: each round's failed
operations and digest check, and the median of each per-layer metric
over the rounds, so one noisy round sets no self time; and each side's
``src/`` line count (``cat src/triplane/*.py | wc -l``), the Python
version and both commits: each one given as ``--parent-rev`` or
``--change-rev``, else the ``HEAD`` of its checkout when the checkout is
the top of its own git work tree, else ``null``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

SIDES = ("parent", "change")
PAIRS = 10  # the fewest pairs the gain rule reads: nine wins in ten
TRACED = 3  # traced rounds per side; each per-layer figure is their median
_ROUNDS = re.compile(r"^workload \S+ seed \S+: (\d+) round\(s\)", re.M)
_DIGESTS = re.compile(r"outputs sha256:([0-9a-f]+): (\d+) match the reference, (\d+) have none, (\d+) differ")


def quartiles(values: Sequence[float]) -> List[float]:
    """q1, median, q3 by the inclusive method; a single value is all three."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize_metric(parent: Sequence[float], change: Sequence[float], better: str,
                     bound: Optional[float] = None) -> dict:
    """One metric over paired runs: ``parent[i]`` and ``change[i]`` ran as pair ``i``.

    A pair is a win when the change reads better than the parent (``better``
    is ``"higher"`` or ``"lower"``); a tie counts for neither side.  The gain
    rule holds when the change wins at least nine pairs in ten and its median
    is better than the parent's by more than the parent's quartile spread.
    ``worse_pct`` is how far the change's median is worse than the parent's,
    as a percentage of it (negative when it is better), and ``within_bound``
    compares it with ``bound``, a fraction, when one is given.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("summarize_metric needs the same nonzero number of runs per side")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', not {better!r}")
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
    spread = pq3 - pq1
    worse_pct = -sign * (cmed - pmed) / pmed * 100 if pmed else 0.0
    out = {
        "better": better,
        "parent": {"median": pmed, "q1": pq1, "q3": pq3, "runs": list(parent)},
        "change": {"median": cmed, "q1": cq1, "q3": cq3, "runs": list(change)},
        "change_wins": f"{wins}/{len(parent)}",
        "median_change_pct": (cmed - pmed) / pmed * 100 if pmed else 0.0,
        "parent_iqr": spread,
        "gain_rule_holds": 10 * wins >= 9 * len(parent) and sign * (cmed - pmed) > spread,
        "worse_pct": worse_pct,
    }
    if bound is not None:
        out["bound_pct"] = bound * 100
        out["within_bound"] = worse_pct <= bound * 100
    return out


def parse_run(stdout: str) -> dict:
    """The facts of one ``perfbench/run.py --workload W`` run, read from its stdout."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the benchmark printed nothing")
    last = json.loads(lines[-1])
    rounds, digests = _ROUNDS.search(stdout), _DIGESTS.search(stdout)
    if rounds is None or digests is None:
        raise ValueError("the benchmark's summary lines are missing")
    combined, match, none, differ = digests.groups()
    return {"correct": last["correct"], "attempted": last["attempted"], "failed": last["failed"],
            "metrics": {name: m["value"] for name, m in last["metrics"].items()},
            "rounds": int(rounds.group(1)), "digest": combined,
            "digests_match": int(differ) == 0 and int(none) == 0,
            "digest_counts": [int(match), int(none), int(differ)]}


def src_lines(checkout: Path) -> int:
    """The lines of ``src/triplane/*.py`` in ``checkout``, as ``cat src/triplane/*.py | wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src" / "triplane").glob("*.py"))


def failed_share(runs: Sequence[dict]) -> float:
    """The failed operations of ``runs`` over the operations they attempted (0 when none were attempted)."""
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def summarize_traced(rounds: Sequence[dict], seeds: Sequence[int]) -> dict:
    """One side's traced rounds: ``rounds[j]`` is ``parse_run`` of the round of seed ``seeds[j]``.

    Each round keeps its failed operations and digest check; each per-layer
    metric is the median over the rounds.
    """
    return {"rounds": [{"seed": seed, "correct": r["correct"], "failed": f"{r['failed']}/{r['attempted']}",
                        "digests_match_reference": r["digests_match"]} for seed, r in zip(seeds, rounds)],
            "per_layer_median": {name: statistics.median(r["metrics"][name] for r in rounds)
                                 for name in rounds[0]["metrics"]}}


def summarize_workload(runs: Dict[str, List[dict]], seeds: Sequence[int],
                       end_to_end: Sequence[dict], traced: Dict[str, List[dict]]) -> dict:
    """All pairs of one workload: ``runs[side][i]`` is ``parse_run`` of pair ``i`` on that side.

    ``traced[side][j]`` is ``parse_run`` of that side's traced round of seed
    ``seeds[j]``.  The change must fail no larger share of its operations
    than the parent.
    """
    share = {side: failed_share(runs[side]) for side in SIDES}
    return {
        "seeds": list(seeds),
        "pairs": len(seeds),
        "first_in_pair": [SIDES[i % 2] for i in range(len(seeds))],
        "rounds_per_run": {side: [r["rounds"] for r in runs[side]] for side in SIDES},
        "failed_per_run": {side: [f"{r['failed']}/{r['attempted']}" for r in runs[side]] for side in SIDES},
        "failed_share": share,
        "failed_share_no_higher": share["change"] <= share["parent"],
        "correct": all(r["correct"] for side in SIDES for r in runs[side]),
        "digests_match_reference": all(r["digests_match"] for side in SIDES for r in runs[side]),
        "digests_agree": len({r["digest"] for side in SIDES for r in runs[side]}) == 1,
        "metrics": {m["name"]: summarize_metric([r["metrics"][m["name"]] for r in runs["parent"]],
                                                [r["metrics"][m["name"]] for r in runs["change"]],
                                                m["better"], m.get("bound"))
                    for m in end_to_end},
        "traced_rounds": {side: summarize_traced(traced[side], seeds) for side in SIDES},
    }


def _rev(checkout: Path) -> Optional[str]:
    """The ``HEAD`` of ``checkout`` if it is the top of its own git work tree, else ``None``.

    An export unpacked inside another clone is not one: git would answer for that clone.
    """
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--show-toplevel", "HEAD"],
                          capture_output=True, text=True, check=False)
    lines = proc.stdout.split("\n")
    if proc.returncode != 0 or Path(lines[0]).resolve() != checkout.resolve():
        return None
    return lines[1]


def _run(checkout: Path, workload: str, seed: int, trace: int = 0) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--trace", str(trace)],
                          cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return parse_run(proc.stdout)


def main(argv: Optional[Sequence[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--note", default="", help="what the change does, recorded as the file's 'change'")
    p.add_argument("--parent-rev", help="the parent's commit, if its checkout is not a git clone")
    p.add_argument("--change-rev", help="the change's commit, if its checkout is not a git clone")
    args = p.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = [args.first_seed + i for i in range(PAIRS)]
    workloads = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        runs: Dict[str, List[dict]] = {side: [] for side in SIDES}
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[side].append(_run(getattr(args, side), workload, seed))
            print(f"{workload} pair {i + 1}/{len(seeds)}: " + ", ".join(
                f"{side} ops_per_s {runs[side][-1]['metrics']['ops_per_s']:.3f}" for side in SIDES),
                file=sys.stderr)
        traced: Dict[str, List[dict]] = {side: [] for side in SIDES}
        for j, seed in enumerate(seeds[:TRACED]):
            for side in SIDES if j % 2 == 0 else SIDES[::-1]:
                traced[side].append(_run(getattr(args, side), workload, seed, trace=1))
        workloads[workload] = summarize_workload(runs, seeds, bench["end_to_end"], traced)

    out = {
        "label": args.label,
        "change": args.note,
        "commits": {side: getattr(args, f"{side}_rev") or _rev(getattr(args, side)) for side in SIDES},
        "python": platform.python_version(),
        "machine": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs",
        "command": "python3 perfbench/run.py --workload W --seed S --trace 0",
        "method": (f"{PAIRS} pairs per workload, seeds {seeds[0]}-{seeds[-1]}; in pair i the parent runs "
                   "first when i is even (from 0), the change when it is odd; one process at a time. "
                   f"Quartiles by the inclusive method. Then {TRACED} traced rounds per side "
                   f"(--trace 1, seeds {seeds[0]}-{seeds[TRACED - 1]}, alternating as the pairs do); "
                   "each per-layer figure is the median over them, self times in raw wall seconds of one round."),
        "src_lines": {side: src_lines(getattr(args, side)) for side in SIDES},
        "workloads": workloads,
    }
    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
