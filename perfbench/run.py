"""End-to-end benchmark of triplane: certify, saturate and generate.

Usage::

    python3 perfbench/run.py [--workload certify|saturate|generate|all]
                             [--seed N] [--seconds S] [--trace 0|1]

A timed run (``--trace 0``) sets the workload up three times and reports
the median set-up time, then runs whole rounds of the workload's
operations, one thread, until the next round would end after ``--seconds``.
Times are scaled to a reference machine speed (see ``clock.py``).
A traced run (``--trace 1``) sets up once, wraps triplane's public
functions and runs exactly one round, so its call counts repeat exactly;
its spans go to ``perfbench/out/trace-<workload>-seed<N>.json.gz``.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Without
``--workload`` (or with ``all``) each workload runs in its own process
and the last line maps workload names to their results.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Optional, Tuple

import clock
import env
import workloads
from tracer import TRACED_NAMES, Tracer

WORKLOADS = ("certify", "saturate", "generate")
SETUP_REPEATS = 3

END_TO_END_UNITS = {"ops_per_s": "op/s", "large_op_s": "s", "small_op_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def _digests(outputs: Dict[str, bytes]) -> Dict[str, str]:
    return {name: hashlib.sha256(out).hexdigest() for name, out in sorted(outputs.items())}


def _combined(digests: Dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


def reference_digests() -> Dict[str, str]:
    path = env.BENCH_DIR / "digests.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}


class Outcome:
    """What one run of a workload observed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.latency: Dict[str, List[float]] = {}
        self.busy_s = 0.0
        self.raw_busy_s = 0.0
        self.outputs: Dict[str, bytes] = {}
        # One entry per attempt: (op, root span index or None, facts if it
        # completed and passed its check, else None).
        self.runs: List[Tuple[object, Optional[int], Optional[dict]]] = []
        self.reported: set = set()

    def record(self, op, raw_s: float, scaled_s: float) -> None:
        """The latency of one attempt, failed or not."""
        self.raw_busy_s += raw_s
        self.busy_s += scaled_s
        self.latency.setdefault(op.name, []).append(scaled_s)

    def fail(self, op, stage: str, exc: BaseException) -> None:
        """Count a failed operation; describe the first failure of each on stderr."""
        self.failed += 1
        if op.name not in self.reported:
            self.reported.add(op.name)
            print(f"{op.name}: {stage}: {type(exc).__name__}: {exc}", file=sys.stderr)
            if stage == "check":
                traceback.print_exception(exc, file=sys.stderr)


def run_op(op, outcome: Outcome, tracer=None) -> None:
    """Attempt one operation: time ``run``, then check its output (untimed)."""
    outcome.attempted += 1
    arg = op.prepare()
    gc.collect()  # every operation starts from the same collector state, whatever ran before
    root = None
    if tracer is None:
        result, error, raw, scaled = clock.timed(op.run, arg)
    else:
        with tracer.root(f"op:{op.name}") as root:
            result, error, raw, scaled = clock.timed(op.run, arg, probe=False)
    outcome.record(op, raw, scaled)
    facts = None
    if error is not None:
        outcome.outputs.setdefault(op.name, f"raised {type(error).__name__}".encode())
        outcome.fail(op, "raised", error)
    else:
        try:
            if op.input_error is not None:
                raise op.input_error
            output, facts = op.check(result)
        except Exception as exc:  # a wrong output is counted, never fatal
            outcome.wrong += 1
            outcome.fail(op, "check", exc)
        else:
            outcome.outputs.setdefault(op.name, output)
    outcome.runs.append((op, root, facts))


def verify_inputs(ops) -> None:
    for op in ops:
        op.input_error = None
        try:
            op.verify_input()
        except Exception as exc:  # reported through every check of this op
            op.input_error = exc


def measure(workload: str, seed: int, seconds: float, trace: bool, setup_repeats: int) -> dict:
    env.load_triplane()
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    M = workloads.modules()
    workdir = env.OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for _ in range(setup_repeats):
            ops = None
            meter = clock.Meter()
            ops = workloads.setup(workload, M, workdir, meter)
            setup_times.append(meter.scaled_s)
        verify_inputs(ops)
        random.Random(f"order-{workload}-{seed}").shuffle(ops)

        outcome = Outcome()
        rounds = 0
        start = time.perf_counter()
        while True:
            t_round = time.perf_counter()
            for op in ops:
                run_op(op, outcome, tracer)
            rounds += 1
            now = time.perf_counter()
            if trace or (now - start) + (now - t_round) > seconds:
                break
        wall = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if tracer is not None:
            tracer.uninstall()

    result = {
        "workload": workload, "seed": seed, "rounds": rounds, "ops_per_round": len(ops),
        "round_s": wall / rounds, "raw_busy_s": outcome.raw_busy_s, "busy_s": outcome.busy_s,
        "digests": _digests(outcome.outputs),
        "correct": outcome.wrong == 0, "attempted": outcome.attempted, "failed": outcome.failed,
    }
    if trace:
        env.OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = env.OUT_DIR / f"trace-{workload}-seed{seed}.json.gz"
        tracer.write(path)
        result["trace_file"] = str(path.relative_to(env.ROOT))
        result["metrics"] = per_layer(tracer, outcome)
    else:
        result["metrics"] = end_to_end(workload, ops, outcome, setup_times)
    return result


def end_to_end(workload: str, ops, outcome: Outcome, setup_times) -> dict:
    small = [dt for name in {op.name for op in ops if op.cls == workloads.SMALL[workload]}
             for dt in outcome.latency[name]]
    large = outcome.latency.get(workloads.LARGE[workload], [])
    values = {
        "ops_per_s": (outcome.attempted - outcome.failed) / outcome.busy_s,
        "large_op_s": statistics.median(large),
        "small_op_s": statistics.median(small),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(tracer, outcome: Outcome) -> dict:
    """Per traced function: calls and self time; plus ratios of exact counts.

    The ratios count only operations that completed and passed their check.
    """
    calls, self_s = tracer.summary()
    metrics = {}
    for name in TRACED_NAMES:
        metrics[f"{name}.calls"] = {"value": calls.get(name, 0), "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_s.get(name, 0.0), "unit": "s"}

    by_root = tracer.counts_by_root()
    done = [(op.name, root, facts) for op, root, facts in outcome.runs if facts is not None]

    def spans(prefix: str, span: str) -> int:
        return sum(by_root.get(root, {}).get(span, 0) for name, root, _ in done
                   if name.startswith(prefix))

    def count(prefix: str, key: str = "") -> int:
        return sum(facts.get(key, 0) if key else 1 for name, _, facts in done
                   if name.startswith(prefix))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    verdicts = count("verdict:")
    insertions = count("saturate:", "insertions")
    ratios = {
        "saturate.insertions": (insertions, "count"),
        "saturate.drawings_per_insertion":
            (ratio(spans("saturate:", "drawing.Drawing"), insertions), "ratio"),
        "census.cells_per_verdict": (ratio(spans("verdict:", "census.cells"), verdicts), "ratio"),
        "drawing.validate_per_verdict":
            (ratio(spans("verdict:", "drawing.validate"), verdicts), "ratio"),
        "generators.drawings_per_output":
            (ratio(spans("generate:", "drawing.Drawing"), count("generate:")), "ratio"),
        "geometry.segment_relation_per_segment":
            (ratio(spans("generate:random", "geometry.segment_relation"),
                   count("generate:random", "segments")), "ratio"),
    }
    for name, (value, unit) in ratios.items():
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def report(result: dict) -> None:
    """Print the human-readable lines for one workload run."""
    print(f"workload {result['workload']} seed {result['seed']}: {result['rounds']} round(s) "
          f"of {result['ops_per_round']} ops, {result['round_s']:.3f} s wall per round; "
          f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    print(f"  time in operations: {result['raw_busy_s']:.3f} s wall, {result['busy_s']:.3f} s "
          f"at the reference speed (x{result['busy_s'] / result['raw_busy_s']:.3f})")
    ref = reference_digests()
    digests = result["digests"]
    differ = sorted(name for name, d in digests.items() if ref.get(name, d) != d)
    unknown = sum(1 for name in digests if name not in ref)
    print(f"  outputs sha256:{_combined(digests)}: {len(digests) - len(differ) - unknown} match "
          f"the reference, {unknown} have none, {len(differ)} differ"
          + (f": {', '.join(differ)}" if differ else ""))
    if "trace_file" in result:
        print(f"  spans written to {result['trace_file']}")
    for name, m in result["metrics"].items():
        print(f"  {name:45s} {m['value']:>14.6g} {m['unit']}")


def final_line(result: dict) -> str:
    return json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results, code = {}, 0
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        results[w] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        env.load_triplane()
    except (env.MissingSource, ImportError) as exc:
        print(f"cannot benchmark: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     1 if args.trace else SETUP_REPEATS)
    report(result)
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
