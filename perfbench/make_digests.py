"""Remake the reference output digests in ``perfbench/digests.json``.

Usage::

    python3 perfbench/make_digests.py

It runs set-up once and one round of operations of each workload, untimed,
and records the sha256 of every operation's serialized output by operation
name.  Inputs do not depend on the base seed, so one round covers every
output.  A run compares its outputs against this file and reports the
ones that differ; a difference is not counted as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import sys

import env
import run


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    digests = {}
    for workload in run.WORKLOADS:
        result = run.measure(workload, 0, 0, trace=False, setup_repeats=1)
        digests.update(result["digests"])
        print(f"{workload}: {len(result['digests'])} outputs", file=sys.stderr)
    path = env.BENCH_DIR / "digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
