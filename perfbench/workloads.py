"""The benchmark's three workloads and their operations.

Each ``setup_*`` function generates the workload's inputs with triplane,
runs one warm-up operation of each kind on the smallest input of that kind
in the mix, and returns the operations of one round.  Set-up time is the
sum of its steps, each timed through ``meter.call`` (``clock.Meter``).
Operations call triplane through module attributes looked up at call
time, so the tracer's wrappers are seen.  An operation is timed
around ``run`` only; ``prepare`` (untimed) makes its argument and
``check`` (untimed) verifies the output with the independent checker and
returns the bytes that go into the output digest plus counts used by the
traced run's ratios.
"""

from __future__ import annotations

import importlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, List, Optional, Tuple

import checker

RANDOM_N, RANDOM_BUDGET = 24, 72
CERTIFY_FIG3 = (4, 16, 32)
CERTIFY_FIG2 = (2, 8)
CERTIFY_RANDOM_SEEDS = (0, 1, 2)
SATURATE_NGONS = (50, 100, 200)
SATURATE_RANDOM_SEEDS = tuple(range(6))
GENERATE_RANDOM_SEEDS = tuple(range(20))   # seed 15 hits the connectivity-repair fault
GENERATE_RANDOM40_SEEDS = (0, 1)
GENERATE_FIG3 = (8, 32)
GENERATE_FIG2 = (8,)

# The operation whose median latency is large_op_s, and the kind of the
# smallest input class, whose pooled median latency is small_op_s.
LARGE = {"certify": "verdict:fig3-L32", "saturate": "saturate:ngon-200",
         "generate": "generate:fig3-L32"}
SMALL = {"certify": "fig2-R2", "saturate": "random", "generate": "random24"}

# Operations that run three times per round.  A saturate or generate round
# is longer than a run, and one sample of an operation still spreads by
# 10-15% after scaling (see clock.py), so these get three samples per run;
# certify runs several rounds instead.
REPEATED = {"saturate": ("saturate:ngon-200", "saturate:random-"),
            "generate": ("generate:fig3-L32",)}
REPEATS = 3


def modules() -> SimpleNamespace:
    return SimpleNamespace(**{m: importlib.import_module(f"triplane.{m}")
                              for m in ("cli", "drawing", "generators", "saturate")})


class Op:
    """One benchmark operation; ``cls`` names its input class."""

    def __init__(self, name: str, cls: str, run: Callable, check: Callable,
                 prepare: Optional[Callable] = None, verify_input: Optional[Callable] = None):
        self.name = name
        self.cls = cls
        self.run = run
        self.check = check
        self.prepare = prepare or (lambda: None)
        self.verify_input = verify_input or (lambda: None)


# -- certify -------------------------------------------------------------------

_VERDICT_ARGV = (("check",), ("certify", "--target", "edges"), ("certify", "--target", "crossings"))


def _verdict(M, path: str) -> List[Tuple[int, str]]:
    """``triplane check F`` and both ``certify`` targets, stdout captured."""
    outs = []
    for argv in _VERDICT_ARGV:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = M.cli.main([argv[0], path, *argv[1:]])
        outs.append((rc, out.getvalue()))
    return outs


def _verdict_op(M, name: str, path: Path, text: str, family: str, param: int) -> Op:
    state = {}

    def verify_input():
        t = checker.Tdr(text)
        checker.check_filled(t, checker.check_valid(t))
        if family == "fig3":
            checker.check_fig3(t, param)
        elif family == "fig2":
            checker.check_fig2(t, param)
        state["tdr"] = t

    def check(outs):
        (rc, chk), edges, crossings = outs
        checker.check_verdict(state["tdr"], rc, chk, {"edges": edges, "crossings": crossings},
                              fig3=family == "fig3")
        return "".join(f"{rc}\n{out}" for rc, out in outs).encode(), {}

    return Op(f"verdict:{name}", name if family != "random" else "random",
              lambda _: _verdict(M, str(path)), check, verify_input=verify_input)


def setup_certify(M, workdir: Path, meter) -> List[Op]:
    gen = M.generators
    inputs = [(f"fig3-L{L}", meter.call(gen.gen_fig3, L), "fig3", L) for L in CERTIFY_FIG3]
    inputs += [(f"fig2-R{R}", meter.call(gen.gen_fig2, R), "fig2", R) for R in CERTIFY_FIG2]
    for s in CERTIFY_RANDOM_SEEDS:
        drawing = meter.call(gen.random_drawing, RANDOM_N, RANDOM_BUDGET, s)
        inputs.append((f"random-s{s}", meter.call(M.saturate.saturate, drawing), "random", s))
    ops = []
    for name, drawing, family, param in inputs:
        path = workdir / f"{name}.json"
        text = meter.call(M.drawing.serialize_tdr, drawing)
        meter.call(path.write_text, text, "utf-8")
        ops.append(_verdict_op(M, name, path, text, family, param))
    meter.call(_verdict, M, str(workdir / "fig2-R2.json"))
    return ops


# -- saturate ------------------------------------------------------------------

def ngon_tdr(n: int) -> str:
    """A convex n-gon with no chords: vertex i joins i+1 by edge e<i>."""
    edges = [{"id": f"e{i}", "ends": [f"v{i}", f"v{(i + 1) % n}"], "crossings": []}
             for i in range(n)]
    rotations = {f"v{i}": [{"edge": f"e{i}", "seg": 0, "dir": "fwd"},
                           {"edge": f"e{(i - 1) % n}", "seg": 0, "dir": "bwd"}]
                 for i in range(n)}
    return json.dumps({"vertices": [f"v{i}" for i in range(n)], "edges": edges,
                       "rotations": rotations}) + "\n"


def _saturate_op(M, name: str, cls: str, text: str, ngon: Optional[int]) -> Op:
    state = {}

    def verify_input():
        state["before"] = checker.Tdr(text)
        checker.check_valid(state["before"])

    def check(out):
        serialized = M.drawing.serialize_tdr(out)
        after = checker.Tdr(serialized)
        inserted = checker.check_saturation(state["before"], after)
        if ngon is not None:
            checker.check_saturated_ngon(after, ngon)
        return serialized.encode(), {"insertions": inserted}

    return Op(f"saturate:{name}", cls, lambda d: M.saturate.saturate(d), check,
              prepare=lambda: M.drawing.parse_tdr(text), verify_input=verify_input)


def setup_saturate(M, workdir: Path, meter) -> List[Op]:
    ops = [_saturate_op(M, f"ngon-{n}", f"ngon-{n}", ngon_tdr(n), n) for n in SATURATE_NGONS]
    for s in SATURATE_RANDOM_SEEDS:
        drawing = meter.call(M.generators.random_drawing, RANDOM_N, RANDOM_BUDGET, s)
        text = meter.call(M.drawing.serialize_tdr, drawing)
        ops.append(_saturate_op(M, f"random-s{s}", "random", text, None))
    meter.call(M.saturate.saturate, meter.call(M.drawing.parse_tdr, text))
    return ops


# -- generate ------------------------------------------------------------------

def _random_scene(M, n: int, budget: int, s: int):
    scene = M.generators.build_random_scene(n, budget, s)
    return scene, M.drawing.serialize_tdr(M.generators.ingest_geometry(scene))


def _random_op(M, n: int, budget: int, s: int, cls: str) -> Op:
    def check(result):
        scene, text = result
        checker.check_random_scene(checker.Tdr(text), scene.points, scene.segments)
        return text.encode(), {"segments": len(scene.segments)}

    return Op(f"generate:random-n{n}-s{s}", cls, lambda _: _random_scene(M, n, budget, s), check)


def _family_op(M, family: str, param: int) -> Op:
    gen = {"fig3": lambda: M.generators.gen_fig3(param),
           "fig2": lambda: M.generators.gen_fig2(param)}[family]
    closed_form = {"fig3": checker.check_fig3, "fig2": checker.check_fig2}[family]

    def check(text):
        t = checker.Tdr(text)
        checker.check_filled(t, checker.check_valid(t))
        closed_form(t, param)
        return text.encode(), {}

    label = f"{family}-{'L' if family == 'fig3' else 'R'}{param}"
    return Op(f"generate:{label}", label, lambda _: M.drawing.serialize_tdr(gen()), check)


def setup_generate(M, workdir: Path, meter) -> List[Op]:
    ops = [_random_op(M, RANDOM_N, RANDOM_BUDGET, s, "random24") for s in GENERATE_RANDOM_SEEDS]
    ops += [_random_op(M, 40, 120, s, "random40") for s in GENERATE_RANDOM40_SEEDS]
    ops += [_family_op(M, "fig3", L) for L in GENERATE_FIG3]
    ops += [_family_op(M, "fig2", R) for R in GENERATE_FIG2]
    gen = M.generators
    meter.call(_random_scene, M, RANDOM_N, RANDOM_BUDGET, GENERATE_RANDOM_SEEDS[0])
    meter.call(M.drawing.serialize_tdr, meter.call(gen.gen_fig3, min(GENERATE_FIG3)))
    meter.call(M.drawing.serialize_tdr, meter.call(gen.gen_fig2, min(GENERATE_FIG2)))
    return ops


def setup(workload: str, M, workdir: Path, meter) -> List[Op]:
    """Set the workload up; return the operations of one round."""
    ops = {"certify": setup_certify, "saturate": setup_saturate,
           "generate": setup_generate}[workload](M, workdir, meter)
    repeated = REPEATED.get(workload, ())
    return [op for op in ops for _ in range(REPEATS if op.name.startswith(repeated) else 1)]
