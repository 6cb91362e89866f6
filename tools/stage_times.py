"""Where one verdict, one saturation and one family build spend their time: raw ms per stage on perfbench's inputs.

Usage::

    python3 tools/stage_times.py [--repeats N]

From the root of a checkout, with its ``src`` put first on ``sys.path``.
The inputs are those of perfbench's ``certify`` workload, rebuilt with the
same generator calls from ``perfbench/workloads.py``'s own constants
(read, not copied): fig3 L = 4, 16, 32, fig2 R = 2, 8 and the saturated
random (24, 72) drawings of seeds 0-2.  For each input the
stages of one verdict run in order on one fresh ``parse_tdr`` of the
input's canonical text, so no per-``Drawing`` table carries over from one
repeat to the next:

- ``json.loads``: the JSON decode alone;
- ``parse_tdr``: the whole parse, that decode and ``Drawing(...)`` included;
- ``validate``: the validity report the verdicts keep (``Drawing._validation``);
- ``_classified``: the cell table;
- ``is_3saturated``: the filledness scan over the built cell table, whose
  answer the drawing keeps;
- ``_trails``, ``detect_configurations``: the trails and configurations,
  which read that answer (strict when the drawing is 3-saturated);
- ``census``: the whole census over the built cell table (it finds the
  trails and configurations again);
- ``evaluate_constraints``: the 21 rows on the census counts;
- ``verify_numeric``: the edge certificate over the built cell table;
- ``as_dict``: the JSON writes of the ``ConstraintReport`` and, when the
  drawing is 3-saturated, of the ``NumericReport``, both by the one report
  rule (``drawing.Report.as_dict``).

Then ``cli.main`` runs each verdict command once per repeat on a file of
the input, every stage included.

Then come the inputs of perfbench's ``saturate`` workload, rebuilt the
same way: the chord-free n-gons of ``SATURATE_NGONS`` (``ngon_tdr``) and
the random (24, 72) drawings of ``SATURATE_RANDOM_SEEDS``.  For each, on
fresh parses of its text:

- ``saturate``: the whole ``saturate``;
- ``input validate``, ``input cells + witnesses``: the input's validity
  report and its cell table with the scan for unfilled cells
  (``census._witnesses``), as ``saturate`` starts;
- ``output Drawing``, ``output validate``, ``is_3saturated``: the output
  rebuilt from its rotations as ``saturate`` ends, its validity report and
  its filledness decision;
- ``insertions``: the whole less those five, from their minima, so it
  holds the insertions and every face record, and takes the others' noise
  too.

Last come the producers of perfbench's ``generate`` workload: ``gen_fig3``
at each L of ``GENERATE_FIG3`` and ``gen_fig2`` at each R of
``GENERATE_FIG2``, each written by ``serialize_tdr`` as the workload's
operation writes it.  One run of the operation, untouched, gives
``whole``; a second run, with the stages below wrapped in timers for its
length, gives:

- ``chord fill``: every ``add_chords_in_face`` call, summed;
- ``Rotations.lists``: the store's rotations read back as dart tuples;
- ``output Drawing``: the one ``Drawing(...)`` built from them;
- ``serialize_tdr``: its canonical text;
- ``ring layout``: ``whole`` less those four, from their minima, so it
  holds the family's ring, spoke and face data and the numbered store of
  the rings and spokes (``generators._filled_rings`` before its fills),
  and takes the others' noise and their timers' cost too;

and ``json.loads`` of that text is the control of these stages.

Each figure is the minimum over the repeats, in raw wall milliseconds
(``time.perf_counter``); nothing is scaled, so compare figures taken on the
same machine only.  ``json.loads`` runs no code that any change touches, so
it is the control: a stage difference no larger than the two sides'
``json.loads`` difference decides nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "perfbench"))  # its modules import each other by bare name

from triplane import cli, generators  # noqa: E402
from triplane.combmap import Rotations  # noqa: E402
from triplane.census import _classified, _trails, _witnesses, census, detect_configurations  # noqa: E402
from triplane.certificate import builtin_certificate, verify_numeric  # noqa: E402
from triplane.constraints import evaluate_constraints  # noqa: E402
from triplane.drawing import Drawing, parse_tdr, serialize_tdr  # noqa: E402
from triplane.generators import gen_fig2, gen_fig3, random_drawing  # noqa: E402
from triplane.saturate import is_3saturated, saturate  # noqa: E402
from workloads import (CERTIFY_FIG2, CERTIFY_FIG3, CERTIFY_RANDOM_SEEDS,  # noqa: E402
                       GENERATE_FIG2, GENERATE_FIG3, RANDOM_BUDGET, RANDOM_N, SATURATE_NGONS, SATURATE_RANDOM_SEEDS,
                       _VERDICT_ARGV as COMMANDS, ngon_tdr)

STAGES = ("json.loads", "parse_tdr", "validate", "_classified", "is_3saturated", "_trails",
          "detect_configurations", "census", "evaluate_constraints", "verify_numeric", "as_dict")
SATURATE_STAGES = ("saturate", "input validate", "input cells + witnesses", "output Drawing",
                   "output validate", "is_3saturated")
GENERATE_STAGES = ("json.loads", "chord fill", "Rotations.lists", "output Drawing", "serialize_tdr", "whole")


def inputs() -> List[Tuple[str, str]]:
    """(name, canonical text) of each of perfbench's certify inputs, in its order."""
    out = [(f"fig3-L{L}", serialize_tdr(gen_fig3(L))) for L in CERTIFY_FIG3]
    out += [(f"fig2-R{R}", serialize_tdr(gen_fig2(R))) for R in CERTIFY_FIG2]
    out += [(f"random-s{s}", serialize_tdr(saturate(random_drawing(RANDOM_N, RANDOM_BUDGET, s))))
            for s in CERTIFY_RANDOM_SEEDS]
    return out


def saturate_inputs() -> List[Tuple[str, str]]:
    """(name, text) of each of perfbench's saturate inputs, in its order, as perfbench parses them."""
    out = [(f"ngon-{n}", ngon_tdr(n)) for n in SATURATE_NGONS]
    out += [(f"random-s{s}", serialize_tdr(random_drawing(RANDOM_N, RANDOM_BUDGET, s)))
            for s in SATURATE_RANDOM_SEEDS]
    return out


def generate_inputs() -> List[Tuple[str, Callable[[], Drawing]]]:
    """(name, producer) of each of perfbench's fig3 and fig2 generate operations, in its order."""
    out = [(f"fig3-L{L}", functools.partial(gen_fig3, L)) for L in GENERATE_FIG3]
    out += [(f"fig2-R{R}", functools.partial(gen_fig2, R)) for R in GENERATE_FIG2]
    return out


def _ms(fn: Callable, *args, **kwargs):
    """``fn(*args, **kwargs)`` and its raw wall time in ms."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, (time.perf_counter() - t0) * 1e3


def _paused(stages: Callable[[str], Dict[str, float]], text: str) -> Dict[str, float]:
    """``stages(text)`` with the cyclic collector paused, as ``cli.main`` pauses it."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return stages(text)
    finally:
        if collecting:
            gc.enable()


def stage_times(text: str) -> Dict[str, float]:
    """Each stage's raw ms for one verdict on a fresh parse of ``text``."""
    return _paused(_stages, text)


def saturate_times(text: str) -> Dict[str, float]:
    """Each ``SATURATE_STAGES`` stage's raw ms for the saturation of ``text``, on fresh parses."""
    return _paused(_saturate_stages, text)


def _stages(text: str) -> Dict[str, float]:
    ms: Dict[str, float] = {}
    _, ms["json.loads"] = _ms(json.loads, text)
    d, ms["parse_tdr"] = _ms(parse_tdr, text)
    _, ms["validate"] = _ms(d._validation)
    _, ms["_classified"] = _ms(_classified, d)
    _, ms["is_3saturated"] = _ms(is_3saturated, d)
    trails, ms["_trails"] = _ms(_trails, d)
    _, ms["detect_configurations"] = _ms(detect_configurations, d, trails)
    rep, ms["census"] = _ms(census, d)
    creport, ms["evaluate_constraints"] = _ms(evaluate_constraints, rep.counts, saturated=rep.saturated)
    reports = [creport]
    if rep.saturated:
        numeric, ms["verify_numeric"] = _ms(verify_numeric, d, builtin_certificate("edges"))
        reports.append(numeric)
    _, ms["as_dict"] = _ms(lambda: [r.as_dict() for r in reports])
    return ms


def _saturate_stages(text: str) -> Dict[str, float]:
    ms: Dict[str, float] = {}
    out, ms["saturate"] = _ms(saturate, parse_tdr(text))
    d = parse_tdr(text)
    _, ms["input validate"] = _ms(d._validation)
    _, ms["input cells + witnesses"] = _ms(lambda: list(_witnesses(d)))
    rebuilt, ms["output Drawing"] = _ms(Drawing, out.vertices, list(out.edges.values()), out.rotations)
    _, ms["output validate"] = _ms(rebuilt._validation)
    _, ms["is_3saturated"] = _ms(is_3saturated, rebuilt)
    return ms


def _timer(ms: Dict[str, float], stage: str, fn: Callable) -> Callable:
    """``fn``, adding the raw ms of each call to ``ms[stage]``."""
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            ms[stage] = ms.get(stage, 0.0) + (time.perf_counter() - t0) * 1e3
    return timed


def generate_times(make: Callable[[], Drawing]) -> Dict[str, float]:
    """Each ``GENERATE_STAGES`` stage's raw ms for ``serialize_tdr(make())``, as perfbench's operation runs it."""
    gc.collect()  # as perfbench collects before each operation
    _, whole = _ms(lambda: serialize_tdr(make()))
    ms = dict.fromkeys(GENERATE_STAGES[1:-2], 0.0)
    gc.collect()
    with contextlib.ExitStack() as stack:
        for name, stage in (("add_chords_in_face", "chord fill"), ("Drawing", "output Drawing")):
            stack.enter_context(mock.patch.object(generators, name, _timer(ms, stage, getattr(generators, name))))
        stack.enter_context(mock.patch.object(
            Rotations, "lists", property(_timer(ms, "Rotations.lists", Rotations.lists.fget))))
        d = make()
    text, ms["serialize_tdr"] = _ms(serialize_tdr, d)
    _, control = _ms(json.loads, text)
    return {"json.loads": control, **ms, "whole": whole}


def insertions(ms: Dict[str, float]) -> float:
    """The whole ``saturate`` of ``saturate_times`` figures less the other five stages."""
    return 2 * ms["saturate"] - sum(ms.values())


def ring_layout(ms: Dict[str, float]) -> float:
    """The ``whole`` of ``generate_times`` figures less its timed stages (all but ``json.loads``)."""
    return ms["whole"] - sum(ms[k] for k in GENERATE_STAGES[1:-1])


def command_times(path: str) -> Dict[str, float]:
    """The raw ms of one whole ``cli.main`` call of each verdict command on ``path``."""
    ms = {}
    for argv in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            _, ms[" ".join(argv)] = _ms(cli.main, [argv[0], path, *argv[1:]])
    return ms


def best(samples: List[Dict[str, float]]) -> Dict[str, float]:
    """The minimum of each key over the samples that have it."""
    return {k: min(s[k] for s in samples if k in s) for k in samples[0]}


def main(argv: Optional[Sequence[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeats", type=int, default=20, help="fresh parses per input (default 20)")
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats must be at least 1")
    print(f"raw ms, minimum of {args.repeats} fresh parse(s) per input")
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in inputs():
            path = Path(tmp) / f"{name}.json"
            path.write_text(text)
            stages = best([stage_times(text) for _ in range(args.repeats)])
            commands = best([command_times(str(path)) for _ in range(args.repeats)])
            print(f"{name}:")
            for k, v in {**stages, **commands}.items():
                print(f"  {k:<28}{v:9.3f}")
    for name, text in saturate_inputs():
        print(f"saturate {name}:")
        ms = best([saturate_times(text) for _ in range(args.repeats)])
        for k, v in {**ms, "insertions": insertions(ms)}.items():
            print(f"  {k:<28}{v:9.3f}")
    for name, make in generate_inputs():
        print(f"generate {name}:")
        ms = best([generate_times(make) for _ in range(args.repeats)])
        for k, v in {**ms, "ring layout": ring_layout(ms)}.items():
            print(f"  {k:<28}{v:9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
