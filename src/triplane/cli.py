"""Command-line front end: validate, census, check, certify, generate, ingest, random.

Machine-readable JSON goes to stdout (sorted keys, compact, one trailing
newline); human diagnostics go to stderr.  Exit codes: 0 success/pass,
1 failed validation or failed checks, 2 usage, I/O, or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from typing import List, Optional

from .census import CensusError, census
from .certificate import (CertificateError, TARGETS, builtin_certificate,
                          verify_numeric, verify_symbolic)
from .constraints import ConstraintError, evaluate_constraints, density_residual
from .drawing import Drawing, TDRError, frac_to_str, parse_tdr, serialize_tdr, validate
from .generators import (BASIC_NAMES, GenerationError, gen_basic, gen_fig2,
                         gen_fig3, ingest_geometry, random_drawing)
from .geometry import SceneError, parse_scene
from .saturate import SaturateError, saturate


class _UsageError(Exception):
    """Bad invocation or unreadable/unparsable input (exit 2)."""


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _load(path: str, parse):
    """``parse`` of the file at ``path``; an unreadable file or a parse error is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise _UsageError(f"cannot read {path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    try:
        return parse(text)
    except (TDRError, SceneError) as exc:
        raise _UsageError(f"{path}: {exc}") from None


def _verdict_drawing(args) -> Drawing:
    """The drawing of ``args.file`` that a verdict is taken on, saturated if ``--saturate`` is given.

    It is not validated here: ``saturate``, the census and ``verify_numeric``
    each refuse an invalid drawing, with its failing checks named (exit 1).
    """
    d = _load(args.file, parse_tdr)
    return saturate(d) if args.saturate else d


def _cmd_validate(args) -> int:
    report = validate(_load(args.file, parse_tdr))
    _emit(report.as_dict())
    return 0 if report.valid else 1


def _cmd_census(args) -> int:
    _emit(census(_verdict_drawing(args)).counts)
    return 0


def _cmd_check(args) -> int:
    d = _verdict_drawing(args)
    rep = census(d)
    creport = evaluate_constraints(rep.counts, saturated=rep.saturated)
    out = creport.as_dict()
    out["density_residuals"] = {str(t): frac_to_str(density_residual(d, t)) for t in (1, 2, 5)}
    _emit(out)
    return 0 if creport.all_pass else 1


def _cmd_certify(args) -> int:
    if args.symbolic:
        if args.file is not None:
            raise _UsageError("certify --symbolic takes no drawing file")
        if args.saturate:
            raise _UsageError("certify --symbolic takes no --saturate")
        residual = verify_symbolic(builtin_certificate(args.target))
        _emit({"target": args.target,
               "residual": {v: frac_to_str(c) for v, c in residual.items()}})
        return 0 if not residual else 1
    if args.file is None:
        raise _UsageError("certify needs a drawing file (or --symbolic)")
    d = _verdict_drawing(args)
    _emit(verify_numeric(d, builtin_certificate(args.target)).as_dict())
    return 0


def _cmd_generate(args) -> int:
    if args.family == "fig3":
        d = gen_fig3(args.layers)
    elif args.family == "fig2":
        d = gen_fig2(args.rings)
    else:
        d = gen_basic(args.name)
    sys.stdout.write(serialize_tdr(d))
    return 0


def _cmd_ingest(args) -> int:
    sys.stdout.write(serialize_tdr(ingest_geometry(_load(args.file, parse_scene))))
    return 0


def _cmd_random(args) -> int:
    sys.stdout.write(serialize_tdr(random_drawing(args.n, args.budget, args.seed)))
    return 0


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog="triplane",
        description="Censuses, counting constraints, and exact LP certificates "
                    "for drawings of graphs with at most three crossings per edge.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="run the eight structural checks on a drawing")
    sp.add_argument("file", help="drawing JSON file")
    sp.set_defaults(fn=_cmd_validate)

    sp = sub.add_parser("census", help="emit the full census counts vector")
    sp.add_argument("file")
    sp.add_argument("--saturate", action="store_true", help="saturate before counting")
    sp.set_defaults(fn=_cmd_census)

    sp = sub.add_parser("check", help="evaluate the 21 counting rows (+ density identity)")
    sp.add_argument("file")
    sp.add_argument("--saturate", action="store_true")
    sp.set_defaults(fn=_cmd_check)

    sp = sub.add_parser("certify", help="verify an LP-certificate bound")
    sp.add_argument("file", nargs="?", default=None)
    sp.add_argument("--target", choices=TARGETS, required=True)
    sp.add_argument("--saturate", action="store_true")
    sp.add_argument("--symbolic", action="store_true",
                    help="check the coefficient column symbolically (no drawing)")
    sp.set_defaults(fn=_cmd_certify)

    sp = sub.add_parser("generate", help="emit a built-in drawing as JSON")
    gsub = sp.add_subparsers(dest="family", required=True)
    g3 = gsub.add_parser("fig3", help="hexagonal cylinder family (5.5n-15 edges)")
    g3.add_argument("--layers", type=int, required=True)
    g2 = gsub.add_parser("fig2", help="pentagonal rings family (2-plane)")
    g2.add_argument("--rings", type=int, required=True)
    gb = gsub.add_parser("basic", help="small named instances")
    gb.add_argument("name", choices=list(BASIC_NAMES))
    sp.set_defaults(fn=_cmd_generate)

    sp = sub.add_parser("ingest", help="exactly intersect a straight-line scene")
    sp.add_argument("file", help="scene JSON file ({points, segments})")
    sp.set_defaults(fn=_cmd_ingest)

    sp = sub.add_parser("random", help="seeded random geometric drawing")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--budget", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.set_defaults(fn=_cmd_random)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command and return its exit code; the cyclic collector is paused while it runs
    (a command makes no reference cycles, so a collection would only cost time), then left as found."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.fn(args)
    except (_UsageError, GenerationError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (SceneError, SaturateError, CensusError, ConstraintError,
            CertificateError, TDRError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
