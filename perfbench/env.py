"""Locate the checkout and import ``triplane`` from its ``src/`` tree.

The benchmark must measure the source it ships with, never a copy of the
package installed elsewhere, so ``load_triplane`` refuses a ``triplane``
that does not live under ``<root>/src``.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


class MissingSource(RuntimeError):
    """The checkout has no importable ``src/triplane`` package."""


def load_triplane():
    """Import ``triplane`` from ``<root>/src`` and return the package."""
    if not (SRC / "triplane" / "__init__.py").is_file():
        raise MissingSource(f"no triplane package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import triplane

    origin = Path(triplane.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise MissingSource(f"triplane was imported from {origin}, not from {SRC}")
    return triplane
