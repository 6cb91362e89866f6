"""Spans around calls into triplane's public functions, recorded from outside.

``Tracer.install`` replaces each traced function in every ``triplane.*``
module namespace that binds it, and patches classes for constructors and
methods; ``uninstall`` puts the originals back.  Spans are recorded only
inside a root span opened with ``Tracer.root``, so set-up and checking
code that calls the same functions stays out of the trace.  Spans (name,
parent, start, end) are kept in memory in flat arrays and written out once
with ``write``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

# Module -> traced names.  "Class" traces construction, "Class.method" a method.
TRACED: Dict[str, Tuple[str, ...]] = {
    "drawing": ("parse_tdr", "serialize_tdr", "Drawing", "validate"),
    "combmap": ("CombMap", "CombMap.faces", "CombMap.insert_edge_in_face"),
    "geometry": ("segment_relation", "orient", "ccw_sorted", "ccw_from"),
    "census": ("cells", "classify_cell", "extract_trails", "detect_configurations", "census"),
    "saturate": ("saturate", "filled_witness", "is_3saturated"),
    "constraints": ("evaluate_constraints", "density_residual"),
    "certificate": ("verify_numeric",),
    "generators": ("build_random_scene", "ingest_geometry", "add_chords_in_face",
                   "gen_fig3", "gen_fig2"),
    "cli": ("main",),
}

TRACED_NAMES: Tuple[str, ...] = tuple(
    f"{mod}.{name}" for mod, names in TRACED.items() for name in names)


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(time.perf_counter_ns())
        self.span_end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def root(self, name: str) -> Iterator[int]:
        """A top-level span (one benchmark operation); traced calls nest under it."""
        idx = self._open(self._name_id(name))
        try:
            yield idx
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def install(self) -> None:
        """Wrap every name in ``TRACED``; import the modules first."""
        for mod_name, names in TRACED.items():
            mod = importlib.import_module(f"triplane.{mod_name}")
            for name in names:
                span = f"{mod_name}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    self._patch(getattr(mod, cls_name), meth, span)
                elif isinstance(getattr(mod, name), type):
                    self._patch(getattr(mod, name), "__init__", span)
                else:
                    orig = getattr(mod, name)
                    wrapper = self._wrap(span, orig)
                    for mname, m in list(sys.modules.items()):
                        if mname != "triplane" and not mname.startswith("triplane."):
                            continue
                        for attr, val in list(vars(m).items()):
                            if val is orig:
                                self._undo.append((m, attr, orig))
                                setattr(m, attr, wrapper)

    def _patch(self, cls, attr: str, span: str) -> None:
        orig = cls.__dict__[attr]
        self._undo.append((cls, attr, orig))
        setattr(cls, attr, self._wrap(span, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------

    def roots(self) -> array:
        """For each span, the index of its root span."""
        root = array("i", bytes(4 * len(self.span_parent)))
        for i, p in enumerate(self.span_parent):
            root[i] = i if p < 0 else root[p]
        return root

    def summary(self) -> Tuple[Counter, Dict[str, float]]:
        """Per span name: call count and self time in seconds.

        Self time is a span's duration minus the durations of its direct
        children; calls nest strictly on one thread, so children never
        overlap.
        """
        n = len(self.span_start)
        child = array("q", bytes(8 * n))
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_ns[name] += self.span_end[i] - self.span_start[i] - child[i]
        return calls, {k: v / 1e9 for k, v in self_ns.items()}

    def counts_by_root(self) -> Dict[int, Counter]:
        """Per root span index, the number of spans of each name beneath it."""
        out: Dict[int, Counter] = {}
        root = self.roots()
        for i in range(len(self.span_start)):
            r = root[i]
            if r != i:
                out.setdefault(r, Counter())[self.names[self.span_name[i]]] += 1
        return out

    def write(self, path) -> None:
        """Write all spans as gzipped JSON columns; times are nanoseconds from the first span."""
        t0 = self.span_start[0] if self.span_start else 0
        obj = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start_ns": [s - t0 for s in self.span_start],
            "end_ns": [e - t0 for e in self.span_end],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(obj, fh, separators=(",", ":"))
            fh.write("\n")
