"""Tests of the independent output checker and of the tracer.

Run from the repository root with ``python3 -m unittest discover -s perfbench``.
"""

from __future__ import annotations

import importlib
import io
import json
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checker
import env
import workloads

tp = env.load_triplane()
cli = importlib.import_module("triplane.cli")


def tdr(drawing) -> checker.Tdr:
    return checker.Tdr(tp.serialize_tdr(drawing))


def edit(drawing, change) -> checker.Tdr:
    """The drawing's JSON after ``change(obj)`` mutates it."""
    obj = json.loads(tp.serialize_tdr(drawing))
    change(obj)
    return checker.Tdr(json.dumps(obj))


class ValidityTest(unittest.TestCase):
    def test_accepts_fig3_l1(self):
        t = tdr(tp.gen_fig3(1))
        faces = checker.check_valid(t)
        checker.check_filled(t, faces)
        checker.check_fig3(t, 1)

    def test_rejects_lens_bad(self):
        with self.assertRaisesRegex(checker.CheckFailure, "lens"):
            checker.check_valid(tdr(tp.gen_basic("lens-bad")))

    def test_rejects_crossing_on_one_edge(self):
        def drop_crossing(obj):
            edge = next(e for e in obj["edges"] if e["crossings"])
            edge["crossings"] = edge["crossings"][1:]
        with self.assertRaises(checker.CheckFailure):
            checker.check_valid(edit(tp.gen_fig3(1), drop_crossing))

    def test_rejects_swapped_rotation(self):
        def swap(obj):
            rot = obj["rotations"]["u0p0"]
            rot[0], rot[1] = rot[1], rot[0]
        with self.assertRaisesRegex(checker.CheckFailure, "V - S"):
            checker.check_valid(edit(tp.gen_fig3(1), swap))

    def test_rejects_four_crossings(self):
        t = tdr(tp.gen_fig3(1))
        eid = next(e for e, (_, xs) in t.edges.items() if len(xs) == 3)
        ends, xs = t.edges[eid]
        t.edges[eid] = (ends, xs + ("extra",))
        with self.assertRaisesRegex(checker.CheckFailure, "4 crossings"):
            checker.check_valid(t)


class ClosedFormTest(unittest.TestCase):
    def test_fig3_wrong_layers(self):
        with self.assertRaises(checker.CheckFailure):
            checker.check_fig3(tdr(tp.gen_fig3(1)), 2)

    def test_fig2_counts(self):
        for rings in (1, 2, 3):
            checker.check_fig2(tdr(tp.gen_fig2(rings)), rings)
        with self.assertRaises(checker.CheckFailure):
            checker.check_fig2(tdr(tp.gen_fig2(2)), 3)

    def test_saturated_ngon(self):
        before = checker.Tdr(workloads.ngon_tdr(8))
        with self.assertRaisesRegex(checker.CheckFailure, "share a face"):
            checker.check_filled(before, checker.check_valid(before))
        after = tdr(tp.saturate(tp.parse_tdr(workloads.ngon_tdr(8))))
        self.assertEqual(checker.check_saturation(before, after), 2 * 8 - 6)
        checker.check_saturated_ngon(after, 8)

    def test_saturation_must_keep_input(self):
        d = tp.random_drawing(10, 20, 3)
        before = tdr(d)
        after = tdr(tp.saturate(d))
        checker.check_saturation(before, after)
        eid = next(iter(before.edges))
        del after.edges[eid]
        with self.assertRaises(checker.CheckFailure):
            checker.check_saturation(before, after)


class RandomSceneTest(unittest.TestCase):
    def test_brute_force_matches(self):
        scene = tp.build_random_scene(10, 25, 4)
        t = tdr(tp.ingest_geometry(scene))
        self.assertGreater(t.num_crossings, 0)
        checker.check_random_scene(t, scene.points, scene.segments)

    def test_missing_segment_rejected(self):
        scene = tp.build_random_scene(10, 25, 4)
        t = tdr(tp.ingest_geometry(scene))
        with self.assertRaises(checker.CheckFailure):
            checker.check_random_scene(t, scene.points, scene.segments[:-1])


class VerdictTest(unittest.TestCase):
    def verdict(self, drawing):
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "d.json")
            Path(path).write_text(tp.serialize_tdr(drawing), encoding="utf-8")
            outs = []
            for argv in (["check", path], ["certify", path, "--target", "edges"],
                         ["certify", path, "--target", "crossings"]):
                out = io.StringIO()
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    rc = cli.main(argv)
                outs.append((rc, out.getvalue()))
        return outs

    def test_fig3_verdict(self):
        d = tp.gen_fig3(1)
        (rc, chk), edges, crossings = self.verdict(d)
        self.assertEqual(rc, 1)  # row 3.E fails on every fig3 member
        checker.check_verdict(tdr(d), rc, chk, {"edges": edges, "crossings": crossings}, fig3=True)

    def test_tampered_slack_rejected(self):
        d = tp.gen_fig3(1)
        (rc, chk), edges, crossings = self.verdict(d)
        cert = json.loads(edges[1])
        cert["certified_slack"] = "5/1"
        with self.assertRaisesRegex(checker.CheckFailure, "certified_slack"):
            checker.check_verdict(tdr(d), rc, chk, {"edges": (0, json.dumps(cert)),
                                                    "crossings": crossings}, fig3=True)

    def test_wrong_exit_code_rejected(self):
        d = tp.gen_fig3(1)
        (rc, chk), edges, crossings = self.verdict(d)
        with self.assertRaisesRegex(checker.CheckFailure, "check exited"):
            checker.check_verdict(tdr(d), 0, chk, {"edges": edges, "crossings": crossings},
                                  fig3=True)


class TracerTest(unittest.TestCase):
    def traced_counts(self):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            d = tp.parse_tdr(tp.serialize_tdr(tp.gen_fig3(1)))  # outside any root: not recorded
            with tracer.root("op"):
                tp.saturate(d)
        finally:
            tracer.uninstall()
        return tracer

    def test_counts_repeat_and_originals_restored(self):
        a, b = self.traced_counts(), self.traced_counts()
        self.assertEqual(a.summary()[0], b.summary()[0])
        calls, self_s = a.summary()
        self.assertEqual(calls["op"], 1)
        self.assertEqual(calls["saturate.saturate"], 1)
        self.assertGreater(calls["census.cells"], 0)
        self.assertNotIn("drawing.parse_tdr", calls)
        self.assertTrue(all(v >= 0 for v in self_s.values()))
        self.assertFalse(hasattr(tp.saturate, "__wrapped__"))
        self.assertFalse(hasattr(tp.Drawing.__init__, "__wrapped__"))


if __name__ == "__main__":
    unittest.main()
