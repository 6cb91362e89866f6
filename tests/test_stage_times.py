"""``tools/stage_times.py`` on the smallest fig3 and fig2, a small n-gon and small random scenes, one repeat."""

import importlib.util
from pathlib import Path

import pytest

from triplane import generators
from triplane.combmap import Rotations
from triplane.drawing import serialize_tdr
from triplane.generators import gen_fig2, gen_fig3

_SPEC = importlib.util.spec_from_file_location(
    "stage_times", Path(__file__).resolve().parent.parent / "tools" / "stage_times.py")
stage_times = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(stage_times)


def test_times_every_stage_and_command_of_fig3_l1(tmp_path):
    text = serialize_tdr(gen_fig3(1))
    path = tmp_path / "fig3-L1.json"
    path.write_text(text)
    stages = stage_times.stage_times(text)
    commands = stage_times.command_times(str(path))
    assert list(stages) == list(stage_times.STAGES)
    assert list(commands) == [" ".join(argv) for argv in stage_times.COMMANDS]
    assert all(ms >= 0 for ms in [*stages.values(), *commands.values()])


def test_a_drawing_that_is_not_saturated_still_times_its_constraint_report():
    stages = stage_times.stage_times(serialize_tdr(gen_fig2(1)))
    assert list(stages) == [s for s in stage_times.STAGES if s != "verify_numeric"]
    assert stages["as_dict"] >= 0


def test_times_every_saturate_stage_of_a_small_ngon():
    stages = stage_times.saturate_times(stage_times.ngon_tdr(8))
    assert list(stages) == list(stage_times.SATURATE_STAGES)
    assert all(ms >= 0 for ms in stages.values())
    whole, *parts = stages.values()
    assert stage_times.insertions(stages) == pytest.approx(whole - sum(parts))


def test_saturate_inputs_are_perfbenchs():
    names = [name for name, _ in stage_times.saturate_inputs()]
    assert names == [f"ngon-{n}" for n in stage_times.SATURATE_NGONS] + [
        f"random-s{s}" for s in stage_times.SATURATE_RANDOM_SEEDS]


@pytest.mark.parametrize("make", [lambda: gen_fig3(1), lambda: gen_fig2(1)], ids=["fig3-L1", "fig2-R1"])
def test_times_every_producer_stage_and_puts_the_producers_back(make):
    before = (generators.add_chords_in_face, generators.Drawing, Rotations.__dict__["lists"])
    stages = stage_times.generate_times(make)
    assert list(stages) == list(stage_times.GENERATE_STAGES)
    assert all(ms > 0 for ms in stages.values())
    assert (generators.add_chords_in_face, generators.Drawing, Rotations.__dict__["lists"]) == before
    _, *parts, whole = stages.values()
    assert stage_times.ring_layout(stages) == pytest.approx(whole - sum(parts))


def test_generate_inputs_are_perfbenchs():
    names = [name for name, _ in stage_times.generate_inputs()]
    assert names == [f"fig3-L{L}" for L in stage_times.GENERATE_FIG3] + [
        f"fig2-R{R}" for R in stage_times.GENERATE_FIG2]


def test_times_every_random_scene_stage_and_puts_the_producers_back():
    before = (generators._Arrangement.add, generators._Arrangement.darts, generators._drawing_of, generators.Drawing)
    stages = stage_times.random_times(8, 16, 0)
    assert list(stages) == list(stage_times.RANDOM_STAGES)
    assert all(ms > 0 for ms in stages.values())
    assert stages["_Arrangement.darts"] + stages["output Drawing"] < stages["_drawing_of"]
    assert (generators._Arrangement.add, generators._Arrangement.darts, generators._drawing_of,
            generators.Drawing) == before


def test_a_random_scene_that_raises_is_printed_as_raised(capsys):
    stage_times.print_random("random-n16-s33", (16, 48, 33), 1)
    stage_times.print_random("random-n8-s0", (8, 16, 0), 1)
    first, second, *rows = capsys.readouterr().out.splitlines()
    assert first == "generate random-n16-s33: raised GenerationError: could not connect the scene for n=16, seed=33"
    assert second == "generate random-n8-s0:"
    assert [row.split()[0] for row in rows] == [stage.split()[0] for stage in stage_times.RANDOM_STAGES]


def test_random_inputs_are_perfbenchs():
    assert stage_times.random_inputs() == [
        (f"random-n{stage_times.RANDOM_N}-s{s}", (stage_times.RANDOM_N, stage_times.RANDOM_BUDGET, s))
        for s in stage_times.GENERATE_RANDOM_SEEDS]
