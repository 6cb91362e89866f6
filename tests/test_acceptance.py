"""End-to-end acceptance gate.

Every arithmetic assertion is exact (tolerance 0).  The corpus is the
basic fixture set (valid members), both ring families, and 200 seeded
random drawings.  Two tests are expected to fail honestly:

* the symbolic certificate columns do not cancel exactly (criterion 2);
  their residuals are nonnegative over census counts, so the bounds they
  certify still hold, but residual-zero as stated does not;
* row 3.E is violated by saturated drawings in the corpus (criterion 3);
  tests/test_constraints.py pins a minimal 6-vertex witness.
"""

import hashlib
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from triplane.census import census
from triplane.certificate import builtin_certificate, verify_numeric, verify_symbolic
from triplane.constraints import ROWS, density_residual, evaluate_constraints
from triplane.drawing import serialize_tdr, stats, validate
from triplane.generators import (
    build_random_scene,
    gen_basic,
    gen_fig2,
    gen_fig3,
    random_drawing,
)
from triplane.saturate import is_3saturated, saturate

import util
from test_constraints import EXPECTED_ROWS

RANDOM_N, RANDOM_BUDGET, RANDOM_SEEDS = 10, 30, range(200)

# lens-bad is the deliberately invalid sample and stays out: every
# criterion below quantifies over drawings, which it is not.
BASIC_VALID = ("k2", "k3", "path3", "x1", "fig3a-micro", "fig4-flower")

CORPUS_NAMES = (
    [f"basic-{name}" for name in BASIC_VALID]
    + ["fig2-R1", "fig2-R2"]
    + [f"fig3-L{layers}" for layers in (1, 2, 3, 4)]
    + [f"rand-{seed:03d}" for seed in RANDOM_SEEDS]
)


@lru_cache(maxsize=None)
def corpus_drawing(name):
    kind, _, arg = name.partition("-")
    if kind == "basic":
        return gen_basic(arg)
    if kind == "fig2":
        return gen_fig2(int(arg[1:]))
    if kind == "fig3":
        return gen_fig3(int(arg[1:]))
    return random_drawing(RANDOM_N, RANDOM_BUDGET, int(arg))


@lru_cache(maxsize=None)
def corpus_census(name):
    return census(corpus_drawing(name))


@lru_cache(maxsize=None)
def saturated(name):
    d = corpus_drawing(name)
    return d if is_3saturated(d) else saturate(d)


@lru_cache(maxsize=None)
def saturated_census(name):
    return census(saturated(name))


# -- criterion 1: the density identity holds for every t -----------------


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_criterion1_density_identity(name):
    d = corpus_drawing(name)
    for t in (1, 2, 5, Fraction(7, 3), Fraction(-3, 2)):
        assert density_residual(d, t) == 0


def test_corpus_bytes_are_pinned():
    """The producers' output is fixed: one digest over every corpus TDR."""
    digest = hashlib.sha256()
    for name in CORPUS_NAMES:
        digest.update(serialize_tdr(corpus_drawing(name)).encode())
    assert digest.hexdigest() == "5abc07dc5dcc942928f60354ee58960a5ee1dc85a08458fa65e6f579132daace"


# -- criterion 2: symbolic certificates (expected to fail honestly) ------


def retyped_residual(target):
    """Independent summation over the retyped row table."""
    cert = builtin_certificate(target)
    total = {}
    for rid, _, lhs, rhs, _ in EXPECTED_ROWS:
        for var, c in lhs.items():
            total[var] = total.get(var, Fraction(0)) + cert.coefficients[rid] * c
        for var, c in rhs.items():
            total[var] = total.get(var, Fraction(0)) - cert.coefficients[rid] * c
    tvar = "E" if target == "edges" else "X"
    total[tvar] = total.get(tvar, Fraction(0)) - 1
    total["Vm2"] = total.get("Vm2", Fraction(0)) + Fraction(11, 2)
    return {v: c for v, c in total.items() if c}


@pytest.mark.parametrize("target", ("edges", "crossings"))
def test_criterion2_symbolic_certificate(target):
    residual = verify_symbolic(builtin_certificate(target))
    assert residual == retyped_residual(target)  # library vs. independent sum
    printable = {v: str(c) for v, c in sorted(residual.items())}
    assert residual == {}, f"{target} residual is not identically zero: {printable}"


# -- criterion 3: the 21 counting rows on 200 random drawings ------------


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_criterion3_any_scope_rows_presaturation(seed):
    rep = corpus_census(f"rand-{seed:03d}")
    out = evaluate_constraints(rep.counts, saturated=False)
    bad = [r.id for r in out.rows if r.applicable and not r.passed]
    assert not bad, f"seed {seed}: failing any-scope rows {bad}"


def test_criterion3_all_rows_after_saturation():
    failures = Counter()
    exemplar = {}
    for seed in RANDOM_SEEDS:
        name = f"rand-{seed:03d}"
        out = evaluate_constraints(saturated_census(name).counts, saturated=True)
        for r in out.rows:
            if r.applicable and not r.passed:
                failures[r.id] += 1
                exemplar.setdefault(r.id, (seed, r.slack))
    assert not failures, (
        f"rows failing on saturated random drawings: {dict(failures)}; "
        f"first witnesses (seed, slack): {exemplar}")


# -- criterion 4: the tight family ----------------------------------------


@pytest.mark.parametrize("layers", (1, 2, 3, 4))
def test_criterion4_tight_family(layers):
    d = gen_fig3(layers)
    st = stats(d)
    n = st.n
    assert n == 6 * (layers + 1)
    assert Fraction(st.E) == Fraction(11, 2) * n - 15
    assert Fraction(st.X) == Fraction(11, 2) * n - 21
    d = saturate(d)
    crossings = verify_numeric(d, builtin_certificate("crossings"))
    edges = verify_numeric(d, builtin_certificate("edges"))
    bound = Fraction(11, 2) * (n - 2)
    assert crossings.value <= bound
    assert crossings.total_slack == 10
    assert edges.value <= bound


# -- criterion 5: trails partition the inner segments ---------------------


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_criterion5_trail_partition(name):
    d = corpus_drawing(name)
    rep = corpus_census(name)
    seen = [s for t in rep.trails for s in t.interior_segments]
    assert sum(len(t.interior_segments) for t in rep.trails) == (
        rep.counts["E2"] + 2 * rep.counts["E3"])
    assert len(seen) == len(set(seen))
    inner = {(e.id, i)
             for e in d.edges.values()
             for i in range(1, len(e.crossings))}
    assert set(seen) == inner


# -- criterion 6: size and Euler identities --------------------------------


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_criterion6_structural_identities(name):
    rep = corpus_census(name)
    c = rep.counts
    assert sum(r.size for r in rep.cells) == 4 * (c["E"] + c["X"])
    assert c["cells"] == 2 - c["n"] - c["X"] + c["E"] + 2 * c["X"]


# -- criterion 7: the saturation contract ----------------------------------


SATURABLE = [name for name in CORPUS_NAMES if name != "basic-k2"]


@pytest.mark.parametrize("name", SATURABLE)
def test_criterion7_saturation_contract(name):
    d = corpus_drawing(name)
    out = saturated(name)
    assert is_3saturated(out)
    assert sorted(out.vertices) == sorted(d.vertices)
    assert stats(out).X == stats(d).X
    assert serialize_tdr(saturate(out)) == serialize_tdr(out)


def test_criterion7_path_micro_instance():
    out = saturate(corpus_drawing("basic-path3"))
    assert is_3saturated(out)
    assert sorted(out.vertices) == ["a", "b", "c"]
    assert {tuple(sorted(e.ends)) for e in out.edges.values()} == {
        ("a", "b"), ("a", "c"), ("b", "c")}
    assert all(not e.crossings for e in out.edges.values())
    rep = census(out)
    assert rep.counts["cells"] == 2
    assert all(r.size == 6 for r in rep.cells)


# -- criterion 8: the geometry oracle ---------------------------------------


@pytest.mark.parametrize("seed", range(50))
def test_criterion8_geometry_oracle(seed):
    scene = build_random_scene(9, 18, seed)
    from triplane.generators import ingest_geometry
    d = ingest_geometry(scene)
    assert stats(d).X == util.brute_force_crossings(scene)
    assert validate(d).valid


# -- criterion 9: structurally impossible trail types -----------------------


def test_criterion9_zero_trail_types():
    for name in CORPUS_NAMES:
        counts = corpus_census(name).counts
        assert counts["T_VTRI_VTRI"] == 0, name
        assert counts["T_VTRI_XTRI"] == 0, name
    for name in SATURABLE:
        counts = saturated_census(name).counts
        assert counts["T_VTRI_VTRI"] == 0, name
        assert counts["T_VTRI_XTRI"] == 0, name
