"""Acceptance criteria, one test and one pass/fail line per criterion."""

import random
import time
from dataclasses import replace

import pytest

from strandcheck.base import PolygonType, empty_path
from strandcheck.calculus import (
    Coherence,
    Counit,
    Diagram,
    Layer,
    Shriek,
    SquareInv,
    Star,
    Unit,
    cells,
    exchange_canonical,
    fiber,
    from_layers,
    identity_cells,
    single,
    star_lift,
    vcompose,
)
from strandcheck.cli import main
from strandcheck.descent import (
    _Names,
    builtin_descent_base,
    bundled_scripts,
    signature_for,
    verify_theorem,
)
from strandcheck.finmodel import (
    Family,
    free_algebra_env,
    interpret_diagram,
    make_instance,
    oracle_equal,
    random_family,
    random_instance,
)
from strandcheck.rewrite import (
    bc_expansion,
    confluence_probe,
    decide_fib_equal,
    normalize_fib,
    random_chi_diagram,
)

from exchange_oracle import swap_adjacent
from finmodel_oracle import identity_map


def _report(criterion: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


@pytest.fixture(scope="module")
def names():
    return _Names(builtin_descent_base())


def test_criterion_1_full_theorem_bundle(capsys):
    started = time.monotonic()
    code = main(["verify-benabou-roubaud"])
    elapsed = time.monotonic() - started
    out = capsys.readouterr().out
    ok = (code == 0
          and "theorem: Verified (13/13 scripts)" in out
          and "13/13 claims agree" in out
          and elapsed < 10.0)
    _report("1 (theorem bundle, 13 scripts, exit 0, under 10 s)", ok)


def test_criterion_2_confluence_probe():
    report = confluence_probe(signature_for(None), size=(5, 4),
                              samples=1000, seed=42)
    ok = (report.verdict == "Verified"
          and report.stats == {"samples": 1000, "violations": 0})
    _report("2 (unique normal forms, 1000 samples, zero violations)", ok)


def test_criterion_3_two_thinness_consistency():
    sig = signature_for(None)
    rng = random.Random(3)
    agreements = 0
    for i in range(500):
        d1 = random_chi_diagram(sig, rng, 5, 4)
        if i % 2 == 0:
            # a reshuffled presentation of the same diagram
            d2 = exchange_canonical(d1)
        else:
            d2 = random_chi_diagram(sig, rng, 5, 4)
        decided = decide_fib_equal(d1, d2)
        structural = normalize_fib(d1) == normalize_fib(d2)
        if decided == structural:
            agreements += 1
    _report("3 (2-thinness agrees with normal forms, 500/500 pairs)",
            agreements == 500)


def test_criterion_4_semantic_soundness():
    ok = True
    for script in bundled_scripts():
        report = oracle_equal(script.claim_lhs, script.claim_rhs,
                              inst_count=100, max_size=4, seed=7,
                              max_fiber=3)
        if report.stats != {"samples": 100, "mismatches": 0}:
            ok = False
            break
    _report("4 (oracle, 100 instances per verified claim, 0 mismatches)", ok)


def test_criterion_5_adjunction_and_bc_laws(names):
    eB, eA = fiber(names.B), fiber(names.f.dst)
    shriek_triangle = from_layers([
        Layer(identity_cells(eB), Unit(names.f), cells(eB, Shriek(names.f))),
        Layer(cells(eB, Shriek(names.f)), Counit(names.f),
              identity_cells(eA)),
    ])
    star_triangle = from_layers([
        Layer(cells(eA, Star(names.f)), Unit(names.f), identity_cells(eB)),
        Layer(identity_cells(eA), Counit(names.f), cells(eA, Star(names.f))),
    ])
    composites = [shriek_triangle, star_triangle]
    for square in (names.P1, names.P2):
        fwd, bwd = bc_expansion(square), single(SquareInv(square))
        composites.append(vcompose(fwd, bwd))
        composites.append(vcompose(bwd, fwd))
    rng = random.Random(5)
    checked = 0
    ok = True
    for _ in range(100):
        inst = random_instance(rng, 4)
        for d in composites:
            x = random_family(rng, inst, d.source.dom.obj, 3)
            m = interpret_diagram(d, inst, input_family=x)
            if m != identity_map(m.src):
                ok = False
        checked += 1
    _report("5 (triangle and comparison-inverse laws on "
            f"{checked} instances)", ok and checked == 100)


def test_criterion_6_canonicalization():
    sig = signature_for(None)
    rng = random.Random(6)
    ok = True
    for _ in range(1000):
        d = random_chi_diagram(sig, rng, 6, 4)
        canon = exchange_canonical(d)
        if exchange_canonical(canon) != canon:
            ok = False
            break
        if len(d.layers) > 6:
            continue
        # oracle: every exchange-reachable layer ordering canonicalizes
        # to the same representative
        seen = {d.layers}
        frontier = [d.layers]
        while frontier:
            cur = frontier.pop()
            if exchange_canonical(Diagram(d.source, d.target, cur)) != canon:
                ok = False
                frontier = []
                break
            for i in range(len(cur) - 1):
                sw = swap_adjacent(cur[i], cur[i + 1])
                if sw is None:
                    continue
                nxt = cur[:i] + sw + cur[i + 2:]
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if not ok:
            break
    _report("6 (canonical form idempotent and ordering-invariant, "
            "1000 diagrams)", ok)


def test_criterion_7_negative_controls(tmp_path, capsys):
    ok = True
    # corrupt one step diagram in each signature kind's scripts
    scripts = bundled_scripts()
    for victim in ("eta_trans", "F_DD1", "G_AC1"):
        modified = []
        for s in scripts:
            if s.name == victim:
                step0 = s.steps[0]
                wrong = replace(step0, result=s.claim_lhs)
                if wrong.result == step0.result:
                    wrong = replace(step0, result=s.claim_rhs)
                s = replace(s, steps=(wrong,) + tuple(s.steps[1:]))
            modified.append(s)
        report = verify_theorem(scripts=modified)
        if report.verdict != "Failed" or victim not in report.reason \
                or "step" not in report.reason:
            ok = False
    # unmarking the iterated kernel-pair square
    report = verify_theorem(unmark_square="P2")
    if report.verdict != "Failed" or "step" not in report.reason:
        ok = False
    # disabling the cocycle axiom
    report = verify_theorem(disabled_axioms=("DD2",))
    if report.verdict != "Failed" or "step" not in report.reason:
        ok = False
    # exit code 1 through the CLI on a corrupted exported file
    outdir = tmp_path / "bundle"
    assert main(["export-bundle", str(outdir)]) == 0
    path = outdir / "ta_bundle.strand"
    text = path.read_text()
    corrupt = text.replace(
        "step axiom TA1 fwd @ layers:0..2, strand:0, width:1 -> d1",
        "step axiom TA2 fwd @ layers:0..2, strand:0, width:1 -> d1", 1)
    path.write_text(corrupt)
    if corrupt == text or main(["check", str(outdir)]) != 1:
        ok = False
    capsys.readouterr()
    _report("7 (negative controls all fail naming the offending step)", ok)


def test_criterion_8_degenerate_coverage(names):
    empty = empty_path(names.B)
    chi = single(Coherence(PolygonType(empty, empty)))
    normal = normalize_fib(chi)
    ok = normal.layers == () and normal.source == normal.target
    lifted = star_lift(empty)
    ok = ok and len(lifted) == 0 and lifted.dom == fiber(names.B)
    inst = make_instance(("a",), (), {})
    b = inst.base.object_by_name("B")
    m = interpret_diagram(
        single(Unit(inst.base.arrow_by_name("delta"))), inst,
        input_family=Family(b, ()))
    ok = ok and m.components == {}
    env = free_algebra_env(random.Random(0), inst, 2)
    ok = ok and env is not None
    _report("8 (degenerate polygons, empty paths, empty instances)", ok)
