"""Rewrite rules, mates, normalization, oriented rewriting and the checker."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strandcheck
from strandcheck import calculus, rewrite
from strandcheck.base import (
    BasePresentation,
    PolygonType,
    compose_paths,
    empty_path,
    opposite,
    path_of,
)
from strandcheck.calculus import (
    Coherence,
    Counit,
    Diagram,
    Layer,
    Shriek,
    Signature,
    SquareInv,
    Star,
    Unit,
    cells,
    exchange_canonical,
    fiber,
    from_layers,
    identity_cells,
    identity_diagram,
    isotopic,
    shriek_lift,
    single,
    star_lift,
    vcompose,
    whisker,
)
from strandcheck.descent import signature_for
from strandcheck.errors import (
    BoundaryChanged,
    InvalidBinding,
    NotFibFragment,
    PatternNotFound,
    RegionNotPureChi,
    ResultMismatch,
    SideConditionFailed,
    UnprovenDependency,
)
from strandcheck.rewrite import (
    Axiom,
    Canonical,
    CheckerSession,
    DerivationBuilder,
    FibCoherence,
    PriorEquality,
    ProofScript,
    ProofStep,
    Region,
    Rule,
    absorb_closure,
    bc_expansion,
    binding_key,
    check_script,
    confluence_probe,
    decide_fib_equal,
    extract_block,
    instantiate_rule,
    mate2_expansion,
    mate_expansion,
    normal_forms,
    normalize_fib,
    oriented_successors,
    random_chi_diagram,
    splice_block,
)


def make_base():
    b = BasePresentation()
    A, B, Q, R = (b.object(n) for n in "ABQR")
    f = b.arrow("f", B, A)
    f1 = b.arrow("f1", Q, B)
    f2 = b.arrow("f2", Q, B)
    delta = b.arrow("delta", B, Q)
    pi1 = b.arrow("pi1", R, Q)
    pi2 = b.arrow("pi2", R, Q)
    pi = b.arrow("pi", R, Q)
    b.relate(path_of(f1, f), path_of(f2, f))
    b.relate(path_of(pi2, f2), path_of(pi1, f1))
    b.relate(path_of(pi, f1), path_of(pi2, f1))
    b.relate(path_of(pi, f2), path_of(pi1, f2))
    b.relate(path_of(delta, f1), empty_path(B))
    b.relate(path_of(delta, f2), empty_path(B))
    b.mark_square("P1", f1, f2, f, f)
    b.mark_square("P2", pi2, pi1, f2, f1)
    return b


@pytest.fixture(scope="module")
def base():
    return make_base()


@pytest.fixture(scope="module")
def sig(base):
    return Signature(base, extension=None)


def a(base, name):
    return base.arrow_by_name(name)


def square_pt(base):
    return PolygonType(path_of(a(base, "f1"), a(base, "f")),
                       path_of(a(base, "f2"), a(base, "f")))


# ---------------------------------------------------------------------------
# rule instances


def rule_bindings(base):
    """One representative binding per rule."""
    f, f1, f2 = a(base, "f"), a(base, "f1"), a(base, "f2")
    pi, pi1, pi2 = a(base, "pi"), a(base, "pi1"), a(base, "pi2")
    pt = square_pt(base)
    return [
        ("R1", {"pt": PolygonType(pt.top, pt.top)}),
        ("R2", {"pt1": pt, "pt2": opposite(pt)}),
        ("R3.1", {"pt": pt, "arrow": pi}),
        ("R3.2", {"pt": PolygonType(path_of(pi, f1), path_of(pi2, f1)),
                  "arrow": f}),
        ("R4.1", {"arrow": f1}),
        ("R4.2", {"arrow": f2}),
        ("R5.1", {"square": base.square("P1")}),
        ("R5.2", {"square": base.square("P2")}),
        ("L1a", {"pt": pt}),
        ("L1b", {"pt": PolygonType(path_of(pi, f1), path_of(pi2, f1)),
                 "left": path_of(f)}),
        ("L1c", {"pt1": PolygonType(path_of(a(base, "delta")),
                                    path_of(a(base, "delta"))),
                 "pt2": PolygonType(path_of(f1, f), path_of(f2, f))}),
    ]


def test_every_rule_has_parallel_sides(sig, base):
    for name, binding in rule_bindings(base):
        lhs, rhs = instantiate_rule(sig, name, binding)
        assert lhs.source == rhs.source, name
        assert lhs.target == rhs.target, name


def test_r1_rejects_unequal_sides(sig, base):
    with pytest.raises(SideConditionFailed):
        instantiate_rule(sig, "R1", {"pt": square_pt(base)})


def test_r2_matches_vertical_pasting(sig, base):
    pt = square_pt(base)
    lhs, rhs = instantiate_rule(sig, "R2", {"pt1": pt, "pt2": opposite(pt)})
    assert len(lhs.layers) == 2 and len(rhs.layers) == 1
    assert rhs.layers[0].gen.pt.top == rhs.layers[0].gen.pt.bottom


def test_r5_requires_marked_square(base):
    f, f1, f2 = a(base, "f"), a(base, "f1"), a(base, "f2")
    other = make_base()
    unmarked = other.square("P1")
    stripped = make_base()
    stripped.squares = [s for s in stripped.squares if s.label != "P1"]
    sig2 = Signature(stripped, extension=None)
    with pytest.raises(SideConditionFailed):
        instantiate_rule(sig2, "R5.1", {"square": unmarked})


def test_unknown_rule_rejected(sig, base):
    with pytest.raises(InvalidBinding):
        instantiate_rule(sig, "R9", {})
    with pytest.raises(InvalidBinding):
        instantiate_rule(sig, "R2", {"pt1": square_pt(base)})


def test_l1c_needs_composable_polygons(sig, base):
    pt = square_pt(base)
    with pytest.raises(SideConditionFailed):
        instantiate_rule(sig, "L1c", {"pt1": pt, "pt2": pt})


def test_triangle_shapes(sig, base):
    f = a(base, "f")
    lhs, rhs = instantiate_rule(sig, "R4.1", {"arrow": f})
    assert lhs.source == cells(fiber(f.src), Shriek(f))
    assert rhs == identity_diagram(lhs.source)
    lhs2, _ = instantiate_rule(sig, "R4.2", {"arrow": f})
    assert lhs2.source == cells(fiber(f.dst), Star(f))


def test_random_rule_instances_stay_parallel(sig, base):
    """Rules instantiated at randomized bindings always give parallel sides."""
    rng = random.Random(3)
    pts = []
    for rel in base.relations:
        pts.append(PolygonType(rel.lhs, rel.rhs))
        pts.append(PolygonType(rel.rhs, rel.lhs))
    arrows = sorted(base.arrows)
    checked = 0
    for _ in range(1000):
        name = rng.choice(["R1", "R2", "R3.1", "R3.2", "R4.1", "R4.2", "L1a", "L1b"])
        try:
            if name == "R1":
                p = rng.choice(pts)
                binding = {"pt": PolygonType(p.top, p.top)}
            elif name == "R2":
                p = rng.choice(pts)
                binding = {"pt1": p, "pt2": opposite(p)}
            elif name in ("R3.1", "R3.2", "L1a"):
                binding = {"pt": rng.choice(pts)}
                if name.startswith("R3"):
                    binding["arrow"] = rng.choice(arrows)
            elif name == "L1b":
                binding = {"pt": rng.choice(pts)}
            else:
                binding = {"arrow": rng.choice(arrows)}
            lhs, rhs = instantiate_rule(sig, name, binding)
        except (SideConditionFailed, Exception) as exc:
            from strandcheck.errors import StrandcheckError
            if not isinstance(exc, StrandcheckError):
                raise
            continue  # non-composable random binding, fine
        assert lhs.source == rhs.source and lhs.target == rhs.target
        checked += 1
    assert checked > 400


# ---------------------------------------------------------------------------
# mates


def test_mate_agrees_with_comparison_expansion(sig, base):
    sq = base.square("P1")
    pt = sq.commutativity()
    assert isotopic(mate_expansion(pt), bc_expansion(sq))


def test_mate2_boundary(base):
    pt = PolygonType(path_of(a(base, "pi"), a(base, "f1")),
                     path_of(a(base, "pi2"), a(base, "f1")))
    d = mate2_expansion(pt)
    assert d.source == shriek_lift(pt.bottom)
    assert d.target == shriek_lift(pt.top)
    assert len(d.layers) == 5


def test_mate_rejects_empty_sides(base):
    B = base.object_by_name("B")
    with pytest.raises(InvalidBinding):
        mate_expansion(PolygonType(empty_path(B), empty_path(B)))


# ---------------------------------------------------------------------------
# normalization of the coherence-only fragment


def test_normalize_empty_polygon_gives_empty_diagram(base):
    B = base.object_by_name("B")
    d = single(Coherence(PolygonType(empty_path(B), empty_path(B))))
    assert normalize_fib(d) == identity_diagram(d.source)


def test_normalize_stack_to_single_cell(sig, base):
    pt = square_pt(base)
    d = vcompose(single(Coherence(pt)), single(Coherence(opposite(pt))))
    nf = normalize_fib(d)
    assert nf == identity_diagram(d.source)
    d2 = vcompose(single(Coherence(pt)),
                  single(Coherence(PolygonType(pt.bottom, pt.bottom))))
    nf2 = normalize_fib(d2)
    assert len(nf2.layers) == 1
    assert nf2.layers[0].gen.pt == pt


def test_normalize_rejects_other_generators(base):
    f = a(base, "f")
    with pytest.raises(NotFibFragment):
        normalize_fib(single(Unit(f)))


def test_decide_fib_equal_by_boundary(sig, base):
    rng = random.Random(17)
    agreements = 0
    for _ in range(300)    :
        d1 = random_chi_diagram(sig, rng, 4, 4)
        d2 = random_chi_diagram(sig, rng, 4, 4)
        eq = decide_fib_equal(d1, d2)
        norm_eq = (d1.source == d2.source
                   and normalize_fib(d1) == normalize_fib(d2))
        assert eq == norm_eq
        agreements += 1
    assert agreements == 300


# ---------------------------------------------------------------------------
# oriented rewriting


def _exhaustive_normal_forms(d, limit=300000):
    """Reference: breadth-first over every oriented interleaving, no closure."""
    from collections import deque

    start = exchange_canonical(d)
    seen = {start}
    frontier = deque([start])
    terminals = set()
    while frontier:
        assert len(seen) <= limit
        cur = frontier.popleft()
        succs = oriented_successors(cur)
        if not succs:
            terminals.add(cur)
            continue
        for nxt in succs:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return terminals


def test_closure_exploration_matches_exhaustive(sig):
    """Closed-state exploration reaches exactly the exhaustive terminals."""
    rng = random.Random(23)
    for _ in range(40):
        d = random_chi_diagram(sig, rng, 3, 3)
        assert normal_forms(d) == _exhaustive_normal_forms(d)


def test_absorb_closure_idempotent_and_terminal(sig):
    rng = random.Random(29)
    for _ in range(40):
        d = random_chi_diagram(sig, rng, 4, 4)
        c = absorb_closure(d)
        assert absorb_closure(c) == c
        for layer in c.layers:
            assert not layer.left.tokens and not layer.right.tokens


def test_absorption_steps_commute_statewise(sig):
    """The diamonds justifying closure-based exploration, checked dynamically."""
    rng = random.Random(31)
    diamonds = 0
    for _ in range(60):
        d = exchange_canonical(random_chi_diagram(sig, rng, 4, 4))
        succs = sorted(oriented_successors(d), key=repr)
        for i, s1 in enumerate(succs):
            for s2 in succs[i + 1 :]:
                # whatever the pair of steps, closures must meet at one state
                # after the remaining steps: both closures normalize the same
                c1, c2 = absorb_closure(s1), absorb_closure(s2)
                n1, n2 = normal_forms(c1), normal_forms(c2)
                assert n1 == n2 == normal_forms(d)
                diamonds += 1
        if diamonds > 120:
            break
    assert diamonds > 0


def _absorb_strandwise(d):
    """Reference closure: one strand at a time (rule R3), right then left,
    until ``_absorbed`` finds none."""
    layers = []
    for layer in d.layers:
        if isinstance(layer.gen, Coherence):
            for side in ("right", "left"):
                while (new := rewrite._absorbed(layer, side)) is not None:
                    layer = new
        layers.append(layer)
    return Diagram(d.source, d.target, tuple(layers))


def test_absorb_closure_matches_strandwise_absorption():
    sig = signature_for(None)
    rng = random.Random(37)
    absorbed = 0
    for _ in range(1500):
        d = random_chi_diagram(sig, rng, 5, 4)
        c = absorb_closure(d)
        assert c == _absorb_strandwise(d)
        assert absorb_closure(c) is c  # nothing left to absorb: d itself
        absorbed += c is not d
    assert absorbed > 1000


def _reference_normal_forms(d, visit):
    """The exploration loop of ``normal_forms`` as it was before closing
    layers in one step: strand-by-strand closure, and successors taken
    by expanding every word of the class, ``d``'s own word included."""
    from collections import deque

    def successors(cur):
        visit(cur)
        out = {}
        for word in calculus.class_words(calculus.compact_word(cur.layers)):
            rep = Diagram(cur.source, cur.target,
                          calculus.expand_word(cur.source, word))
            for nxt in rewrite._oriented_successors_one(rep):
                out[nxt] = None
        return out

    start = _absorb_strandwise(d)
    seen = {start}
    frontier = deque([start])
    terminals = set()
    while frontier:
        cur = frontier.popleft()
        succs = dict.fromkeys(_absorb_strandwise(n) for n in successors(cur))
        if not succs:
            terminals.add(cur)
            continue
        for nxt in succs:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return terminals


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_normal_forms_explores_like_the_reference_loop(seed, monkeypatch):
    """On samples drawn as ``confluence_probe`` draws them, the new loop
    visits the same states in the same order, calls
    ``oriented_successors`` once per state, and finds the same
    terminals."""
    sig = signature_for(None)
    rng = random.Random(seed)
    new_visits, ref_visits = [], []
    successors = rewrite.oriented_successors

    def counted(d):
        new_visits.append(d)
        return successors(d)

    monkeypatch.setattr(rewrite, "oriented_successors", counted)
    for _ in range(150):
        d = random_chi_diagram(sig, rng, 5, 4)
        assert normal_forms(d) == _reference_normal_forms(d, ref_visits.append)
    assert new_visits == ref_visits and len(ref_visits) > 300


def test_confluence_probe_smoke(sig):
    rep = confluence_probe(sig, size=(4, 3), samples=60, seed=1)
    assert rep.ok
    assert rep.stats == {"samples": 60, "violations": 0}


def test_confluence_probe_takes_no_canonical_form(monkeypatch):
    calls = []
    exchange_canonical_ = calculus.exchange_canonical

    def counting_canonical(d):
        calls.append(d)
        return exchange_canonical_(d)

    for module in (calculus, rewrite):
        monkeypatch.setattr(module, "exchange_canonical", counting_canonical)
    rep = confluence_probe(signature_for(None), samples=60, seed=1)
    assert calls == []
    assert rep.ok
    assert rep.stats == {"samples": 60, "violations": 0}


# Runs the probe with ``class_words`` recorded and prints a digest of the
# sequence of words it was called on.
_RECORD_PROBE_WALKS = """
import hashlib, io, contextlib
from strandcheck import calculus, rewrite
from strandcheck.cli import main
walks = []
class_words = calculus.class_words
def recording(word):
    walks.append(word)
    return class_words(word)
calculus.class_words = rewrite.class_words = recording
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["probe-confluence", "--samples", "100", "--seed", "1"]) == 0
print(len(walks), hashlib.sha256(repr(walks).encode()).hexdigest())
"""


def test_probe_walks_do_not_depend_on_the_hash_seed():
    """The probe walks the same classes in the same order whatever the
    string-hash seed of the process."""
    src = str(Path(strandcheck.__file__).resolve().parents[1])
    digests = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, "-c", _RECORD_PROBE_WALKS],
                             env=env, capture_output=True, text=True,
                             check=True, timeout=120)
        digests.append(out.stdout)
    assert int(digests[0].split()[0]) > 0
    assert digests[0] == digests[1]


# ---------------------------------------------------------------------------
# block extraction and splicing


def two_layer_stack(base):
    pt = square_pt(base)
    return vcompose(single(Coherence(pt)), single(Coherence(opposite(pt)))), pt


def test_extract_splice_roundtrip(base):
    d, pt = two_layer_stack(base)
    region = Region(0, 2, 0, 2)
    block, _ = extract_block(d, region)
    assert block.source == d.source
    assert splice_block(d, region, block) == d


def test_extract_rejects_protruding_generator(base):
    d, pt = two_layer_stack(base)
    with pytest.raises(PatternNotFound):
        extract_block(d, Region(0, 2, 0, 1))


def test_splice_rejects_boundary_change(sig, base):
    d, pt = two_layer_stack(base)
    wrong = single(Coherence(pt))
    with pytest.raises(BoundaryChanged):
        splice_block(d, Region(0, 1, 0, 2), identity_diagram(wrong.target))


def test_extract_block_in_context(base):
    """A block surrounded by whiskers keeps only its own strands."""
    pi1 = a(base, "pi1")
    d, pt = two_layer_stack(base)
    wide = whisker("right", cells(fiber(pi1.dst), Star(pi1)), d)
    block, _ = extract_block(wide, Region(0, 2, 0, 2))
    assert isotopic(block, d)


# ---------------------------------------------------------------------------
# steps and scripts


def test_apply_step_rule_positive(sig, base):
    session = CheckerSession(sig)
    d, pt = two_layer_stack(base)
    just = Rule("R2", binding_key({"pt1": pt, "pt2": opposite(pt)}), "fwd")
    result = single(Coherence(PolygonType(pt.top, pt.top)))
    result = Diagram(d.source, d.target, result.layers)
    from strandcheck.rewrite import apply_step
    out = apply_step(session, d, ProofStep(just, Region(0, 2, 0, 2), result))
    assert out == result


def test_apply_step_pattern_not_found(sig, base):
    from strandcheck.rewrite import apply_step
    session = CheckerSession(sig)
    d, pt = two_layer_stack(base)
    just = Rule("L1a", binding_key({"pt": opposite(pt)}), "fwd")
    with pytest.raises(PatternNotFound):
        apply_step(session, d, ProofStep(just, Region(0, 2, 0, 2),
                                         identity_diagram(d.source)))


def test_apply_step_result_mismatch(sig, base):
    from strandcheck.rewrite import apply_step
    session = CheckerSession(sig)
    d, pt = two_layer_stack(base)
    just = Rule("L1a", binding_key({"pt": pt}), "fwd")
    wrong = Diagram(d.source, d.target,
                    single(Coherence(PolygonType(pt.top, pt.top))).layers)
    with pytest.raises(ResultMismatch):
        apply_step(session, d, ProofStep(just, Region(0, 2, 0, 2), wrong))


def test_apply_step_region_must_be_pure_chi(sig, base):
    from strandcheck.rewrite import apply_step
    session = CheckerSession(sig)
    f = a(base, "f")
    d = single(Unit(f))
    with pytest.raises(RegionNotPureChi):
        apply_step(session, d, ProofStep(FibCoherence(Region(0, 1, 0, 0)),
                                         Region(0, 1, 0, 0), d))


def test_apply_step_coherence_without_block(sig, base):
    from strandcheck.rewrite import apply_step
    d, _ = two_layer_stack(base)
    step = ProofStep(FibCoherence(Region(0, 2, 0, 2)), Region(0, 3, 0, 2), d)
    with pytest.raises(PatternNotFound, match="no block at"):
        apply_step(CheckerSession(sig), d, step)


def test_apply_step_coherence_result_mismatch(sig, base):
    """The replacement fits the block, but splicing it leaves four layers
    where the stated result has two."""
    from strandcheck.rewrite import apply_step
    d, _ = two_layer_stack(base)
    step = ProofStep(FibCoherence(Region(0, 2, 0, 2)), Region(0, 2, 0, 2), d)
    with pytest.raises(ResultMismatch, match="coherence replacement"):
        apply_step(CheckerSession(sig), vcompose(d, d), step)


def test_apply_step_canonical_not_isotopic(sig, base):
    from strandcheck.rewrite import apply_step
    d, _ = two_layer_stack(base)
    step = ProofStep(Canonical(), None, identity_diagram(d.source))
    with pytest.raises(ResultMismatch, match="not isotopic"):
        apply_step(CheckerSession(sig), d, step)


def test_apply_step_needs_position(sig, base):
    from strandcheck.rewrite import apply_step
    d, pt = two_layer_stack(base)
    just = Rule("L1a", binding_key({"pt": pt}), "fwd")
    step = ProofStep(just, None, identity_diagram(d.source))
    with pytest.raises(PatternNotFound, match="step needs a position"):
        apply_step(CheckerSession(sig), d, step)


def test_apply_step_result_boundary_changed(sig, base):
    from strandcheck.rewrite import apply_step
    d, pt = two_layer_stack(base)
    just = Rule("L1a", binding_key({"pt": pt}), "fwd")
    step = ProofStep(just, Region(0, 2, 0, 2), single(Coherence(pt)))
    with pytest.raises(BoundaryChanged, match="claim boundary"):
        apply_step(CheckerSession(sig), d, step)


def test_axiom_and_prior_availability(sig, base):
    from strandcheck.rewrite import apply_step
    d, pt = two_layer_stack(base)
    session = CheckerSession(sig, disabled_axioms={"DD2"})
    with pytest.raises(UnprovenDependency):
        session.pattern_pair(Axiom("DD2", "fwd"))
    with pytest.raises(UnprovenDependency):
        session.pattern_pair(Axiom("TA1", "fwd"))  # no axiom table installed
    with pytest.raises(UnprovenDependency):
        session.pattern_pair(PriorEquality("missing", "fwd"))
    with pytest.raises(InvalidBinding):
        session.pattern_pair(Axiom("XX9", "fwd"))


def test_check_script_micro_cancellation(sig, base):
    """chi ; chi-inverse = id, verified end to end through the builder."""
    session = CheckerSession(sig)
    d, pt = two_layer_stack(base)
    builder = DerivationBuilder(session, "micro-cancel", d,
                                identity_diagram(d.source))
    script = builder.rule("L1a", pt=pt).finish()
    report = check_script(session, script)
    assert report.ok, report.reason
    assert "micro-cancel" in session.verified


def test_check_script_comparison_inverse_laws(sig, base):
    """Both composition orders of the comparison cell and its expansion
    cancel, via the marked-square rules."""
    for label, rule in (("P1", "R5.1"), ("P2", "R5.2")):
        sq = base.square(label)
        if rule == "R5.1":
            lhs = vcompose(bc_expansion(sq), single(SquareInv(sq)))
        else:
            lhs = vcompose(single(SquareInv(sq)), bc_expansion(sq))
        session = CheckerSession(sig)
        builder = DerivationBuilder(session, f"cancel-{label}", lhs,
                                    identity_diagram(lhs.source))
        script = builder.rule(rule, square=sq).finish()
        assert check_script(session, script).ok


def test_check_script_reports_failing_step(sig, base):
    session = CheckerSession(sig)
    d, pt = two_layer_stack(base)
    builder = DerivationBuilder(session, "will-corrupt", d,
                                identity_diagram(d.source))
    script = builder.rule("L1a", pt=pt).finish()
    # corrupt the recorded step result
    bad_result = Diagram(d.source, d.target,
                         single(Coherence(PolygonType(pt.top, pt.top))).layers)
    script.steps[0] = ProofStep(script.steps[0].justification,
                                script.steps[0].region, bad_result)
    report = check_script(session, script)
    assert not report.ok
    assert report.failed_step == 0
    assert "will-corrupt" not in session.verified


def test_check_script_lets_internal_errors_propagate(sig, base, monkeypatch):
    """A bug in the checker crashes; it is not reported as a failed proof."""
    session = CheckerSession(sig)
    d, pt = two_layer_stack(base)
    script = DerivationBuilder(session, "internal-error", d,
                               identity_diagram(d.source)).rule(
        "L1a", pt=pt).finish()

    def broken_apply_step(*args):
        raise AttributeError("internal bug")

    monkeypatch.setattr(rewrite, "apply_step", broken_apply_step)
    with pytest.raises(AttributeError, match="internal bug"):
        check_script(session, script)
    assert "internal-error" not in session.verified


def test_check_script_rejects_nonparallel_claim(sig, base):
    session = CheckerSession(sig)
    d, pt = two_layer_stack(base)
    script = ProofScript("bad-claim", sig, d, single(Coherence(pt)), [])
    report = check_script(session, script)
    assert not report.ok and report.failed_step == -1


def test_builder_coherence_collapse(sig, base):
    """A pure-coherence block may be replaced by its normal form in one step."""
    session = CheckerSession(sig)
    d, pt = two_layer_stack(base)
    builder = DerivationBuilder(session, "collapse", d, identity_diagram(d.source))
    script = builder.coherence(Region(0, 2, 0, 2), normalize_fib(d)).finish()
    assert check_script(session, script).ok


def test_builder_canonical_step(sig, base):
    session = CheckerSession(sig)
    f = a(base, "f")
    ef = fiber(f.src)
    l1 = Layer(identity_cells(ef), Unit(f), identity_cells(ef))
    l2 = Layer(identity_cells(ef), Unit(f), l1.boundary()[1])
    d = from_layers([l1, l2])
    result = exchange_canonical(d)
    script = ProofScript("canon", sig, d, result,
                         [ProofStep(Canonical(), None, result)])
    assert check_script(session, script).ok


@given(st.integers(min_value=0, max_value=2**30))
@settings(max_examples=40, deadline=None)
def test_normal_form_unique_property(seed):
    b = make_base()
    sig = Signature(b, extension=None)
    rng = random.Random(seed)
    d = random_chi_diagram(sig, rng, 4, 4)
    terms = normal_forms(d)
    assert terms == {exchange_canonical(normalize_fib(d))}
