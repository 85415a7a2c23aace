"""The finite-set families model and its extensional oracle."""

import random
from dataclasses import replace
from importlib.resources import files

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strandcheck.base import PolygonType
from strandcheck.calculus import (
    Coherence,
    Counit,
    DescentCell,
    Layer,
    OneCellPath,
    Shriek,
    SquareInv,
    Star,
    Unit,
    cells,
    exchange_canonical,
    fiber,
    from_layers,
    generator_boundary,
    identity_cells,
    identity_diagram,
    single,
    vcompose,
)
from strandcheck.descent import (
    _Names,
    axiom_equations,
    builtin_descent_base,
    bundle_file_name,
    bundled_scripts,
    etaprime,
    muprime,
    signature_for,
    substitute_descent,
    translate_H,
)
from strandcheck.errors import (
    BoundaryMismatch,
    EnvMissing,
    RelationViolated,
    TypeMismatch,
)
from strandcheck import base as base_module
from strandcheck import finmodel
from strandcheck.cli import main
from strandcheck.finmodel import (
    Family,
    free_algebra_env,
    interpret_diagram,
    interpret_path,
    interpret_token,
    make_instance,
    oracle_claims,
    oracle_equal,
    random_family,
    random_instance,
    terminal_family,
    validate_instance,
)
from strandcheck.parser import parse_script_file
from strandcheck.rewrite import bc_expansion

from finmodel_oracle import (
    compose_maps,
    identity_map,
    reference_interpret,
    reference_oracle,
)


@pytest.fixture(scope="module")
def base():
    return builtin_descent_base()


@pytest.fixture(scope="module")
def names(base):
    return _Names(base)


@pytest.fixture(scope="module")
def inst():
    return make_instance(("a",), ("b1", "b2"), {"b1": "a", "b2": "a"})


def _obj(inst, name):
    return inst.base.object_by_name(name)


# ---------------------------------------------------------------------------
# instances


def test_constant_f_pullback_sizes(inst):
    assert len(inst.carrier[_obj(inst, "Q")]) == 4
    assert len(inst.carrier[_obj(inst, "R")]) == 8


def test_empty_b_instance():
    empty = make_instance(("a",), (), {})
    assert empty.carrier[_obj(empty, "B")] == ()
    assert empty.carrier[_obj(empty, "Q")] == ()
    assert empty.carrier[_obj(empty, "R")] == ()


def test_injective_f_collapses_q():
    one = make_instance(("a1", "a2"), ("b1", "b2"), {"b1": "a1", "b2": "a2"})
    q = one.carrier[_obj(one, "Q")]
    assert set(q) == {("b1", "b1"), ("b2", "b2")}
    f1 = one.base.arrow_by_name("f1")
    f2 = one.base.arrow_by_name("f2")
    assert all(one.apply_arrow(f1, e) == one.apply_arrow(f2, e) for e in q)


def test_non_total_f_rejected():
    with pytest.raises(RelationViolated):
        make_instance(("a",), ("b1", "b2"), {"b1": "a"})


def test_validate_instance_catches_tampering(inst):
    broken = make_instance(("a",), ("b1", "b2"), {"b1": "a", "b2": "a"})
    pi = broken.base.arrow_by_name("pi")
    r0 = broken.carrier[_obj(broken, "R")][0]
    q_other = broken.carrier[_obj(broken, "Q")][-1]
    broken.action[pi] = dict(broken.action[pi])
    broken.action[pi][r0] = q_other
    with pytest.raises(RelationViolated):
        validate_instance(broken)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1_000_000))
def test_random_instances_validate(seed):
    inst = random_instance(random.Random(seed), 4)
    validate_instance(inst)


# ---------------------------------------------------------------------------
# tokens


def test_shriek_tags_and_counts(inst, names):
    b = _obj(inst, "B")
    x = Family(b, (("b1", ("x",)), ("b2", ("y", "z"))))
    pushed = interpret_token(Shriek(names.f), inst, x)
    assert pushed.over == _obj(inst, "A")
    assert set(pushed.fiber("a")) == {("b1", "x"), ("b2", "y"), ("b2", "z")}


def test_star_is_strictly_functorial(inst, names):
    b = _obj(inst, "B")
    y = Family(b, (("b1", ("u",)), ("b2", ("v",))))
    one = interpret_token(Star(names.f1), inst, y)
    two = interpret_token(Star(names.pi1), inst, one)
    composite = interpret_path(cells(fiber(names.B), Star(names.f1),
                                     Star(names.pi1)), inst, y)
    assert composite == two
    assert two.over == _obj(inst, "R")


def test_star_on_empty_family(inst, names):
    b = _obj(inst, "B")
    empty = Family(b, (("b1", ()), ("b2", ())))
    pulled = interpret_token(Star(names.f1), inst, empty)
    assert pulled.total_size() == 0


def test_objtok_needs_env(inst, names):
    with pytest.raises(EnvMissing):
        interpret_token(names.x, inst, terminal_family())


def test_objtok_wrong_fiber_rejected(inst, names):
    a = _obj(inst, "A")
    with pytest.raises(TypeMismatch):
        interpret_token(names.x, inst, terminal_family(),
                        {names.x: Family(a, (("a", ()),))})


# ---------------------------------------------------------------------------
# diagrams


def _family_over_b(inst, sizes=("x", "yz")):
    b = _obj(inst, "B")
    return Family(b, (("b1", tuple(sizes[0])), ("b2", tuple(sizes[1]))))


def test_identity_diagram_is_identity_map(inst, names):
    x = _family_over_b(inst)
    d = identity_diagram(cells(fiber(names.B), Shriek(names.f)))
    m = interpret_diagram(d, inst, input_family=x)
    assert m == identity_map(m.src)


def test_shriek_triangle_is_identity(inst, names):
    eB, eA = fiber(names.B), fiber(names.f.dst)
    zig = from_layers([
        Layer(identity_cells(eB), Unit(names.f), cells(eB, Shriek(names.f))),
        Layer(cells(eB, Shriek(names.f)), Counit(names.f), identity_cells(eA)),
    ])
    x = _family_over_b(inst)
    m = interpret_diagram(zig, inst, input_family=x)
    assert m == identity_map(m.src)


def test_star_triangle_is_identity(inst, names):
    eB, eA = fiber(names.B), fiber(names.f.dst)
    zig = from_layers([
        Layer(cells(eA, Star(names.f)), Unit(names.f), identity_cells(eB)),
        Layer(identity_cells(eA), Counit(names.f), cells(eA, Star(names.f))),
    ])
    a = _obj(inst, "A")
    y = Family(a, (("a", ("p", "q")),))
    m = interpret_diagram(zig, inst, input_family=y)
    assert m == identity_map(m.src)


def test_comparison_roundtrips_are_identities(inst, names):
    fwd = bc_expansion(names.P1)
    bwd = single(SquareInv(names.P1))
    b = _obj(inst, "B")
    for trip in (vcompose(fwd, bwd), vcompose(bwd, fwd)):
        dom_obj = trip.source.dom.obj
        x = random_family(random.Random(5), inst, dom_obj, 2) if dom_obj != b \
            else _family_over_b(inst)
        m = interpret_diagram(trip, inst, input_family=x)
        assert m == identity_map(m.src)


def test_interpretation_invariant_under_exchange(inst, names):
    d = muprime(names.base)
    x = _family_over_b(inst)
    m1 = interpret_diagram(d, inst, input_family=x)
    m2 = interpret_diagram(exchange_canonical(d), inst, input_family=x)
    assert m1 == m2


def test_interpretation_is_functorial(inst, names):
    d1 = etaprime(names.base)
    d2 = from_layers([
        Layer(identity_cells(fiber(names.B)), Unit(names.delta),
              cells(fiber(names.B), Star(names.f1), Shriek(names.f2))),
    ])
    x = _family_over_b(inst)
    m1 = interpret_diagram(d1, inst, input_family=x)
    m2 = interpret_diagram(d2, inst, input_family=x)
    composite = interpret_diagram(vcompose(d1, d2), inst, input_family=x)
    assert composite == compose_maps(m1, m2)


def test_missing_input_family(inst, names):
    d = identity_diagram(cells(fiber(names.B), Shriek(names.f)))
    with pytest.raises(EnvMissing):
        interpret_diagram(d, inst)


# ---------------------------------------------------------------------------
# the free environment and the oracle


def test_free_env_satisfies_all_axiom_systems(inst, names):
    rng = random.Random(11)
    for trial in range(5):
        env = free_algebra_env(rng, inst, 3)
        for kind in ("TA", "DD", "AC"):
            for eq in axiom_equations(kind, names.base):
                lhs = interpret_diagram(eq.lhs, inst, env)
                rhs = interpret_diagram(eq.rhs, inst, env)
                assert lhs == rhs, f"{eq.name} fails extensionally"


def test_oracle_rejects_non_parallel(names):
    with pytest.raises(BoundaryMismatch):
        oracle_equal(single(Unit(names.f)), single(Unit(names.f2)))


def test_oracle_eta_trans_claim():
    script = {s.name: s for s in bundled_scripts()}["eta_trans"]
    report = oracle_equal(script.claim_lhs, script.claim_rhs,
                          inst_count=100, max_size=3, seed=7, max_fiber=2)
    assert report.verdict == "Verified"
    assert report.stats == {"samples": 100, "mismatches": 0}


def test_oracle_all_bundled_claims():
    for script in bundled_scripts():
        report = oracle_equal(script.claim_lhs, script.claim_rhs,
                              inst_count=25, max_size=3, seed=7, max_fiber=2)
        assert report.verdict == "Verified", script.name


def test_oracle_ta2_with_translated_action(names):
    beta = single(signature_for("AC", names.base).descent_generator())
    alpha_impl = translate_H(beta, names.base)
    ta2 = axiom_equations("TA", names.base)[1]
    report = oracle_equal(substitute_descent(ta2.lhs, alpha_impl),
                          substitute_descent(ta2.rhs, alpha_impl),
                          inst_count=30, max_size=3, seed=3, max_fiber=2)
    assert report.verdict == "Verified"


def test_oracle_detects_distinct_counit_placements(names):
    inner, outer = _counit_placements(names)
    report = oracle_equal(inner, outer, inst_count=50, max_size=3,
                          seed=1, max_fiber=2)
    assert report.verdict == "Failed"
    assert report.stats["mismatches"] > 0
    assert "sample" in report.reason


def test_oracle_deterministic_per_seed(names):
    d = single(Unit(names.f))
    r1 = oracle_equal(d, d, inst_count=10, max_size=3, seed=9)
    r2 = oracle_equal(d, d, inst_count=10, max_size=3, seed=9)
    assert r1.verdict == r2.verdict == "Verified"
    assert r1.stats == r2.stats


def _counit_placements(names):
    """Two parallel diagrams that differ pointwise: the counit of f on the
    inner and on the outer pair of strands."""
    eA = fiber(names.f.dst)
    pair = cells(eA, Star(names.f), Shriek(names.f))
    inner = from_layers([Layer(identity_cells(eA), Counit(names.f), pair)])
    outer = from_layers([Layer(pair, Counit(names.f), identity_cells(eA))])
    return inner, outer


@pytest.mark.parametrize("seed", range(5))
def test_oracle_claims_agrees_with_per_claim_loop(names, seed):
    """Claims that share samples get the reports they get alone: env
    claims with a terminal source, input-family claims and a false pair."""
    pairs = [(s.claim_lhs, s.claim_rhs) for s in bundled_scripts()]
    pairs.append(_counit_placements(names))
    keys = {(finmodel._needs_env(d1) or finmodel._needs_env(d2),
             d1.source.dom) for d1, d2 in pairs}
    assert len(keys) == 3
    assert {(env, dom.is_terminal) for env, dom in keys} == {
        (True, True), (False, False)}
    got = oracle_claims(pairs, inst_count=12, max_size=3, seed=seed,
                        max_fiber=2)
    want = [reference_oracle(d1, d2, inst_count=12, max_size=3, seed=seed,
                             max_fiber=2) for d1, d2 in pairs]
    assert [r.as_dict() for r in got] == [r.as_dict() for r in want]
    assert got[-1].verdict == "Failed"


def _counting(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_verify_draws_each_sample_once(monkeypatch, capsys):
    """The 13 bundled claims fall into two draw groups, so 25 instances
    per group, 25 environments for the one group that needs them, and the
    descent base built once for all of them."""
    finmodel._descent_base.cache_clear()
    finmodel._free_template.cache_clear()
    instances = _counting(monkeypatch, finmodel, "make_instance")
    envs = _counting(monkeypatch, finmodel, "free_algebra_env")
    paths = _counting(monkeypatch, base_module, "paths_equal")
    assert main(["verify-benabou-roubaud", "--seed", "1"]) == 0
    assert "oracle: 13/13 claims agree" in capsys.readouterr().out
    assert len(instances) == 50
    assert len(envs) == 25
    assert len(paths) <= 100


def _repeating(d, kind):
    gids = [layer._gid for layer in d.layers if isinstance(layer.gen, kind)]
    return len(set(gids)) < len(gids)


def test_repeated_generators_agree_with_reference(names, monkeypatch):
    """A generator that occurs in several layers is made into one step,
    and each layer still carries elements through its own whiskers."""
    scripts = {s.name: s for s in bundled_scripts()}
    diagrams = [scripts["mu_trans"].claim_lhs, scripts["H_TA2"].claim_rhs]
    diagrams += [side for kind in ("TA", "DD", "AC")
                 for eq in axiom_equations(kind, names.base)
                 for side in (eq.lhs, eq.rhs) if _repeating(side, DescentCell)]
    assert _repeating(diagrams[0], SquareInv)
    assert _repeating(diagrams[1], SquareInv)
    assert len(diagrams) == 5
    steps = _counting(monkeypatch, finmodel, "_generator_step")
    rng = random.Random(13)
    for _ in range(20):
        inst = random_instance(rng, 4)
        env = free_algebra_env(rng, inst, 3)
        for d in diagrams:
            x = _input_family(rng, inst, d)
            del steps[:]
            got = interpret_diagram(d, inst, env, x)
            assert len(steps) == len({layer._gid for layer in d.layers})
            assert got == reference_interpret(d, inst, env, x), d


def test_repeated_descent_cell_with_wrong_boundary_rejected(inst, names):
    alpha = signature_for("TA", names.base).descent_generator()
    phi = signature_for("DD", names.base).descent_generator()
    ta2 = axiom_equations("TA", names.base)[1].rhs
    assert _repeating(ta2, DescentCell)
    env = free_algebra_env(random.Random(3), inst, 2)
    env[alpha] = env[phi]
    with pytest.raises(TypeMismatch):
        interpret_diagram(ta2, inst, env)


def test_empty_instance_evaluates(names):
    empty = make_instance(("a",), (), {})
    d = muprime(names.base)
    b = _obj(empty, "B")
    x = Family(b, ())
    m = interpret_diagram(d, empty, input_family=x)
    assert m.components == {}
    env = free_algebra_env(random.Random(0), empty, 2)
    for eq in axiom_equations("AC", names.base):
        assert interpret_diagram(eq.lhs, empty, env) == \
            interpret_diagram(eq.rhs, empty, env)


# ---------------------------------------------------------------------------
# agreement with the whole-family reference, and the error paths


def _bundle_diagrams():
    data = files("strandcheck") / "bundle"
    out = []
    for kind in ("TA", "DD", "AC"):
        text = (data / bundle_file_name(kind)).read_text(encoding="utf-8")
        out.extend(parse_script_file(text).diagrams.values())
    return out


def _input_family(rng, inst, d):
    if d.source.dom.is_terminal:
        return None
    return random_family(rng, inst, d.source.dom.obj, 3)


def test_bundle_diagrams_agree_with_reference():
    diagrams = _bundle_diagrams()
    assert len(diagrams) == 56
    rng = random.Random(2024)
    compared = 0
    for _ in range(50):
        inst = random_instance(rng, 4)
        env = free_algebra_env(rng, inst, 3)
        for d in diagrams:
            x = _input_family(rng, inst, d)
            assert interpret_diagram(d, inst, env, x) == \
                reference_interpret(d, inst, env, x), d
            compared += 1
    assert compared == 2800


def _random_string(rng, base, at, length, backwards=False):
    """A random string of ``*`` and ``!`` strands that starts at object
    ``at``, or ends there when ``backwards``."""
    start, tokens = at, []
    for _ in range(length):
        moves = [t for a in base.arrows for t in (Star(a), Shriek(a))
                 if (t.cod if backwards else t.dom).obj == at]
        t = rng.choice(moves)
        tokens.append(t)
        at = (t.dom if backwards else t.cod).obj
    if backwards:
        return OneCellPath(fiber(at), tuple(reversed(tokens)))
    return OneCellPath(fiber(start), tuple(tokens))


def _one_generator_diagrams(base):
    n = _Names(base)
    gens = [g for a in base.arrows for g in (Unit(a), Counit(a))]
    gens += [Coherence(PolygonType(rel.lhs, rel.rhs)) for rel in base.relations]
    gens += [Coherence(n.pt_P1), Coherence(n.d_pt(1)), Coherence(n.j_pt())]
    gens += [SquareInv(n.P1), SquareInv(n.P2)]
    descent = [signature_for(kind, base).descent_generator()
               for kind in ("TA", "DD", "AC")]
    rng = random.Random(99)
    out = []
    for g in gens + descent:
        gs, _ = generator_boundary(g)
        for length in range(4):
            left = identity_cells(gs.dom) if g in descent else \
                _random_string(rng, base, gs.dom.obj, rng.randint(0, 2), True)
            right = _random_string(rng, base, gs.cod.obj, length)
            out.append(from_layers([Layer(left, g, right)]))
    return out


def test_one_generator_diagrams_agree_with_reference(base):
    diagrams = _one_generator_diagrams(base)
    kinds = {type(d.layers[0].gen) for d in diagrams}
    assert kinds == {Unit, Counit, Coherence, SquareInv, DescentCell}
    strands = {type(t) for d in diagrams for t in d.layers[0].right.tokens}
    assert strands == {Star, Shriek}
    rng = random.Random(7)
    for _ in range(20):
        inst = random_instance(rng, 4)
        env = free_algebra_env(rng, inst, 3)
        for d in diagrams:
            x = _input_family(rng, inst, d)
            assert interpret_diagram(d, inst, env, x) == \
                reference_interpret(d, inst, env, x), d


@pytest.mark.parametrize("tamper, message", [
    ("duplicate", "not injective"),
    ("drop", "not onto"),
])
def test_comparison_inverse_rejects_non_pullback(names, tamper, message):
    broken = make_instance(("a",), ("b1", "b2"), {"b1": "a", "b2": "a"})
    q = _obj(broken, "Q")
    if tamper == "duplicate":
        broken.carrier[q] += ("extra",)
        for arrow in (names.f1, names.f2):
            broken.action[arrow] = {**broken.action[arrow], "extra": "b1"}
    else:
        broken.carrier[q] = tuple(w for w in broken.carrier[q] if w != ("b1", "b2"))
    d = single(SquareInv(names.P1))
    with pytest.raises(RelationViolated, match=message):
        interpret_diagram(d, broken, input_family=_family_over_b(broken))


def test_coherence_rejects_broken_relation(names):
    broken = make_instance(("a1", "a2"), ("b1", "b2"), {"b1": "a1", "b2": "a2"})
    broken.action[names.f1] = {**broken.action[names.f1], ("b1", "b1"): "b2"}
    a = _obj(broken, "A")
    y = Family(a, (("a1", ("p", "p2")), ("a2", ("q", "q2"))))
    # the sides differ only over the point (b1, b1), which the error names
    with pytest.raises(RelationViolated, match=r"at \('b1', 'b1'\)$"):
        interpret_diagram(single(Coherence(names.pt_P1)), broken, input_family=y)


def test_descent_map_with_wrong_boundary_rejected(inst, names):
    alpha = signature_for("TA", names.base).descent_generator()
    phi = signature_for("DD", names.base).descent_generator()
    env = free_algebra_env(random.Random(3), inst, 2)
    env[alpha] = env[phi]
    with pytest.raises(TypeMismatch):
        interpret_diagram(single(alpha), inst, env)


def test_missing_descent_map_rejected(inst, names):
    beta = signature_for("AC", names.base).descent_generator()
    env = free_algebra_env(random.Random(3), inst, 2)
    del env[beta]
    with pytest.raises(EnvMissing):
        interpret_diagram(single(beta), inst, env)


def test_unrealized_names_unassigned_tokens_and_cells(names):
    """``unrealized`` covers what ``free_algebra_env`` assigns: the object
    token X@B and the three built-in descent cells, and nothing else."""
    for kind in ("TA", "DD", "AC"):
        cell = signature_for(kind, names.base).descent_generator()
        assert finmodel.unrealized(single(cell)) is None
    y = replace(names.x, name="Y")
    assert finmodel.unrealized(identity_diagram(cells(y.dom, y))) == \
        "object token Y@B"
    swapped = DescentCell("phi", names.x, names.f, (names.f2, names.f1))
    assert finmodel.unrealized(single(swapped)) == "descent cell phi(f, f2, f1)"
