"""The built-in descent base, axiom systems, translations and the theorem."""

import pytest

from strandcheck.base import path_of, paths_equal
from strandcheck.calculus import (
    Counit,
    Shriek,
    Star,
    TERMINAL,
    cells,
    exchange_canonical,
    fiber,
    isotopic,
    single,
)
from strandcheck.descent import (
    axiom_equations,
    builtin_descent_base,
    bundled_scripts,
    etaprime,
    monad_mu,
    muprime,
    signature_for,
    substitute_descent,
    translate_F,
    translate_G,
    translate_H,
    verify_theorem,
)
from strandcheck.errors import InvalidBinding, InvalidGenerator


@pytest.fixture(scope="module")
def base():
    return builtin_descent_base()


@pytest.fixture(scope="module")
def names(base):
    from strandcheck.descent import _Names

    return _Names(base)


def test_builtin_base_shape(base):
    assert {o.name for o in base.objects} == {"A", "B", "Q", "R"}
    assert len(base.arrows) == 7
    assert len(base.relations) == 6
    assert [s.label for s in base.squares] == ["P1", "P2"]


def test_builtin_base_kernel_pair_relation(base, names):
    n = names
    assert paths_equal(base, path_of(n.f1, n.f), path_of(n.f2, n.f))
    assert paths_equal(base, path_of(n.delta, n.f1), path_of(n.delta, n.f2))


def test_signature_kinds(base):
    assert signature_for(None, base).extension is None
    for kind, gen in (("TA", "alpha"), ("DD", "phi"), ("AC", "beta")):
        sig = signature_for(kind, base)
        assert sig.descent_generator().name == gen


def test_etaprime_boundary(base, names):
    d = etaprime(base)
    assert d.source.tokens == ()
    assert d.source.dom == fiber(names.B)
    assert d.target == cells(fiber(names.B), Star(names.f1), Shriek(names.f2))


def test_muprime_boundary(base, names):
    d = muprime(base)
    half = (Star(names.f1), Shriek(names.f2))
    assert d.source.tokens == half + half
    assert d.target.tokens == half


def test_monad_mu_boundary(base, names):
    d = monad_mu(base)
    half = (Shriek(names.f), Star(names.f))
    assert d.source.tokens == half + half
    assert d.target.tokens == half


def test_monad_mu_is_counit_in_monad_string(names):
    f = names.f
    d = monad_mu(names.base)
    assert d.source == cells(fiber(f.src), Shriek(f), Star(f), Shriek(f), Star(f))
    assert d.target == cells(fiber(f.src), Shriek(f), Star(f))
    assert [layer.gen for layer in d.layers] == [Counit(f)]


def test_axiom_equations_parallel(base):
    for kind, axnames in (("TA", ["TA1", "TA2"]), ("DD", ["DD1", "DD2"]),
                          ("AC", ["AC1", "AC2"])):
        eqs = axiom_equations(kind, base)
        assert [eq.name for eq in eqs] == axnames
        for eq in eqs:
            assert eq.lhs.source == eq.rhs.source
            assert eq.lhs.target == eq.rhs.target


def test_axiom_equations_survive_canonicalization(base):
    for kind in ("TA", "DD", "AC"):
        for eq in axiom_equations(kind, base):
            for side in (eq.lhs, eq.rhs):
                canon = exchange_canonical(side)
                assert sorted(repr(l.gen) for l in canon.layers) == \
                    sorted(repr(l.gen) for l in side.layers)


def test_axiom_equations_unknown_kind(base):
    with pytest.raises((InvalidBinding, InvalidGenerator)):
        axiom_equations("XX", base)


def test_ta1_boundary_is_object_only(base, names):
    ta1 = axiom_equations("TA", base)[0]
    assert ta1.lhs.source == cells(TERMINAL, names.x)
    assert ta1.lhs.target == cells(TERMINAL, names.x)


def test_ac2_boundary(base, names):
    ac2 = axiom_equations("AC", base)[1]
    half = (Star(names.f1), Shriek(names.f2))
    assert ac2.lhs.source.tokens == (names.x,) + half + half
    assert ac2.lhs.target.tokens == (names.x,)


def test_translation_boundaries(base, names):
    alpha = single(signature_for("TA", base).descent_generator())
    phi = single(signature_for("DD", base).descent_generator())
    beta = single(signature_for("AC", base).descent_generator())
    f_phi = translate_F(alpha, base)
    assert f_phi.source.tokens == (names.x, Star(names.f1))
    assert f_phi.target.tokens == (names.x, Star(names.f2))
    g_beta = translate_G(phi, base)
    assert g_beta.source.tokens == (names.x, Star(names.f1), Shriek(names.f2))
    assert g_beta.target.tokens == (names.x,)
    h_alpha = translate_H(beta, base)
    assert h_alpha.source.tokens == (names.x, Shriek(names.f), Star(names.f))
    assert h_alpha.target.tokens == (names.x,)


def test_substitute_descent_replaces_generator(base):
    sig = signature_for("DD", base)
    phi = single(sig.descent_generator())
    impl = translate_F(single(signature_for("TA", base).descent_generator()),
                       base)
    dd1 = axiom_equations("DD", base)[0]
    expanded = substitute_descent(dd1.lhs, impl)
    from strandcheck.calculus import DescentCell

    assert not any(isinstance(l.gen, DescentCell) and l.gen.name == "phi"
                   for l in expanded.layers)
    assert expanded.source == dd1.lhs.source
    assert expanded.target == dd1.lhs.target


def test_bundled_scripts_names_and_order():
    scripts = bundled_scripts()
    assert [s.name for s in scripts] == [
        "phi_iso_left", "phi_iso_right", "F_DD1", "F_DD2",
        "G_AC1", "G_AC2", "eta_trans", "mu_trans", "H_TA1", "H_TA2",
        "roundtrip_HGF", "roundtrip_GFH", "roundtrip_FHG",
    ]


def test_bundled_scripts_claim_boundaries_parallel():
    for s in bundled_scripts():
        assert s.claim_lhs.source == s.claim_rhs.source
        assert s.claim_lhs.target == s.claim_rhs.target


def test_eta_trans_claim_boundary(names):
    script = {s.name: s for s in bundled_scripts()}["eta_trans"]
    assert script.claim_lhs.source.tokens == ()
    assert script.claim_lhs.target.tokens == (Shriek(names.f), Star(names.f))


def test_roundtrip_claims_end_in_single_generator():
    by_name = {s.name: s for s in bundled_scripts()}
    for name in ("roundtrip_HGF", "roundtrip_GFH", "roundtrip_FHG"):
        rhs = by_name[name].claim_rhs
        assert len(rhs.layers) == 1
        from strandcheck.calculus import DescentCell

        assert isinstance(rhs.layers[0].gen, DescentCell)


def test_transfer_scripts_declare_dependencies():
    by_name = {s.name: s for s in bundled_scripts()}
    assert by_name["H_TA1"].deps == ("eta_trans",)
    assert by_name["H_TA2"].deps == ("mu_trans",)


def test_verify_theorem_all_verified():
    report = verify_theorem()
    assert report.verdict == "Verified"
    assert report.stats["verified"] == 13
    assert report.stats["total"] == 13
    assert all(r.verdict == "Verified"
               for r in report.stats["scripts"].values())


def test_verify_theorem_deterministic():
    r1 = verify_theorem()
    r2 = verify_theorem()
    assert r1.verdict == r2.verdict
    assert {k: v.verdict for k, v in r1.stats["scripts"].items()} == \
        {k: v.verdict for k, v in r2.stats["scripts"].items()}


def test_verify_theorem_disabled_axiom_fails_consumer():
    report = verify_theorem(disabled_axioms=("DD2",))
    assert report.verdict == "Failed"
    per = report.stats["scripts"]
    assert per["G_AC2"].verdict == "Failed"
    assert "DD2" in per["G_AC2"].reason
    assert per["F_DD2"].verdict == "Verified"


def test_verify_theorem_disabled_ac_axiom_blocks_transfer():
    report = verify_theorem(disabled_axioms=("AC1",))
    per = report.stats["scripts"]
    assert per["H_TA1"].verdict == "Failed"
    assert per["H_TA2"].verdict == "Verified"


def test_verify_theorem_unmarked_square_fails_instantiation():
    report = verify_theorem(unmark_square="P2")
    assert report.verdict == "Failed"
    per = report.stats["scripts"]
    failing = {k for k, v in per.items() if v.verdict == "Failed"}
    assert failing == {"G_AC2", "mu_trans", "H_TA2"}
    assert "P2" in per["mu_trans"].reason


def test_verify_theorem_corrupted_step_fails():
    from dataclasses import replace as dc_replace

    scripts = bundled_scripts()
    victim = scripts[6]
    step = victim.steps[0]
    bad_step = dc_replace(step, result=victim.claim_lhs)
    bad = dc_replace(victim, steps=[bad_step] + list(victim.steps[1:]))
    report = verify_theorem(scripts=[bad if s is victim else s
                                     for s in scripts])
    assert report.verdict == "Failed"
    assert report.stats["scripts"][victim.name].verdict == "Failed"
    assert report.stats["scripts"][victim.name].failed_step == 0


def test_theorem_runtime_budget():
    import time

    start = time.monotonic()
    report = verify_theorem()
    elapsed = time.monotonic() - start
    assert report.verdict == "Verified"
    assert elapsed < 10.0
