"""The built-in kernel-pair base, axiom systems, translations and bundled proofs.

This module packages the data needed to verify that monad algebras, descent
data and equivariant actions over a fixed base arrow coincide: the standard
kernel-pair base presentation, the three one-generator signature extensions
with their axiom equations, the three translations between them, and the
bundled proof scripts whose joint verification is the theorem.

The bundled scripts ship as data: one ``.strand`` file per extension under
``strandcheck/bundle/``, named by ``bundle_file_name``. ``bundled_scripts``
parses them on first use. ``_build_bundle`` is the authoring tool that
derives the scripts by region search; after changing it, regenerate the
files (the regeneration test in ``tests/test_bundle.py`` fails until they
match)::

    from pathlib import Path
    from strandcheck.descent import (
        _build_bundle, builtin_descent_base, bundle_file_name)
    from strandcheck.parser import format_script_file, script_file_for

    groups = {}
    for s in _build_bundle(builtin_descent_base()):
        groups.setdefault(s.signature.extension, []).append(s)
    for kind, scripts in groups.items():
        Path("src/strandcheck/bundle", bundle_file_name(kind)).write_text(
            format_script_file(script_file_for(scripts)), encoding="utf-8",
            newline="\n")

and keep ``BUNDLE_ORDER`` equal to the order ``_build_bundle`` derives.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from importlib.resources import files
from typing import Optional

from .base import (
    BasePresentation,
    PolygonType,
    empty_path,
    opposite,
    path_of,
)
from .calculus import (
    Coherence,
    Counit,
    DescentCell,
    Diagram,
    Layer,
    ObjTok,
    Shriek,
    Signature,
    SquareInv,
    Star,
    TERMINAL,
    Unit,
    cells,
    fiber,
    from_layers,
    identity_cells,
    identity_diagram,
    single,
    vcompose,
    whisker,
)
from .errors import ParseError, StrandcheckError
from .parser import parse_script_file
from .rewrite import (
    CheckReport,
    CheckerSession,
    DerivationBuilder,
    ProofScript,
    bc_expansion,
    check_script,
    mate2_expansion,
)


def builtin_descent_base() -> BasePresentation:
    """The kernel-pair presentation: f with its kernel pair and its iterate.

    Q stands for the pullback of f against itself with projections f1, f2
    and diagonal delta; R for the pullback of f2 against f1 with projections
    pi1, pi2 and composite projection pi.
    """
    base = BasePresentation()
    A, B, Q, R = (base.object(n) for n in "ABQR")
    f = base.arrow("f", B, A)
    f1 = base.arrow("f1", Q, B)
    f2 = base.arrow("f2", Q, B)
    delta = base.arrow("delta", B, Q)
    pi1 = base.arrow("pi1", R, Q)
    pi2 = base.arrow("pi2", R, Q)
    pi = base.arrow("pi", R, Q)
    base.relate(path_of(f1, f), path_of(f2, f))
    base.relate(path_of(pi2, f2), path_of(pi1, f1))
    base.relate(path_of(pi, f1), path_of(pi2, f1))
    base.relate(path_of(pi, f2), path_of(pi1, f2))
    base.relate(path_of(delta, f1), empty_path(B))
    base.relate(path_of(delta, f2), empty_path(B))
    base.mark_square("P1", f1, f2, f, f)
    base.mark_square("P2", pi2, pi1, f2, f1)
    return base


class _Names:
    """Arrow and square accessors for a descent base."""

    def __init__(self, base: BasePresentation):
        self.base = base
        for n in ("f", "f1", "f2", "delta", "pi1", "pi2", "pi"):
            setattr(self, n, base.arrow_by_name(n))
        self.B = base.object_by_name("B")
        self.Q = base.object_by_name("Q")
        self.R = base.object_by_name("R")
        self.P1 = base.square("P1")
        self.P2 = base.square("P2")
        self.x = ObjTok("X", self.B)

    @property
    def pt_P1(self) -> PolygonType:
        return PolygonType(path_of(self.f1, self.f), path_of(self.f2, self.f))

    def d_pt(self, i: int) -> PolygonType:
        fi = self.f1 if i == 1 else self.f2
        return PolygonType(empty_path(self.B), path_of(self.delta, fi))

    def j_pt(self) -> PolygonType:
        return PolygonType(path_of(self.pi2, self.f2), path_of(self.pi1, self.f1))

    def j_i_pt(self, i: int) -> PolygonType:
        fi = self.f1 if i == 1 else self.f2
        other = self.pi2 if i == 1 else self.pi1
        return PolygonType(path_of(self.pi, fi), path_of(other, fi))


def signature_for(kind: Optional[str], base: Optional[BasePresentation] = None) -> Signature:
    """The extension signature for one of the three descent generators.

    kind is None (plain bifibrational signature), "TA" (algebra structure
    cell alpha), "DD" (descent datum cell phi) or "AC" (action cell beta).
    """
    base = base if base is not None else builtin_descent_base()
    if kind is None:
        return Signature(base, extension=None)
    n = _Names(base)
    pair = None if kind == "TA" else (n.f1, n.f2)
    return Signature(base, extension=kind, f=n.f, obj=n.x, pair=pair)


# ---------------------------------------------------------------------------
# descent composites


def etaprime(base: BasePresentation) -> Diagram:
    """The comonadic unit candidate: empty string => [f1*, f2_shriek]."""
    n = _Names(base)
    eB, eQ = fiber(n.B), fiber(n.Q)
    l1 = Layer(identity_cells(eB), Coherence(n.d_pt(1)), identity_cells(eB))
    l2 = Layer(cells(eB, Star(n.f1)), Unit(n.f2), cells(eQ, Star(n.delta)))
    l3 = Layer(cells(eB, Star(n.f1), Shriek(n.f2)),
               Coherence(opposite(n.d_pt(2))), identity_cells(eB))
    return from_layers([l1, l2, l3])


def muprime(base: BasePresentation) -> Diagram:
    """The multiplication candidate on the composite f2-shriek after f1-star."""
    n = _Names(base)
    eB, eQ, eR = fiber(n.B), fiber(n.Q), fiber(n.R)
    l1 = Layer(cells(eB, Star(n.f1)), SquareInv(n.P2), cells(eQ, Shriek(n.f2)))
    l2 = Layer(identity_cells(eB), Coherence(opposite(n.j_i_pt(1))),
               cells(eR, Shriek(n.pi1), Shriek(n.f2)))
    k2 = whisker("left", cells(eB, Star(n.f1), Star(n.pi)),
                 mate2_expansion(n.j_i_pt(2)))
    l8 = Layer(cells(eB, Star(n.f1)), Counit(n.pi), cells(eQ, Shriek(n.f2)))
    return vcompose(vcompose(from_layers([l1, l2]), k2), from_layers([l8]))


def monad_mu(base: BasePresentation) -> Diagram:
    """The monad multiplication: the counit inside the monad string."""
    f = _Names(base).f
    return single(Counit(f), cells(fiber(f.src), Shriek(f)),
                  cells(fiber(f.dst), Star(f)))


# ---------------------------------------------------------------------------
# translations between the three structure cells


def translate_F(inner: Diagram, base: BasePresentation) -> Diagram:
    """Build a descent-datum-shaped diagram from an algebra-shaped one.

    inner: [X, f_shriek, f*] => [X]; result: [X, f1*] => [X, f2*].
    """
    n = _Names(base)
    eB, eQ = fiber(n.B), fiber(n.Q)
    l1 = Layer(cells(TERMINAL, n.x), Unit(n.f), cells(eB, Star(n.f1)))
    l2 = Layer(cells(TERMINAL, n.x, Shriek(n.f)), Coherence(n.pt_P1),
               identity_cells(eQ))
    return vcompose(from_layers([l1, l2]),
                    whisker("right", cells(eB, Star(n.f2)), inner))


def translate_G(inner: Diagram, base: BasePresentation) -> Diagram:
    """Build an action-shaped diagram from a descent-datum-shaped one.

    inner: [X, f1*] => [X, f2*]; result: [X, f1*, f2_shriek] => [X].
    """
    n = _Names(base)
    eB, eQ = fiber(n.B), fiber(n.Q)
    body = whisker("right", cells(eQ, Shriek(n.f2)), inner)
    last = Layer(cells(TERMINAL, n.x), Counit(n.f2), identity_cells(eB))
    return vcompose(body, from_layers([last]))


def translate_H(inner: Diagram, base: BasePresentation) -> Diagram:
    """Build an algebra-shaped diagram from an action-shaped one.

    inner: [X, f1*, f2_shriek] => [X]; result: [X, f_shriek, f*] => [X].
    """
    n = _Names(base)
    eB = fiber(n.B)
    first = Layer(cells(TERMINAL, n.x), SquareInv(n.P1), identity_cells(eB))
    return vcompose(from_layers([first]), inner)


def substitute_descent(d: Diagram, impl: Diagram) -> Diagram:
    """Replace every descent-generator layer with an implementing diagram.

    The implementation must have the generator's boundary; whiskers of the
    replaced layer are reapplied around it.
    """
    out = []
    for layer in d.layers:
        if isinstance(layer.gen, DescentCell):
            block = whisker("right", layer.right, impl)
            if layer.left.tokens:
                block = whisker("left", layer.left, block)
            out.extend(block.layers)
        else:
            out.append(layer)
    return from_layers(out, source=d.source)


# ---------------------------------------------------------------------------
# axiom systems


@dataclass(frozen=True)
class AxiomEquation:
    name: str
    lhs: Diagram
    rhs: Diagram


def axiom_equations(kind: str, base: Optional[BasePresentation] = None) -> list[AxiomEquation]:
    """The two defining equations of one extension's structure cell."""
    return _signature_axioms(signature_for(kind, base))


def _signature_axioms(sig: Signature) -> list[AxiomEquation]:
    """The two defining equations of ``sig``'s structure cell, stated with
    its own object token over the kernel-pair names of its base."""
    base = sig.base
    n = _Names(base)
    g = single(sig.descent_generator())
    eB, eQ = fiber(n.B), fiber(n.Q)
    xs = cells(TERMINAL, sig.obj)
    if sig.extension == "TA":
        eta_x = from_layers([Layer(xs, Unit(n.f), identity_cells(eB))])
        ta1 = AxiomEquation("TA1", vcompose(eta_x, g), identity_diagram(xs))
        mu_x = whisker("left", xs, monad_mu(base))
        ta2 = AxiomEquation(
            "TA2",
            vcompose(mu_x, g),
            vcompose(whisker("right", cells(eB, Shriek(n.f), Star(n.f)), g), g),
        )
        return [ta1, ta2]
    if sig.extension == "DD":
        d1_x = from_layers([Layer(xs, Coherence(n.d_pt(1)), identity_cells(eB))])
        d2inv_x = from_layers([Layer(xs, Coherence(opposite(n.d_pt(2))),
                                     identity_cells(eB))])
        eR = fiber(n.R)
        phi_delta = whisker("right", cells(eQ, Star(n.delta)), g)
        dd1 = AxiomEquation("DD1", vcompose(vcompose(d1_x, phi_delta), d2inv_x),
                            identity_diagram(xs))
        j_x = from_layers([Layer(xs, Coherence(n.j_pt()), identity_cells(eR))])
        lhs = vcompose(vcompose(whisker("right", cells(eQ, Star(n.pi2)), g), j_x),
                       whisker("right", cells(eQ, Star(n.pi1)), g))
        j1inv_x = from_layers([Layer(xs, Coherence(opposite(n.j_i_pt(1))),
                                     identity_cells(eR))])
        j2_x = from_layers([Layer(xs, Coherence(n.j_i_pt(2)), identity_cells(eR))])
        rhs = vcompose(vcompose(j1inv_x, whisker("right", cells(eQ, Star(n.pi)), g)),
                       j2_x)
        dd2 = AxiomEquation("DD2", lhs, rhs)
        return [dd1, dd2]
    ac1 = AxiomEquation("AC1", vcompose(whisker("left", xs, etaprime(base)), g),
                        identity_diagram(xs))
    ac2 = AxiomEquation(
        "AC2",
        vcompose(whisker("left", xs, muprime(base)), g),
        vcompose(whisker("right", cells(eB, Star(n.f1), Shriek(n.f2)), g), g),
    )
    return [ac1, ac2]


def session_for(sig: Signature, disabled_axioms=()) -> CheckerSession:
    """A checking session for ``sig`` holding its extension's axioms; a
    signature they cannot be stated over is unsupported input (``ParseError``)."""
    axioms = {}
    if sig.extension is not None:
        try:
            equations = _signature_axioms(sig)
        except StrandcheckError as exc:
            raise ParseError(f"the {sig.extension} axioms cannot be stated "
                             f"over this signature: {exc}") from None
        axioms = {eq.name: (eq.lhs, eq.rhs) for eq in equations}
    return CheckerSession(sig, axioms=axioms,
                          disabled_axioms=set(disabled_axioms))


# ---------------------------------------------------------------------------
# bundled proof scripts


def _psi_impl(base: BasePresentation, alpha: Diagram) -> Diagram:
    """The inverse descent-datum candidate: unit, inverted comparison, alpha."""
    n = _Names(base)
    eB, eQ = fiber(n.B), fiber(n.Q)
    xs = cells(TERMINAL, n.x)
    l1 = Layer(xs, Unit(n.f), cells(eB, Star(n.f2)))
    l2 = Layer(cells(TERMINAL, n.x, Shriek(n.f)),
               Coherence(opposite(n.pt_P1)), identity_cells(eQ))
    return vcompose(from_layers([l1, l2]),
                    whisker("right", cells(eB, Star(n.f1)), alpha))


def _double_square_inv(base: BasePresentation) -> Diagram:
    """Two comparison-inverse layers side by side on the doubled monad string."""
    n = _Names(base)
    eB = fiber(n.B)
    return from_layers([
        Layer(identity_cells(eB), SquareInv(n.P1),
              cells(eB, Shriek(n.f), Star(n.f))),
        Layer(cells(eB, Star(n.f1), Shriek(n.f2)), SquareInv(n.P1),
              identity_cells(eB)),
    ])


def _three_step_block(base: BasePresentation, middle: PolygonType,
                      outer_right_1, outer_right_3) -> Diagram:
    """A coherence block chi(P1); chi(middle); chi(P1) on a triple star string.

    The two P1 layers act on the inner [f*, f1*] pair; the middle layer acts
    on the outer pair left whiskered by f*.
    """
    n = _Names(base)
    A = n.f.dst
    eA, eQ, eR = fiber(A), fiber(n.Q), fiber(n.R)
    return from_layers([
        Layer(identity_cells(eA), Coherence(n.pt_P1),
              cells(eQ, Star(outer_right_1))),
        Layer(cells(eA, Star(n.f)), Coherence(middle), identity_cells(eR)),
        Layer(identity_cells(eA), Coherence(n.pt_P1),
              cells(eQ, Star(outer_right_3))),
    ], source=cells(eA, Star(n.f), Star(n.f1), Star(n.pi2)))


def _descent_datum_chi_block(base: BasePresentation) -> Diagram:
    """The pure-coherence block used when deriving the cocycle equation."""
    n = _Names(base)
    A = n.f.dst
    eA, eQ, eR = fiber(A), fiber(n.Q), fiber(n.R)
    return from_layers([
        Layer(cells(eA, Star(n.f)), Coherence(opposite(n.j_i_pt(1))),
              identity_cells(eR)),
        Layer(identity_cells(eA), Coherence(n.pt_P1), cells(eQ, Star(n.pi))),
        Layer(cells(eA, Star(n.f)), Coherence(n.j_i_pt(2)),
              identity_cells(eR)),
    ], source=cells(eA, Star(n.f), Star(n.f1), Star(n.pi2)))


def _build_bundle(base: BasePresentation):
    """Construct and check the thirteen bundled scripts in dependency order."""
    n = _Names(base)
    sessions = {k: session_for(signature_for(k, base))
                for k in ("TA", "DD", "AC")}
    alpha = single(sessions["TA"].signature.descent_generator())
    phi = single(sessions["DD"].signature.descent_generator())
    beta = single(sessions["AC"].signature.descent_generator())
    phi_impl = translate_F(alpha, base)
    psi_impl = _psi_impl(base, alpha)
    beta_impl = translate_G(phi, base)
    alpha_impl = translate_H(beta, base)
    xs = cells(TERMINAL, n.x)
    scripts = []

    def run(kind, builder):
        script = builder.finish()
        report = check_script(sessions[kind], script)
        if report.verdict != "Verified":
            raise RuntimeError(
                f"bundled script {script.name} failed to verify: "
                f"step {report.failed_step}: {report.reason}"
            )
        scripts.append(script)

    b = DerivationBuilder(sessions["TA"], "phi_iso_left",
                          vcompose(phi_impl, psi_impl),
                          identity_diagram(cells(TERMINAL, n.x, Star(n.f1))))
    b.axiom("TA2", "bwd")
    b.rule("R4.2", "fwd", arrow=n.f)
    b.simplify_coherence()
    b.axiom("TA1")
    run("TA", b)

    b = DerivationBuilder(sessions["TA"], "phi_iso_right",
                          vcompose(psi_impl, phi_impl),
                          identity_diagram(cells(TERMINAL, n.x, Star(n.f2))))
    b.axiom("TA2", "bwd")
    b.rule("R4.2", "fwd", arrow=n.f)
    b.simplify_coherence()
    b.axiom("TA1")
    run("TA", b)

    dd1, dd2 = axiom_equations("DD", base)
    b = DerivationBuilder(sessions["TA"], "F_DD1",
                          substitute_descent(dd1.lhs, phi_impl),
                          substitute_descent(dd1.rhs, phi_impl))
    b.simplify_coherence()
    b.axiom("TA1")
    run("TA", b)

    b = DerivationBuilder(sessions["TA"], "F_DD2",
                          substitute_descent(dd2.lhs, phi_impl),
                          substitute_descent(dd2.rhs, phi_impl))
    b.axiom("TA2", "bwd")
    b.rule("R4.2", "fwd", arrow=n.f)
    b.coherence_swap(_descent_datum_chi_block(base))
    run("TA", b)

    ac1, ac2 = axiom_equations("AC", base)
    b = DerivationBuilder(sessions["DD"], "G_AC1",
                          substitute_descent(ac1.lhs, beta_impl),
                          substitute_descent(ac1.rhs, beta_impl))
    b.rule("R4.2", "fwd", arrow=n.f2)
    b.axiom("DD1")
    run("DD", b)

    b = DerivationBuilder(sessions["DD"], "G_AC2",
                          substitute_descent(ac2.lhs, beta_impl),
                          substitute_descent(ac2.rhs, beta_impl))
    b.rule("R4.2", "fwd", arrow=n.pi)
    b.rule("R4.2", "fwd", arrow=n.f2)
    b.axiom("DD2", "bwd")
    b.rule("R4.2", "bwd", arrow=n.f2)
    b.rule("R5.2", "fwd", square=n.P2)
    run("DD", b)

    b = DerivationBuilder(sessions["AC"], "eta_trans",
                          vcompose(etaprime(base), bc_expansion(n.P1)),
                          single(Unit(n.f)))
    b.rule("R4.2", "fwd", arrow=n.f2)
    b.simplify_coherence()
    run("AC", b)

    b = DerivationBuilder(sessions["AC"], "mu_trans",
                          vcompose(_double_square_inv(base), muprime(base)),
                          vcompose(monad_mu(base), single(SquareInv(n.P1))))
    b.rule("R5.1", "bwd", square=n.P1, skip=2)
    b.rule("R4.2", "fwd", arrow=n.pi)
    b.rule("R4.2", "fwd", arrow=n.f2)
    b.coherence_swap(_three_step_block(base, n.j_pt(), n.pi2, n.pi1))
    b.rule("R4.2", "bwd", arrow=n.f2)
    b.rule("R4.2", "bwd", arrow=n.f, skip=3)
    b.rule("R5.2", "fwd", square=n.P2)
    b.rule("R5.2", "fwd", square=n.P1)
    b.rule("R5.2", "fwd", square=n.P1)
    run("AC", b)

    ta1, ta2 = axiom_equations("TA", base)
    b = DerivationBuilder(sessions["AC"], "H_TA1",
                          substitute_descent(ta1.lhs, alpha_impl),
                          substitute_descent(ta1.rhs, alpha_impl),
                          deps=("eta_trans",))
    b.prior("eta_trans", "bwd")
    b.rule("R5.1", "fwd", square=n.P1)
    b.axiom("AC1")
    run("AC", b)

    b = DerivationBuilder(sessions["AC"], "H_TA2",
                          substitute_descent(ta2.lhs, alpha_impl),
                          substitute_descent(ta2.rhs, alpha_impl),
                          deps=("mu_trans",))
    b.prior("mu_trans", "bwd")
    b.axiom("AC2")
    run("AC", b)

    b = DerivationBuilder(
        sessions["TA"], "roundtrip_HGF",
        translate_H(translate_G(translate_F(alpha, base), base), base), alpha)
    b.rule("R5.2", "fwd", square=n.P1)
    run("TA", b)

    b = DerivationBuilder(
        sessions["AC"], "roundtrip_GFH",
        translate_G(translate_F(translate_H(beta, base), base), base), beta)
    b.rule("R5.1", "fwd", square=n.P1)
    run("AC", b)

    b = DerivationBuilder(
        sessions["DD"], "roundtrip_FHG",
        translate_F(translate_H(translate_G(phi, base), base), base), phi)
    b.rule("R4.2", "bwd", arrow=n.f2)
    b.rule("R5.1", "fwd", square=n.P1)
    b.rule("R4.2", "fwd", arrow=n.f2)
    run("DD", b)

    return scripts


# The order in which the scripts are checked and reported: the order
# ``_build_bundle`` derives them in, which interleaves the three files.
BUNDLE_ORDER = (
    "phi_iso_left", "phi_iso_right", "F_DD1", "F_DD2", "G_AC1", "G_AC2",
    "eta_trans", "mu_trans", "H_TA1", "H_TA2",
    "roundtrip_HGF", "roundtrip_GFH", "roundtrip_FHG",
)

_BUNDLE: Optional[list] = None


def bundle_file_name(kind: str) -> str:
    """The file holding the bundled scripts of one extension."""
    return f"{kind.lower()}_bundle.strand"


def bundled_scripts() -> list[ProofScript]:
    """The thirteen proof scripts whose joint verification is the theorem.

    Parsed from the package data on first call, in ``BUNDLE_ORDER``.
    """
    global _BUNDLE
    if _BUNDLE is None:
        data = files("strandcheck") / "bundle"
        by_name = {}
        for kind in ("TA", "DD", "AC"):
            text = (data / bundle_file_name(kind)).read_text(encoding="utf-8")
            by_name.update((s.name, s) for s in parse_script_file(text).scripts)
        _BUNDLE = [by_name[name] for name in BUNDLE_ORDER]
    return list(_BUNDLE)


def verify_theorem(disabled_axioms=(), unmark_square: Optional[str] = None,
                   scripts: Optional[list] = None) -> CheckReport:
    """Check every bundled script in dependency order and aggregate.

    ``disabled_axioms`` and ``unmark_square`` weaken the checking sessions
    for negative controls; ``scripts`` substitutes a modified bundle.
    """
    todo = list(scripts) if scripts is not None else bundled_scripts()
    sessions: dict = {}
    per: dict = {}
    verdict, reason = "Verified", None
    for script in todo:
        sig = script.signature
        session = sessions.get(sig.extension)
        if session is None:
            session = session_for(sig, disabled_axioms)
            if unmark_square is not None:
                stripped = replace(sig.base, squares=[
                    s for s in sig.base.squares if s.label != unmark_square])
                session.signature = replace(sig, base=stripped)
            sessions[sig.extension] = session
        report = check_script(session, script)
        per[script.name] = report
        if report.verdict != "Verified" and verdict == "Verified":
            verdict = "Failed"
            reason = (f"{script.name}: step {report.failed_step}: "
                      f"{report.reason}")
    stats = {
        "total": len(todo),
        "verified": sum(1 for r in per.values() if r.verdict == "Verified"),
        "scripts": per,
    }
    return CheckReport("benabou_roubaud", verdict, reason=reason, stats=stats)
