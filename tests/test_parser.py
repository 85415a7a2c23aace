"""The proof-script text format: printing, parsing, round-trips."""

import typing

import pytest

from strandcheck.calculus import (
    Coherence,
    Counit,
    GenTwoCell,
    ObjTok,
    Shriek,
    SquareInv,
    Star,
    TERMINAL,
    Unit,
    cells,
    fiber,
    single,
)
from strandcheck.descent import (
    _Names,
    axiom_equations,
    builtin_descent_base,
    bundled_scripts,
    signature_for,
)
from strandcheck.errors import ParseError
from strandcheck.parser import (
    format_base_block,
    format_diagram_block,
    format_path,
    format_signature_block,
    format_script_file,
    parse_script_file,
    script_file_for,
)
from strandcheck.rewrite import CheckerSession, check_script


@pytest.fixture(scope="module")
def names():
    return _Names(builtin_descent_base())


@pytest.fixture(scope="module")
def bundles():
    groups = {}
    for s in bundled_scripts():
        groups.setdefault(s.signature.extension, []).append(s)
    return groups


def _base_text(names):
    return "\n".join(format_base_block(names.base))


def test_roundtrip_is_fixed_point(bundles):
    for group in bundles.values():
        text = format_script_file(script_file_for(group))
        assert format_script_file(parse_script_file(text)) == text


def test_roundtrip_is_structural(bundles):
    for group in bundles.values():
        sf = script_file_for(group)
        sf2 = parse_script_file(format_script_file(sf))
        assert sf2.base == sf.base
        assert sf2.signature == sf.signature
        assert sf2.diagrams == sf.diagrams
        for a, b in zip(sf.scripts, sf2.scripts):
            assert (a.name, a.deps) == (b.name, b.deps)
            assert a.claim_lhs == b.claim_lhs
            assert a.claim_rhs == b.claim_rhs
            assert a.steps == b.steps


def test_parsed_scripts_verify(bundles):
    group = bundles["TA"]
    sf = parse_script_file(format_script_file(script_file_for(group)))
    axioms = {eq.name: (eq.lhs, eq.rhs)
              for eq in axiom_equations("TA", sf.base)}
    session = CheckerSession(sf.signature, axioms=axioms)
    for script in sf.scripts:
        assert check_script(session, script).verdict == "Verified", script.name


def test_path_literals_roundtrip(names):
    paths = [
        cells(TERMINAL, names.x, Star(names.f1), Shriek(names.f2)),
        cells(fiber(names.B), Shriek(names.f), Star(names.f)),
        cells(fiber(names.Q)),
        cells(TERMINAL),
    ]
    for p in paths:
        text = _base_text(names) + "\n\n[signature]\nextension none\n\n" + \
            f"[diagram d : {format_path(p)} => {format_path(p)}]\n"
        sf = parse_script_file(text)
        d = sf.diagrams["d"]
        assert d.source == p and d.target == p


def test_generator_literals_parse(names):
    text = _base_text(names) + """

[signature]
extension none

[diagram d : f* f1* => f* f1*]
layer id(A) | chi(f1;f = f2;f) | id(Q)
layer id(A) | chi(f2;f = f1;f) | id(Q)

[diagram z : f* => f*]
layer f* | eta(f) | id(B)
layer id(A) | eps(f) | f*
"""
    sf = parse_script_file(text)
    gens = [l.gen for l in sf.diagrams["d"].layers]
    assert isinstance(gens[0], Coherence)
    assert gens[0].pt.top.names() == ("f1", "f")
    zgens = [l.gen for l in sf.diagrams["z"].layers]
    assert isinstance(zgens[0], Unit) and zgens[0].arrow == names.f


def test_every_generator_kind_roundtrips(names):
    """Each kind of two-cell generator prints to a layer line that parses
    back to the same generator, so no kind lacks a text form."""
    plain = signature_for(None, names.base)
    cases = [(plain, g) for g in (Coherence(names.pt_P1), Unit(names.f),
                                  Counit(names.f), SquareInv(names.P1))]
    for kind in ("TA", "DD", "AC"):
        sig = signature_for(kind, names.base)
        cases.append((sig, sig.descent_generator()))
    assert {type(g) for _, g in cases} == set(typing.get_args(GenTwoCell))
    for sig, g in cases:
        text = "\n".join(format_base_block(names.base)
                         + format_signature_block(sig)
                         + format_diagram_block("d", single(g))) + "\n"
        (layer,) = parse_script_file(text).diagrams["d"].layers
        assert layer.gen == g


def test_descent_generator_requires_matching_extension(names):
    text = _base_text(names) + """

[signature]
extension TA
arrow f
object X @ B

[diagram d : X@B f1* => X@B f2*]
layer id(1) | phi | id(Q)
"""
    with pytest.raises(ParseError) as err:
        parse_script_file(text)
    assert "phi" in str(err.value)


def test_parse_errors_carry_line_numbers(names):
    text = _base_text(names) + "\n\n[signature]\nextension none\n\nbroken line\n"
    with pytest.raises(ParseError) as err:
        parse_script_file(text)
    assert err.value.line is not None
    assert "line" in str(err.value)


def test_parse_errors_name_their_own_line(bundles):
    """The line number of an error deep in a file is the line it is on:
    the blank lines and sections before it do not shift it."""
    lines = format_script_file(script_file_for(bundles["TA"])).split("\n")
    at = max(i for i, l in enumerate(lines) if "| eta(f) |" in l)
    lines[at] = lines[at].replace("eta(f)", "eta(zz)")
    with pytest.raises(ParseError) as err:
        parse_script_file("\n".join(lines))
    assert err.value.line == at + 1 and "zz" in str(err.value)


@pytest.mark.parametrize("mutation,needle", [
    ("[base\nobject A", "section"),
    ("[nonsense]\nfoo bar", "unknown section"),
    ("object A", "before the first section"),
])
def test_malformed_headers(mutation, needle):
    with pytest.raises(ParseError) as err:
        parse_script_file(mutation + "\n")
    assert needle in str(err.value)


def test_missing_base_section():
    with pytest.raises(ParseError) as err:
        parse_script_file("# nothing but comments\n")
    assert "base" in str(err.value)


def test_signature_before_base_rejected():
    with pytest.raises(ParseError):
        parse_script_file("[signature]\nextension none\n")


def test_duplicate_diagram_name(names):
    text = _base_text(names) + """

[diagram d : id(B) => id(B)]

[diagram d : id(B) => id(B)]
"""
    with pytest.raises(ParseError) as err:
        parse_script_file(text)
    assert "duplicate" in str(err.value)


def test_script_without_claim(names):
    text = _base_text(names) + "\n\n[script s]\n"
    with pytest.raises(ParseError) as err:
        parse_script_file(text)
    assert "claim" in str(err.value)


def test_claim_with_unknown_diagram(names):
    text = _base_text(names) + "\n\n[script s]\nclaim d0 = d1\n"
    with pytest.raises(ParseError) as err:
        parse_script_file(text)
    assert "unknown diagram" in str(err.value)


def test_step_grammar_errors(names):
    prefix = _base_text(names) + """

[diagram d : id(B) => id(B)]

[script s]
claim d = d
"""
    bad_lines = [
        "step canonical @ layers:0..0, strand:0, width:0 -> d",
        "step rule R4.2(arrow=f) fwd -> d",
        "step rule R4.2(arrow=f) sideways @ layers:0..0, strand:0, width:0 -> d",
        "step axiom TA1 fwd @ layers:0..0, strand:nope, width:0 -> d",
        "step mystery kind @ layers:0..0, strand:0, width:0 -> d",
    ]
    for line in bad_lines:
        with pytest.raises(ParseError):
            parse_script_file(prefix + line + "\n")


def test_unknown_binding_key_rejected(names):
    text = _base_text(names) + """

[diagram d : id(B) => id(B)]

[script s]
claim d = d
step rule R4.2(sprocket=f) fwd @ layers:0..0, strand:0, width:0 -> d
"""
    with pytest.raises(ParseError) as err:
        parse_script_file(text)
    assert "binding" in str(err.value)


def test_polygon_binding_roundtrip(names):
    text = _base_text(names) + """

[diagram d : id(B) => id(B)]

[script s]
claim d = d
step rule R2(pt1=(f1;f = f2;f), pt2=(f2;f = f1;f)) fwd @ layers:0..2, strand:0, width:2 -> d
"""
    sf = parse_script_file(text)
    step = sf.scripts[0].steps[0]
    binding = dict(step.justification.binding)
    assert binding["pt1"].top.names() == ("f1", "f")
    assert binding["pt2"].bottom.names() == ("f1", "f")
    assert format_script_file(sf) == format_script_file(
        parse_script_file(format_script_file(sf)))


def test_macros_section(names):
    good = (_base_text(names) + "\n\n[macros]\nbuiltin BC\nbuiltin mate2\n"
            "builtin H_alpha\nbuiltin k1\n")
    parse_script_file(good)
    bad = _base_text(names) + "\n\n[macros]\nbuiltin sprocket\n"
    with pytest.raises(ParseError):
        parse_script_file(bad)
    worse = _base_text(names) + "\n\n[macros]\nmacro m = d0\n"
    with pytest.raises(ParseError):
        parse_script_file(worse)


def test_comments_and_blank_lines_ignored(names):
    text = "# leading comment\n\n" + _base_text(names) + """

[diagram d : id(B) => id(B)]  # trailing? no, headers end the line

[script s]  # not really
claim d = d   # the trivial claim
"""
    # inline comments after headers are invalid section syntax; rewrite
    text = text.replace("]  # trailing? no, headers end the line", "]")
    text = text.replace("]  # not really", "]")
    sf = parse_script_file(text)
    assert sf.scripts[0].claim_lhs.is_identity()


def test_identity_diagram_needs_equal_boundaries(names):
    text = _base_text(names) + "\n\n[diagram d : f1* => f2*]\n"
    with pytest.raises(ParseError):
        parse_script_file(text)


def test_pullback_declaration_checks_commutativity():
    text = """[base]
object A
object B
arrow f : B -> A
arrow g : B -> A
pullback P : a=f c=g d=f b=f
"""
    with pytest.raises(ParseError) as err:
        parse_script_file(text)
    assert "pullback" in str(err.value)


def test_objtok_parses(names):
    text = _base_text(names) + """

[signature]
extension TA
arrow f
object X @ B

[diagram d : X@B => X@B]
"""
    sf = parse_script_file(text)
    tok = sf.diagrams["d"].source.tokens[0]
    assert tok == ObjTok("X", names.B)
    assert sf.signature.descent_generator().name == "alpha"
    assert single(sf.signature.descent_generator())
