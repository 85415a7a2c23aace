"""Step positions resolved on compact words by a search over exchange."""

import random
from dataclasses import replace
from importlib.resources import files

import pytest

from strandcheck import calculus, rewrite
from strandcheck.calculus import (
    Diagram,
    class_words,
    compact_word,
    exchange_canonical,
    expand_word,
    region_misfit,
    word_widths,
)
from strandcheck.cli import main
from strandcheck.descent import (
    bundle_file_name,
    bundled_scripts,
    session_for,
    signature_for,
)
from strandcheck.errors import PatternNotFound
from strandcheck.rewrite import (
    Axiom,
    PriorEquality,
    Region,
    Rule,
    _blocks_at,
    apply_step,
    check_script,
    extract_block,
    random_chi_diagram,
    splice_block,
)

from exchange_oracle import region_fits, symmetric_closure


def _regions(d):
    """Every region of ``d`` in bounds, plus one step past each edge."""
    n = len(d.layers)
    widths = word_widths(compact_word(d.layers), len(d.source))
    for lo in range(-1, n + 2):
        top = widths[min(max(lo, 0), n)]
        for hi in range(lo, n + 2):
            for strand in range(-1, top + 2):
                for width in range(top - strand + 2):
                    yield lo, hi, strand, width


def _class_presentations(d):
    """Every presentation of ``d``'s exchange class, expanded."""
    return [Diagram(d.source, d.target, expand_word(d.source, w))
            for w in class_words(compact_word(d.layers))]


def _assert_fit_check_agrees(cls):
    for rep in cls:
        word = compact_word(rep.layers)
        for lo, hi, strand, width in _regions(rep):
            fits = region_misfit(word, len(rep.source), lo, hi, strand,
                                 width) is None
            assert fits == region_fits(rep, lo, hi, strand, width)
            region = Region(lo, hi, strand, width)
            if fits:
                block, _ = extract_block(rep, region)
                assert len(block.layers) == hi - lo
            else:
                with pytest.raises(PatternNotFound):
                    extract_block(rep, region)


# (script, index into the claim's left side and the step results): small
# bundle classes that together hold units, counits, comparison inverses,
# coherence cells and a descent cell.
_SMALL_CLASSES = (("eta_trans", 0), ("mu_trans", 8), ("roundtrip_FHG", 1))


def test_fit_check_agrees_with_extraction_on_bundle_classes():
    scripts = {s.name: s for s in bundled_scripts()}
    for name, index in _SMALL_CLASSES:
        script = scripts[name]
        d = ([script.claim_lhs] + [s.result for s in script.steps])[index]
        cls = _class_presentations(exchange_canonical(d))
        assert 10 <= len(cls) <= 3000
        _assert_fit_check_agrees(cls)


def test_fit_check_agrees_with_extraction_on_random_diagrams():
    sig = signature_for(None)
    rng = random.Random(9)
    for _ in range(15):
        d = random_chi_diagram(sig, rng, 4, 4)
        _assert_fit_check_agrees(_class_presentations(d))


def test_extract_then_splice_gives_back_every_bundle_diagram():
    """Splicing the block cut at a region back in restores the diagram, at
    every region that fits in every stated diagram of the bundle (claim
    sides and step results), whose blocks hold every kind of generator."""
    kinds, regions = set(), 0
    for script in bundled_scripts():
        for d in (script.claim_lhs, script.claim_rhs,
                  *(step.result for step in script.steps)):
            word = compact_word(d.layers)
            for fields in _regions(d):
                if region_misfit(word, len(d.source), *fields) is not None:
                    continue
                region = Region(*fields)
                block, _ = extract_block(d, region)
                assert splice_block(d, region, block) == d, (script.name, region)
                kinds.update(type(layer.gen).__name__ for layer in block.layers)
                regions += 1
    assert kinds == {"Coherence", "Unit", "Counit", "SquareInv", "DescentCell"}
    assert regions > 10000


def _closure_regions(closure, top_width, n):
    """Every region of height >= 1 in bounds in some presentation, plus one
    past each edge and one at a negative first layer and strand."""
    tops = [max(word_widths(compact_word(ls), top_width)[lo] for ls in closure)
            for lo in range(n + 1)]
    for lo in range(-1, n + 1):
        top = tops[max(lo, 0)]
        for hi in range(lo + 1, n + 2):
            for strand in range(-1, top + 2):
                for width in range(top - strand + 2):
                    region = Region(lo, hi, strand, width)
                    inside = lo >= 0 and hi <= n and strand >= 0 and (
                        strand + width <= top)
                    yield region, inside


def _assert_blocks_at_contract(d):
    """``_blocks_at`` yields each presentation of the symmetric closure of
    ``d`` where the region fits, once, ``d`` first when it fits there, and
    so every one the walk of the canonical class found."""
    closure = [Diagram(d.source, d.target, ls) for ls in symmetric_closure(d)]
    walked = class_words(compact_word(exchange_canonical(d).layers))
    for region, inside in _closure_regions([p.layers for p in closure],
                                           len(d.source), len(d.layers)):
        fields = (region.lo, region.hi, region.strand, region.width)
        found = list(_blocks_at(d, region))
        reps = [rep.layers for rep, _ in found]
        assert len(reps) == len(set(reps)), region
        assert set(reps) == {p.layers for p in closure
                             if region_fits(p, *fields)}, region
        if region_fits(d, *fields):
            assert found[0][0] == d, region
        words = {compact_word(ls) for ls in reps}
        assert all(w in words for w in walked
                   if region_misfit(w, len(d.source), *fields) is None), region
        for rep, block in found:
            assert block == extract_block(rep, region)[0]
        if not inside:
            assert found == [], region


def test_blocks_at_searches_the_symmetric_class_of_bundle_diagrams():
    scripts = {s.name: s for s in bundled_scripts()}
    for name, index in _SMALL_CLASSES:
        script = scripts[name]
        _assert_blocks_at_contract(
            ([script.claim_lhs] + [s.result for s in script.steps])[index])


def test_blocks_at_searches_the_symmetric_class_of_random_diagrams():
    sig = signature_for(None)
    rng = random.Random(9)
    for _ in range(15):
        _assert_blocks_at_contract(random_chi_diagram(sig, rng, 4, 4))


def test_checking_walks_no_class(monkeypatch):
    """Checking every bundled script neither walks an exchange class nor
    takes a canonical form."""
    walks, canonical = [], []
    class_words_ = calculus.class_words
    exchange_canonical_ = calculus.exchange_canonical

    def counting_class_words(word):
        walks.append(word)
        return class_words_(word)

    def counting_canonical(d):
        canonical.append(d)
        return exchange_canonical_(d)

    for module in (calculus, rewrite):
        monkeypatch.setattr(module, "class_words", counting_class_words)
        monkeypatch.setattr(module, "exchange_canonical", counting_canonical)
    monkeypatch.setattr(calculus, "_CANON_MEMO", {})
    scripts = bundled_scripts()
    assert len(scripts) == 13
    sessions = {}
    for script in scripts:
        sig = script.signature
        session = sessions.setdefault(sig.extension, session_for(sig))
        assert check_script(session, script).ok, script.name
    assert walks == [] and canonical == []


def _shifted_regions(region):
    """The region with one of ``lo``, ``hi`` and ``width`` moved by one:
    another block height or top width."""
    for field, by in (("lo", 1), ("lo", -1), ("hi", 1), ("hi", -1),
                      ("width", 1), ("width", -1)):
        yield replace(region, **{field: getattr(region, field) + by})


def test_wrong_height_or_width_is_rejected_without_a_walk(monkeypatch):
    """Every rule, axiom and prior step of the bundle, with its block's
    height or top width moved by one, fails with the message a full walk
    would end with, and no exchange class is walked."""
    walked = []
    exchange_walk_ = rewrite.exchange_walk

    def counting_walk(word):
        for w in exchange_walk_(word):
            walked.append(w)
            yield w

    sessions, tried = {}, 0
    for script in bundled_scripts():
        session = sessions.setdefault(script.signature.extension,
                                      session_for(script.signature))
        cur = script.claim_lhs
        for step in script.steps:
            just = step.justification
            if isinstance(just, (Rule, Axiom, PriorEquality)):
                monkeypatch.setattr(rewrite, "exchange_walk", counting_walk)
                for region in _shifted_regions(step.region):
                    with pytest.raises(PatternNotFound) as err:
                        apply_step(session, cur, replace(step, region=region))
                    assert str(err.value) == (
                        f"pattern for {just!r} does not occur at {region}")
                    tried += 1
                monkeypatch.setattr(rewrite, "exchange_walk", exchange_walk_)
            cur = apply_step(session, cur, step)
        assert check_script(session, script).ok, script.name
    assert walked == []
    assert tried > 200


_STEP6 = "step rule R5.2(square=P2) fwd @ layers:6..10, strand:3, width:2 -> d12"


def _check_ac_mutant(tmp_path, capsys, line):
    """The verdict lines of ``check`` on the AC bundle with ``_STEP6``
    replaced by ``line``."""
    text = (files("strandcheck") / "bundle" / bundle_file_name("AC")).read_text(
        encoding="utf-8")
    assert text.count(_STEP6) == 1
    src = tmp_path / "ac_mutant.strand"
    src.write_text(text.replace(_STEP6, line), encoding="utf-8")
    assert main(["check", str(src)]) == 1
    return capsys.readouterr().out.splitlines()


def _step6_verdicts(region):
    return [
        "eta_trans: Verified",
        "mu_trans: Failed at step 6 (pattern for Rule(name='R5.2', "
        "binding=(('square', PullbackSquare(label='P2', a=pi2:R->Q, "
        "c=pi1:R->Q, d=f2:Q->B, b=f1:Q->B)),), direction='fwd') does not "
        f"occur at {region})",
        "H_TA1: Verified",
        "H_TA2: Failed at step 0 (equality mu_trans has not been verified "
        "in this session)",
        "roundtrip_GFH: Verified",
    ]


def test_mu_trans_step6_position_mutant_rejected(tmp_path, capsys):
    """mu_trans step 6 with its first layer shifted by one: the block is
    a layer shorter than the rule's pattern, so the step is rejected
    before any presentation is walked."""
    got = _check_ac_mutant(tmp_path, capsys, _STEP6.replace(
        "layers:6..10", "layers:7..10"))
    assert got == _step6_verdicts(Region(lo=7, hi=10, strand=3, width=2))


def test_mu_trans_step6_strand_mutant_rejected_by_a_full_walk(tmp_path, capsys):
    """mu_trans step 6 with its first strand shifted by one: height and
    width fit the pattern, so the rejection walks the whole 46,160-word
    class of the step's input; the slowest rejection among the bundle's
    position mutants."""
    got = _check_ac_mutant(tmp_path, capsys, _STEP6.replace(
        "strand:3", "strand:4"))
    assert got == _step6_verdicts(Region(lo=6, hi=10, strand=4, width=2))
