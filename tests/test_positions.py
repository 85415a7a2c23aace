"""Step positions resolved on compact words, and the shared class table."""

import random
from importlib.resources import files

import pytest

from strandcheck import calculus
from strandcheck.calculus import (
    compact_word,
    exchange_canonical,
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
    Region,
    _blocks_at,
    _isotopy_class,
    _scan_regions,
    apply_step,
    extract_block,
    random_chi_diagram,
)

from exchange_oracle import region_fits


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
        cls = _isotopy_class(exchange_canonical(d))
        assert 10 <= len(cls.words) <= 3000
        _assert_fit_check_agrees(cls)


def test_fit_check_agrees_with_extraction_on_random_diagrams():
    sig = signature_for(None)
    rng = random.Random(9)
    for _ in range(15):
        d = random_chi_diagram(sig, rng, 4, 4)
        _assert_fit_check_agrees(_isotopy_class(d))


def _scanned_regions(cls, n):
    """Every region of height >= 1 in bounds in some word of the class, plus
    one past each edge and one at a negative first layer and strand."""
    tops = [max(word_widths(w, len(cls.source))[lo] for w in cls.words)
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


def _assert_scanners_agree(d):
    """The fixed-region scan equals the free scan filtered to the region."""
    d = exchange_canonical(d)
    free = {}
    for rep, region, block in _scan_regions(d):
        free.setdefault(region, []).append((rep, block))
    for region, inside in _scanned_regions(_isotopy_class(d), len(d.layers)):
        fixed = list(_blocks_at(d, region))
        assert fixed == free.get(region, []), region
        if not inside:
            assert fixed == [], region


def test_fixed_and_free_scans_agree_on_bundle_classes():
    scripts = {s.name: s for s in bundled_scripts()}
    for name, index in _SMALL_CLASSES:
        script = scripts[name]
        _assert_scanners_agree(
            ([script.claim_lhs] + [s.result for s in script.steps])[index])


def test_fixed_and_free_scans_agree_on_random_diagrams():
    sig = signature_for(None)
    rng = random.Random(9)
    for _ in range(15):
        _assert_scanners_agree(random_chi_diagram(sig, rng, 4, 4))


def test_checking_a_step_walks_its_class_once(monkeypatch):
    """The class canonicalization walks is the one the position search reads."""
    class_words = calculus.class_words
    walked = []

    def counting_class_words(word):
        walked.append(word)
        return class_words(word)

    monkeypatch.setattr(calculus, "class_words", counting_class_words)
    monkeypatch.setattr(calculus, "_CLASS_TABLE", {})
    monkeypatch.setattr(calculus, "_CANON_MEMO", {})
    script = next(s for s in bundled_scripts() if s.name == "mu_trans")
    d = script.steps[1].result
    apply_step(session_for(script.signature), d, script.steps[2])
    same_class = set(class_words(compact_word(d.layers)))
    assert len(same_class) == 780
    assert sum(w in same_class for w in walked) == 1
    assert exchange_canonical(d) == d


# mu_trans step 6 with its first layer shifted by one: the slowest
# rejection of the bundle's position mutants while every presentation of
# the class was expanded.
_STEP6 = "step rule R5.2(square=P2) fwd @ layers:6..10, strand:3, width:2 -> d12"
_STEP6_LO1 = _STEP6.replace("layers:6..10", "layers:7..10")


def test_mu_trans_step6_position_mutant_rejected(tmp_path, capsys):
    text = (files("strandcheck") / "bundle" / bundle_file_name("AC")).read_text(
        encoding="utf-8")
    assert text.count(_STEP6) == 1
    src = tmp_path / "ac_mutant.strand"
    src.write_text(text.replace(_STEP6, _STEP6_LO1), encoding="utf-8")
    assert main(["check", str(src)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "eta_trans: Verified",
        "mu_trans: Failed at step 6 (pattern for Rule(name='R5.2', "
        "binding=(('square', PullbackSquare(label='P2', a=pi2:R->Q, "
        "c=pi1:R->Q, d=f2:Q->B, b=f1:Q->B)),), direction='fwd') does not "
        "occur at Region(lo=7, hi=10, strand=3, width=2))",
        "H_TA1: Verified",
        "H_TA2: Failed at step 0 (equality mu_trans has not been verified "
        "in this session)",
        "roundtrip_GFH: Verified",
    ]
