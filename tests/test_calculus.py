"""Layered diagrams, generator boundaries, canonical forms and isotopy."""

import random
from collections import defaultdict
from dataclasses import fields, is_dataclass
from importlib.resources import files

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strandcheck import base as base_module
from strandcheck import calculus
from strandcheck.base import (
    BasePresentation,
    PolygonType,
    empty_path,
    path_of,
)
from strandcheck.calculus import (
    Coherence,
    Counit,
    DescentCell,
    Diagram,
    Layer,
    ObjTok,
    Shriek,
    SquareInv,
    Star,
    TERMINAL,
    Unit,
    cells,
    class_words,
    compact_word,
    concat_cells,
    exchange_canonical,
    exchange_walk,
    expand_word,
    fiber,
    from_layers,
    generator_boundary,
    hcompose,
    identity_cells,
    identity_diagram,
    isotopic,
    shriek_lift,
    single,
    slice_cells,
    star_lift,
    unstar,
    vcompose,
    whisker,
)
from strandcheck.descent import bundle_file_name, bundled_scripts, signature_for
from strandcheck.errors import BoundaryMismatch, NonComposable
from strandcheck.parser import parse_script_file
from strandcheck.rewrite import random_chi_diagram

from exchange_oracle import swap_adjacent, symmetric_closure, tuple_walk


@pytest.fixture
def base():
    b = BasePresentation()
    A, B, Q = b.object("A"), b.object("B"), b.object("Q")
    b.arrow("f", B, A)
    b.arrow("g", A, B)
    b.arrow("f1", Q, B)
    b.arrow("f2", Q, B)
    b.relate(path_of(b.arrow_by_name("f1"), b.arrow_by_name("f")),
             path_of(b.arrow_by_name("f2"), b.arrow_by_name("f")))
    b.mark_square("P1", b.arrow_by_name("f1"), b.arrow_by_name("f2"),
                  b.arrow_by_name("f"), b.arrow_by_name("f"))
    return b


def test_star_lift_reverses(base):
    f, g = base.arrow_by_name("f"), base.arrow_by_name("g")
    p = path_of(g, f)  # A -> B -> A
    lifted = star_lift(p)
    assert lifted.tokens == (Star(f), Star(g))
    assert lifted.dom == fiber(p.dst) and lifted.cod == fiber(p.src)
    assert unstar(lifted) == p


def test_shriek_lift_preserves(base):
    f, g = base.arrow_by_name("f"), base.arrow_by_name("g")
    p = path_of(g, f)
    lifted = shriek_lift(p)
    assert lifted.tokens == (Shriek(g), Shriek(f))
    assert lifted.dom == fiber(p.src) and lifted.cod == fiber(p.dst)


def test_star_lift_antihomomorphism(base):
    from strandcheck.base import compose_paths
    f, g = base.arrow_by_name("f"), base.arrow_by_name("g")
    p, q = path_of(g), path_of(f)
    assert star_lift(compose_paths(p, q)) == concat_cells(star_lift(q), star_lift(p))


def test_cells_composability(base):
    f, g = base.arrow_by_name("f"), base.arrow_by_name("g")
    with pytest.raises(NonComposable):
        cells(fiber(f.dst), Star(f), Star(f))  # f* ends at E_B, f* starts at E_A
    ok = cells(fiber(f.dst), Star(f), Star(g))
    assert ok.cod == fiber(f.dst)


def test_object_token_leftmost_only(base):
    f = base.arrow_by_name("f")
    x = ObjTok("X", f.dst)
    p = cells(TERMINAL, x, Star(f))
    assert p.cod == fiber(f.src)
    with pytest.raises(NonComposable):
        cells(TERMINAL, x, x)


def test_generator_boundaries(base):
    f = base.arrow_by_name("f")
    f1, f2 = base.arrow_by_name("f1"), base.arrow_by_name("f2")
    sq = base.square("P1")

    eta_s, eta_t = generator_boundary(Unit(f))
    assert eta_s == identity_cells(fiber(f.src))
    assert eta_t == cells(fiber(f.src), Shriek(f), Star(f))

    eps_s, eps_t = generator_boundary(Counit(f))
    assert eps_s == cells(fiber(f.dst), Star(f), Shriek(f))
    assert eps_t == identity_cells(fiber(f.dst))

    bc_s, bc_t = generator_boundary(SquareInv(sq))
    assert bc_s == cells(fiber(f.src), Shriek(f), Star(f))
    assert bc_t == cells(fiber(f1.dst), Star(f1), Shriek(f2))

    pt = PolygonType(path_of(f1, f), path_of(f2, f))
    chi_s, chi_t = generator_boundary(Coherence(pt))
    assert chi_s == cells(fiber(f.dst), Star(f), Star(f1))
    assert chi_t == cells(fiber(f.dst), Star(f), Star(f2))


def test_descent_generator_boundaries(base):
    f = base.arrow_by_name("f")
    f1, f2 = base.arrow_by_name("f1"), base.arrow_by_name("f2")
    x = ObjTok("X", f.src)

    a_s, a_t = generator_boundary(DescentCell("alpha", x, f))
    assert a_s == cells(TERMINAL, x, Shriek(f), Star(f))
    assert a_t == cells(TERMINAL, x)

    p_s, p_t = generator_boundary(DescentCell("phi", x, f, (f1, f2)))
    assert p_s == cells(TERMINAL, x, Star(f1))
    assert p_t == cells(TERMINAL, x, Star(f2))

    b_s, b_t = generator_boundary(DescentCell("beta", x, f, (f1, f2)))
    assert b_s == cells(TERMINAL, x, Star(f1), Shriek(f2))
    assert b_t == cells(TERMINAL, x)


def test_diagram_boundary_chain_checked(base):
    f = base.arrow_by_name("f")
    eta = Layer(identity_cells(fiber(f.src)), Unit(f), identity_cells(fiber(f.src)))
    eps = Layer(identity_cells(fiber(f.dst)), Counit(f), identity_cells(fiber(f.dst)))
    with pytest.raises(BoundaryMismatch):
        Diagram(eta.boundary()[0], eps.boundary()[1], (eta, eps))


def test_vcompose_and_identity(base):
    f = base.arrow_by_name("f")
    d = single(Unit(f))
    left_id = identity_diagram(d.source)
    assert vcompose(left_id, d) == d
    assert vcompose(d, identity_diagram(d.target)) == d
    with pytest.raises(BoundaryMismatch):
        vcompose(d, d)


def test_whisker_shifts_offsets(base):
    f = base.arrow_by_name("f")
    d = single(Unit(f))
    w = whisker("left", cells(fiber(f.dst), Star(f)), d)
    assert w.layers[0].offset == 1
    assert w.source == cells(fiber(f.dst), Star(f))
    w2 = whisker("right", cells(fiber(f.src), Shriek(f)), d)
    assert w2.layers[0].offset == 0
    assert len(w2.source) == 1


def test_exchange_swaps_disjoint_layers(base):
    """Two units stacked side by side canonicalize identically in both orders."""
    f = base.arrow_by_name("f")
    ef = fiber(f.src)
    l1 = Layer(identity_cells(ef), Unit(f), identity_cells(ef))
    l2_right = Layer(l1.boundary()[1], Unit(f), identity_cells(ef))
    order1 = from_layers([l1, l2_right])
    l2_left = Layer(identity_cells(ef), Unit(f), l1.boundary()[1])
    order2 = from_layers([l1, l2_left])
    assert order1.source == order2.source and order1.target == order2.target
    assert isotopic(order1, order2)
    assert exchange_canonical(order1) == exchange_canonical(order2)


def test_exchange_respects_interaction(base):
    """eta(f) then eps(f) on the same strand does not commute with itself."""
    f = base.arrow_by_name("f")
    eta = Layer(identity_cells(fiber(f.src)), Unit(f), identity_cells(fiber(f.src)))
    # can't slide eps above eta: they share strands, so canonical form is stable
    d = from_layers([eta])
    assert exchange_canonical(d) == d


def test_isotopic_rejects_different_boundaries(base):
    f, g = base.arrow_by_name("f"), base.arrow_by_name("g")
    assert not isotopic(single(Unit(f)), single(Unit(g)))


def _random_chi_stack(base, rng, n_layers):
    """A stack of whiskered coherence cells over one long star string."""
    f, g = base.arrow_by_name("f"), base.arrow_by_name("g")
    f1, f2 = base.arrow_by_name("f1"), base.arrow_by_name("f2")
    pt = PolygonType(path_of(f1, f), path_of(f2, f))
    pt_back = PolygonType(path_of(f2, f), path_of(f1, f))
    # ambient string: alternating f*, g* segments around chi slots
    layers = []
    ambient = cells(fiber(f.dst), Star(f), Star(g), Star(f), Star(g))
    at = ambient
    for _ in range(n_layers):
        use = pt if rng.random() < 0.5 else pt_back
        chis, chit = star_lift(use.top), star_lift(use.bottom)
        k = rng.randrange(len(at) - len(chis) + 1) if len(at) >= len(chis) else 0
        # only place where the string matches the chi source
        placed = False
        for k in range(len(at) - len(chis) + 1):
            if at.tokens[k : k + len(chis)] == chis.tokens:
                layer = Layer(slice_cells(at, 0, k), Coherence(use),
                              slice_cells(at, k + len(chis)))
                layers.append(layer)
                at = layer.boundary()[1]
                placed = True
                break
        if not placed:
            break
    return from_layers(layers, source=ambient) if layers else identity_diagram(ambient)


def _bfs_isotopy_class(d):
    """All layer orderings reachable by adjacent exchanges (oracle)."""
    seen = {d.layers}
    frontier = [d.layers]
    while frontier:
        cur = frontier.pop()
        for i in range(len(cur) - 1):
            sw = swap_adjacent(cur[i], cur[i + 1])
            if sw is None:
                continue
            nxt = cur[:i] + sw + cur[i + 2 :]
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def test_canonical_form_oracle_small(base):
    """Greedy canonical form is constant on each BFS-computed isotopy class."""
    rng = random.Random(11)
    checked = 0
    for _ in range(60):
        d = _random_chi_stack(base, rng, rng.randrange(1, 5))
        cls = _bfs_isotopy_class(d)
        canon = {exchange_canonical(Diagram(d.source, d.target, ls)) for ls in cls}
        assert len(canon) == 1
        assert canon.pop() == exchange_canonical(d)
        checked += 1
    assert checked == 60


def test_canonical_idempotent(base):
    rng = random.Random(5)
    for _ in range(40):
        d = _random_chi_stack(base, rng, rng.randrange(0, 5))
        c = exchange_canonical(d)
        assert exchange_canonical(c) == c


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=2**30))
@settings(max_examples=60, deadline=None)
def test_canonical_stable_under_shuffling_property(n_layers, seed):
    b = BasePresentation()
    A, B, Q = b.object("A"), b.object("B"), b.object("Q")
    b.arrow("f", B, A)
    b.arrow("g", A, B)
    f1 = b.arrow("f1", Q, B)
    f2 = b.arrow("f2", Q, B)
    b.relate(path_of(f1, b.arrow_by_name("f")), path_of(f2, b.arrow_by_name("f")))
    rng = random.Random(seed)
    d = _random_chi_stack(b, rng, n_layers)
    for ls in _bfs_isotopy_class(d):
        assert exchange_canonical(Diagram(d.source, d.target, ls)) == exchange_canonical(d)


def _fresh_canonical(d):
    """``exchange_canonical`` of ``d`` with the memo emptied first."""
    calculus._CANON_MEMO.clear()
    return exchange_canonical(d)


def test_isotopic_is_reachability_under_both_branches(monkeypatch):
    """``isotopic`` and equality of canonical forms both agree with the
    layer-level closure under both swap branches on every ordered pair of
    equal-boundary diagrams of a pool, each form taken in an empty memo;
    some isotopic pairs are out of the first branch's reach."""
    monkeypatch.setattr(calculus, "_CANON_MEMO", {})
    sig = signature_for(None)
    rng, pick = random.Random(6), random.Random(0)
    groups = defaultdict(list)
    drawn = []
    for _ in range(30):
        d = random_chi_diagram(sig, rng, 6, 4)
        drawn.append(d)
        others = sorted(symmetric_closure(d) - {d.layers}, key=repr)
        for layers in [d.layers, *pick.sample(others, min(3, len(others)))]:
            groups[(d.source, d.target)].append(
                Diagram(d.source, d.target, layers))
    second_branch = 0
    for group in groups.values():
        forms = [_fresh_canonical(x) for x in group]
        for x, x_form in zip(group, forms):
            closure, one_way = symmetric_closure(x), _bfs_isotopy_class(x)
            for y, y_form in zip(group, forms):
                assert isotopic(x, y) == (y.layers in closure), (x, y)
                assert (x_form == y_form) == (y.layers in closure), (x, y)
                second_branch += y.layers in closure - one_way
    assert second_branch > 0
    # the 7th diagram drawn holds a 0->0 cell that the first branch alone
    # moves past a 0->2 cell but not back; all its presentations share
    # one form
    d0 = drawn[6]
    closure = symmetric_closure(d0)
    assert len(closure) == 128
    assert {_fresh_canonical(Diagram(d0.source, d0.target, layers))
            for layers in closure} == {_fresh_canonical(d0)}


def _assert_walks_in_tuple_order(word):
    """``exchange_walk`` and ``class_words`` yield what the tuple walk
    yields, in its order; returns the class."""
    want = list(tuple_walk(word))
    assert list(exchange_walk(word)) == want
    assert class_words(word) == want
    return want


def _two_branch_pairs(word) -> int:
    """Adjacent pairs of ``word`` that both exchange branches move: a cell
    with no outputs over a cell with no inputs, at one offset."""
    return sum(len(calculus._swap_branches(a, b)) == 2
               for a, b in zip(word, word[1:]))


def test_exchange_walk_keeps_the_tuple_order_on_bundle_classes():
    sizes = []
    for script in bundled_scripts():
        for d in (script.claim_lhs, script.claim_rhs,
                  *(step.result for step in script.steps)):
            sizes.append(len(_assert_walks_in_tuple_order(
                compact_word(d.layers))))
    assert 46160 in sizes and sum(sizes) > 70000


def test_exchange_walk_keeps_the_tuple_order_on_floating_pairs():
    """Random coherence diagrams, where cells on the empty path float: a
    walk from several presentations of each class meets pairs that both
    branches move."""
    sig = signature_for(None)
    rng = random.Random(24)
    floating = 0
    for _ in range(120):
        d = random_chi_diagram(sig, rng, 6, 4)
        cls = _assert_walks_in_tuple_order(compact_word(d.layers))
        for word in cls[1::max(1, len(cls) // 4)]:
            _assert_walks_in_tuple_order(word)
        floating += sum(map(_two_branch_pairs, cls))
    assert floating > 100


def test_exchange_search_numbers_more_than_255_letters(base):
    """Letters take two bytes once a class can hold more than 255 of
    them: a unit under a staircase of 300 interacting cells slides up
    through it, shifting each cell it passes, and counits side by side
    are isotopic after one swap."""
    f, f1, f2 = (base.arrow_by_name(n) for n in ("f", "f1", "f2"))
    chi = calculus._gen_id(Coherence(PolygonType(path_of(f1, f),
                                                 path_of(f2, f))))
    unit = calculus._gen_id(Unit(f))
    word = tuple((chi, i) for i in range(300)) + ((unit, 0),)
    cls = _assert_walks_in_tuple_order(word)
    assert len(cls) == 301
    assert len(set().union(*cls)) == 303  # (chi, 0..301) and the unit
    assert calculus._Letters((word,)).k == 2

    counit = Counit(f)
    source = cells(fiber(f.dst), *(Star(f), Shriek(f)) * 300)
    gid = calculus._gen_id(counit)
    stack = tuple((gid, 2 * (299 - i)) for i in range(300))
    d = Diagram(source, identity_cells(fiber(f.dst)),
                expand_word(source, stack))
    (_, a), (_, b) = stack[:2]
    swapped = ((gid, b), (gid, a - 2)) + stack[2:]
    assert calculus._swap_branches(stack[0], stack[1]) == (swapped[:2],)
    assert isotopic(d, Diagram(d.source, d.target,
                               expand_word(source, swapped)))
    assert calculus._Letters((stack,)).k == 2


def test_hcompose_interchange(base):
    """Both interchange bracketings of a horizontal composite agree."""
    f = base.arrow_by_name("f")
    d1 = single(Unit(f))
    d2 = single(Unit(f))
    h = hcompose(d1, d2)
    # the other bracketing: lower-left then upper-right
    lower_first = vcompose(
        whisker("left", d1.source, d2),
        whisker("right", d2.target, d1),
    )
    assert isotopic(h, lower_first)


# ---------------------------------------------------------------------------
# the hash contract of value terms


def _frozen_value_classes():
    return {cls for mod in (base_module, calculus)
            for cls in vars(mod).values()
            if isinstance(cls, type) and cls.__module__ == mod.__name__
            and is_dataclass(cls) and cls.__dataclass_params__.frozen}


def _terms(x, out):
    """Collect every frozen dataclass instance inside ``x`` by class."""
    if is_dataclass(x) and not isinstance(x, type):
        if type(x).__dataclass_params__.frozen:
            out.setdefault(type(x), []).append(x)
        for f in fields(x):
            _terms(getattr(x, f.name), out)
    elif isinstance(x, (tuple, list, set, frozenset)):
        for y in x:
            _terms(y, out)
    elif isinstance(x, dict):
        for y in x.values():
            _terms(y, out)
    return out


def _parsed_bundle():
    data = files("strandcheck") / "bundle"
    return [parse_script_file((data / bundle_file_name(kind))
                              .read_text(encoding="utf-8"))
            for kind in ("TA", "DD", "AC")]


def test_value_hash_is_the_field_tuple_hash():
    """Every frozen value class keeps its hash, and the hash is that of
    its field tuple, which is what the generated dataclass hash gives, so
    dict and set orders stay."""
    found = _terms(_parsed_bundle(), {})
    classes = _frozen_value_classes()
    assert {c.__name__ for c in classes} >= {
        "ObjectId", "ArrowGen", "Path", "PolygonType", "Star", "Shriek",
        "OneCellPath", "Coherence", "DescentCell", "Layer", "Diagram"}
    for cls in classes:
        assert found.get(cls), f"no {cls.__name__} in the bundle"
        for x in found[cls]:
            want = hash(tuple(getattr(x, f.name) for f in fields(x)))
            assert hash(x) == want == vars(x)["_hash"], cls  # kept


def test_independent_parses_hash_alike():
    """The bundle parsed twice gives distinct objects whose diagrams,
    layers and paths are equal and hash equal."""
    first, second = _parsed_bundle(), _parsed_bundle()
    compared = 0
    for sf1, sf2 in zip(first, second):
        assert sf1.diagrams.keys() == sf2.diagrams.keys()
        for name, d1 in sf1.diagrams.items():
            d2 = sf2.diagrams[name]
            assert d1 is not d2
            pairs = [(d1, d2), (d1.source, d2.source), (d1.target, d2.target)]
            for l1, l2 in zip(d1.layers, d2.layers, strict=True):
                pairs += [(l1, l2), (l1.left, l2.left), (l1.right, l2.right),
                          *zip(l1.boundary(), l2.boundary())]
                if isinstance(l1.gen, Coherence):
                    pairs += [(l1.gen.pt.top, l2.gen.pt.top),
                              (l1.gen.pt.bottom, l2.gen.pt.bottom)]
            for x, y in pairs:
                assert x == y and hash(x) == hash(y)
            compared += len(pairs)
    assert compared > 1000


def test_trusted_paths_hash_like_checked_ones():
    """Paths built without ``__init__`` (slices, concatenations,
    identities) hash and compare like the same path built checked."""
    rng = random.Random(5)
    sig = signature_for(None)
    seen = 0
    for _ in range(200):
        d = random_chi_diagram(sig, rng, 4, 4)
        for p in (d.source, d.target):
            n = len(p)
            for i in range(n + 1):
                for j in range(i, n + 1):
                    s = slice_cells(p, i, j)
                    built = calculus.OneCellPath(s.dom, s.tokens)
                    assert built == s and hash(s) == hash(built)
                    assert built.cod == s.cod
                    seen += 1
            joined = concat_cells(slice_cells(p, 0, n // 2),
                                  slice_cells(p, n // 2))
            assert joined == p and hash(joined) == hash(
                calculus.OneCellPath(p.dom, p.tokens))
        ident = identity_cells(d.source.cod)
        assert ident == calculus._trusted_cells(ident.dom, (), ident.cod)
        assert hash(ident) == hash(calculus.OneCellPath(ident.dom, ()))
    assert seen > 1000
