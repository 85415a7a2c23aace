"""Layered diagrams, generator boundaries, canonical forms and isotopy."""

import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    concat_cells,
    exchange_canonical,
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
from strandcheck.descent import signature_for
from strandcheck.errors import BoundaryMismatch, NonComposable
from strandcheck.rewrite import random_chi_diagram

from exchange_oracle import swap_adjacent, symmetric_closure


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
