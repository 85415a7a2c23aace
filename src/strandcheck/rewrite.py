"""Rule schemas, normalization, and the proof-script checker.

The rules are the defining relations of the pseudofunctorial and
bifibrational term calculi (coherence collapse, adjunction triangles,
comparison-cell invertibility) together with three derived rules
(coherence invertibility, generalized whiskering, horizontal pasting).
Proof scripts rewrite a claim's left-hand side step by step into its
right-hand side. One kernel, ``apply_step``, checks every positioned
step: a pattern step whose region has another height or top width than
its pattern is rejected at once, since exchange keeps both; otherwise
``_blocks_at`` resolves the position, each block found is compared
with the pattern, the replacement is spliced in between the strings
``extract_block`` cut beside the block, and the outcome is compared with
the stated result with ``isotopic``, all modulo exchange of layers only.
No step is checked through a canonical form. Positions are resolved by
one region scanner, ``_scan_regions``, which walks ``exchange_walk``
lazily from the diagram it is given; ``_blocks_at`` is its call with
every region field fixed, and the authoring tool ``DerivationBuilder``
calls it with some fields free. Only the authoring tool takes canonical
forms, and the confluence probe (``oriented_successors``) lists whole
classes with ``class_words``, the same walk.
"""

from __future__ import annotations

import random
from collections import deque
from copy import copy
from dataclasses import dataclass, field
from itertools import tee
from typing import Callable, Optional

from .base import (
    ArrowGen,
    Path,
    PolygonType,
    PullbackSquare,
    compose_paths,
    opposite,
    paste_polygon_types,
    path_of,
    validate_polygon_type,
)
from .calculus import (
    Coherence,
    Counit,
    Diagram,
    Layer,
    OneCellPath,
    Shriek,
    Signature,
    SquareInv,
    Star,
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
    identity_cells,
    identity_diagram,
    isotopic,
    region_misfit,
    shriek_lift,
    single,
    slice_cells,
    star_lift,
    unstar,
    validate_diagram,
    vcompose,
    whisker,
    word_generator,
    word_widths,
)
from .errors import (
    BoundaryChanged,
    InvalidBinding,
    InvalidGenerator,
    NotFibFragment,
    PatternNotFound,
    RegionNotPureChi,
    ResultMismatch,
    SideConditionFailed,
    StrandcheckError,
    UnprovenDependency,
)

RULE_NAMES = ("R1", "R2", "R3.1", "R3.2", "R4.1", "R4.2", "R5.1", "R5.2",
              "L1a", "L1b", "L1c")

AXIOM_NAMES = ("TA1", "TA2", "DD1", "DD2", "AC1", "AC2")


# ---------------------------------------------------------------------------
# rule instantiation


def _triangle_shriek(h: ArrowGen) -> Diagram:
    """The unit/counit zig-zag on the direct-image string of ``h``."""
    string = cells(fiber(h.src), Shriek(h))
    l1 = Layer(identity_cells(fiber(h.src)), Unit(h), string)
    l2 = Layer(string, Counit(h), identity_cells(fiber(h.dst)))
    return Diagram(string, string, (l1, l2))


def _triangle_star(h: ArrowGen) -> Diagram:
    """The unit/counit zig-zag on the pullback string of ``h``."""
    string = cells(fiber(h.dst), Star(h))
    l1 = Layer(string, Unit(h), identity_cells(fiber(h.src)))
    l2 = Layer(identity_cells(fiber(h.dst)), Counit(h), string)
    return Diagram(string, string, (l1, l2))


def bc_expansion(square: PullbackSquare) -> Diagram:
    """The forward comparison cell of a marked square as a unit/coherence/counit
    composite; boundary [a*, c_!] => [d_!, b*]."""
    a, c, d, b = square.a, square.c, square.d, square.b
    src = cells(fiber(a.dst), Star(a), Shriek(c))
    l1 = Layer(identity_cells(fiber(d.src)), Unit(d), src)
    pt = PolygonType(path_of(a, d), path_of(c, b))
    l2 = Layer(cells(fiber(d.src), Shriek(d)), Coherence(pt),
               cells(fiber(c.src), Shriek(c)))
    l3 = Layer(cells(fiber(d.src), Shriek(d), Star(b)), Counit(c),
               identity_cells(fiber(c.dst)))
    return from_layers([l1, l2, l3])


def _boundary_chi(src: OneCellPath, tgt: OneCellPath) -> Diagram:
    """Single coherence layer (or identity) spanning the given star strings."""
    if src == tgt:
        return identity_diagram(src)
    return single(Coherence(PolygonType(unstar(src), unstar(tgt))))


def instantiate_rule(sig: Signature, name: str, binding: dict) -> tuple[Diagram, Diagram]:
    """The (lhs, rhs) diagram pair of a rule instance.

    Bindings by rule:
      R1: pt (polygon with syntactically equal sides)
      R2: pt1, pt2 (vertically composable polygons)
      R3.1 / R3.2: pt, arrow  (right / left whiskering absorption)
      R4.1 / R4.2: arrow      (triangle on the direct-image / pullback string)
      R5.1 / R5.2: square     (comparison followed by inverse and conversely)
      L1a: pt                 (coherence invertibility)
      L1b: pt, left, right    (generalized whiskering by base paths)
      L1c: pt1, pt2           (horizontal pasting of coherences)
    """
    try:
        return _RULES[name](sig, binding)
    except KeyError as exc:
        if name not in _RULES:
            raise InvalidBinding(f"unknown rule {name}") from None
        raise InvalidBinding(f"rule {name}: missing parameter {exc}") from None


def _rule_r1(sig, binding):
    pt = binding["pt"]
    if pt.top != pt.bottom:
        raise SideConditionFailed(f"R1 needs equal sides, got {pt!r}")
    validate_polygon_type(sig.base, pt)
    lhs = single(Coherence(pt))
    return lhs, identity_diagram(lhs.source)


def _rule_r2(sig, binding):
    pt1, pt2 = binding["pt1"], binding["pt2"]
    for pt in (pt1, pt2):
        validate_polygon_type(sig.base, pt)
    pasted = paste_polygon_types("vertical", pt1, pt2)
    lhs = vcompose(single(Coherence(pt1)), single(Coherence(pt2)))
    return lhs, single(Coherence(pasted))


def _rule_r31(sig, binding):
    pt, arrow = binding["pt"], binding["arrow"]
    validate_polygon_type(sig.base, pt)
    lhs = whisker("right", cells(fiber(arrow.dst), Star(arrow)), single(Coherence(pt)))
    return lhs, _boundary_chi(lhs.source, lhs.target)


def _rule_r32(sig, binding):
    pt, arrow = binding["pt"], binding["arrow"]
    validate_polygon_type(sig.base, pt)
    lhs = whisker("left", cells(fiber(arrow.dst), Star(arrow)), single(Coherence(pt)))
    return lhs, _boundary_chi(lhs.source, lhs.target)


def _rule_r41(sig, binding):
    h = binding["arrow"]
    lhs = _triangle_shriek(h)
    return lhs, identity_diagram(lhs.source)


def _rule_r42(sig, binding):
    h = binding["arrow"]
    lhs = _triangle_star(h)
    return lhs, identity_diagram(lhs.source)


def _require_marked(sig, square):
    if square not in sig.base.squares:
        raise SideConditionFailed(
            f"square {square.label} is not marked in the base presentation"
        )


def _rule_r51(sig, binding):
    square = binding["square"]
    _require_marked(sig, square)
    lhs = vcompose(bc_expansion(square), single(SquareInv(square)))
    return lhs, identity_diagram(lhs.source)


def _rule_r52(sig, binding):
    square = binding["square"]
    _require_marked(sig, square)
    lhs = vcompose(single(SquareInv(square)), bc_expansion(square))
    return lhs, identity_diagram(lhs.source)


def _rule_l1a(sig, binding):
    pt = binding["pt"]
    validate_polygon_type(sig.base, pt)
    lhs = vcompose(single(Coherence(pt)), single(Coherence(opposite(pt))))
    return lhs, identity_diagram(lhs.source)


def _rule_l1b(sig, binding):
    pt = binding["pt"]
    left, right = binding.get("left"), binding.get("right")
    validate_polygon_type(sig.base, pt)
    lhs = single(Coherence(pt))
    if right is not None:
        lhs = whisker("right", star_lift(right), lhs)
    if left is not None:
        lhs = whisker("left", star_lift(left), lhs)
    return lhs, _boundary_chi(lhs.source, lhs.target)


def _rule_l1c(sig, binding):
    """Horizontal pasting: pt1 and pt2 base-composable (pt1 then pt2); the
    string of pt2 sits left of the string of pt1 in diagram order."""
    pt1, pt2 = binding["pt1"], binding["pt2"]
    for pt in (pt1, pt2):
        validate_polygon_type(sig.base, pt)
    if pt1.dst != pt2.src:
        raise SideConditionFailed("L1c needs base-composable polygons")
    upper = whisker("right", star_lift(pt1.top), single(Coherence(pt2)))
    lower = whisker("left", star_lift(pt2.bottom), single(Coherence(pt1)))
    lhs = vcompose(upper, lower)
    return lhs, _boundary_chi(lhs.source, lhs.target)


_RULES: dict[str, Callable] = {
    "R1": _rule_r1, "R2": _rule_r2, "R3.1": _rule_r31, "R3.2": _rule_r32,
    "R4.1": _rule_r41, "R4.2": _rule_r42, "R5.1": _rule_r51, "R5.2": _rule_r52,
    "L1a": _rule_l1a, "L1b": _rule_l1b, "L1c": _rule_l1c,
}


# ---------------------------------------------------------------------------
# mates and the counit cascade


def _eps_cascade(q: Path) -> list[Layer]:
    """Layers collapsing star_lift(q) ++ shriek_lift(q) to the empty string.

    Counits fire innermost-first: for q = <q1,...,qm> the string is
    [qm*, ..., q1*, q1!, ..., qm!] and eps(q1) fires at the center first.
    """
    layers = []
    at = concat_cells(star_lift(q), shriek_lift(q))
    for i, arrow in enumerate(q.arrows):
        k = len(q.arrows) - 1 - i
        layers.append(Layer(slice_cells(at, 0, k), Counit(arrow),
                            slice_cells(at, k + 2)))
        at = layers[-1].boundary()[1]
    return layers


def mate_expansion(pt: PolygonType) -> Diagram:
    """The mate of the coherence cell over ``pt``.

    Both sides must end with an arrow: top = p.<f>, bottom = q.<h>. The
    result runs star_lift(p) ++ shriek_lift(q)  =>  [f_!, h*].
    """
    if not pt.top.arrows or not pt.bottom.arrows:
        raise InvalidBinding("mate needs a final arrow on both polygon sides")
    f = pt.top.arrows[-1]
    h = pt.bottom.arrows[-1]
    p = Path(pt.top.src, pt.top.arrows[:-1], f.src)
    q = Path(pt.bottom.src, pt.bottom.arrows[:-1], h.src)
    src = concat_cells(star_lift(p), shriek_lift(q))
    l1 = Layer(identity_cells(fiber(f.src)), Unit(f), src)
    l2 = Layer(cells(fiber(f.src), Shriek(f)), Coherence(pt), shriek_lift(q))
    mid = l2.boundary()[1]
    tail = [Layer(concat_cells(slice_cells(mid, 0, 2), l.left), l.gen, l.right)
            for l in _eps_cascade(q)]
    return from_layers([l1, l2] + tail)


def mate2_expansion(pt: PolygonType) -> Diagram:
    """The two-fold mate of the coherence cell over a two-arrow polygon.

    For top = <g, f>, bottom = <k, h> the result runs
    [k_!, h_!]  =>  [g_!, f_!].
    """
    if len(pt.top.arrows) != 2 or len(pt.bottom.arrows) != 2:
        raise InvalidBinding("two-fold mate needs two arrows on both sides")
    g, f = pt.top.arrows
    k, h = pt.bottom.arrows
    src = shriek_lift(pt.bottom)
    l1 = Layer(identity_cells(fiber(g.src)), Unit(g), src)
    inner = mate_expansion(pt)
    mid = whisker("right", cells(fiber(h.src), Shriek(h)),
                  whisker("left", cells(fiber(g.src), Shriek(g)), inner))
    last = Layer(cells(fiber(g.src), Shriek(g), Shriek(f)), Counit(h),
                 identity_cells(fiber(h.dst)))
    return vcompose(vcompose(from_layers([l1]), mid), from_layers([last]))


# ---------------------------------------------------------------------------
# normalization of the coherence-only fragment


def _require_pure_chi(d: Diagram) -> None:
    for layer in d.layers:
        if not isinstance(layer.gen, Coherence):
            raise NotFibFragment(f"non-coherence generator {layer.gen!r}")


def normalize_fib(d: Diagram) -> Diagram:
    """Unique normal form of a coherence-only diagram.

    By the coherence theorem for this fragment, the normal form is fully
    determined by the boundary: the identity when source and target strings
    coincide, else the single coherence cell of the boundary polygon type.
    """
    _require_pure_chi(d)
    if d.source == d.target:
        return identity_diagram(d.source)
    try:
        pt = PolygonType(unstar(d.source), unstar(d.target))
    except InvalidGenerator as exc:
        raise NotFibFragment(str(exc)) from None
    return Diagram(d.source, d.target, single(Coherence(pt)).layers)


def decide_fib_equal(d1: Diagram, d2: Diagram) -> bool:
    """Two-thinness decision: parallel coherence-only diagrams are equal."""
    _require_pure_chi(d1)
    _require_pure_chi(d2)
    return d1.source == d2.source and d1.target == d2.target


# ---------------------------------------------------------------------------
# oriented rewriting (used by the confluence probe)


def _absorb(layer: Layer, k: int, j: int) -> Layer:
    """The coherence layer with the first ``k`` strands of its right
    whisker and its left whisker's strands from ``j`` on, all pullback
    strands, absorbed into its polygon type in one ``Layer``."""
    pre = unstar(slice_cells(layer.right, 0, k))
    post = unstar(slice_cells(layer.left, j))
    top, bottom = (compose_paths(compose_paths(pre, p), post)
                   for p in (layer.gen.pt.top, layer.gen.pt.bottom))
    return Layer(slice_cells(layer.left, 0, j), Coherence(PolygonType(top, bottom)),
                 slice_cells(layer.right, k))


def _absorbed(layer: Layer, side: str) -> Optional[Layer]:
    """The coherence layer with its innermost ``side`` whisker strand
    absorbed into the polygon type (R3.1 on the right, R3.2 on the left),
    or None when that strand is not a pullback strand."""
    left, right = layer.left.tokens, layer.right.tokens
    if side == "right":
        ok = right and isinstance(right[0], Star)
        return _absorb(layer, 1, len(left)) if ok else None
    ok = left and isinstance(left[-1], Star)
    return _absorb(layer, 0, len(left) - 1) if ok else None


def _oriented_successors_one(d: Diagram):
    """Single oriented rule applications on this exact layer presentation."""
    layers = d.layers
    for i, layer in enumerate(layers):
        pt = layer.gen.pt
        # R1: delete a trivial coherence cell
        if pt.top == pt.bottom:
            yield Diagram(d.source, d.target, layers[:i] + layers[i + 1 :])
        # R3.1 and R3.2: absorb the innermost right or left whisker strand
        for side in ("right", "left"):
            new = _absorbed(layer, side)
            if new is not None:
                yield Diagram(d.source, d.target, layers[:i] + (new,) + layers[i + 1 :])
        # R2: merge with the next layer when aligned
        if i + 1 < len(layers):
            nxt = layers[i + 1]
            if (nxt.left == layer.left and nxt.right == layer.right
                    and nxt.gen.pt.top == pt.bottom):
                merged = Layer(layer.left,
                               Coherence(paste_polygon_types("vertical", pt, nxt.gen.pt)),
                               layer.right)
                yield Diagram(d.source, d.target,
                              layers[:i] + (merged,) + layers[i + 2 :])


def oriented_successors(d: Diagram) -> dict[Diagram, None]:
    """All one-step oriented rewrites modulo isotopy.

    Every presentation of ``d``'s exchange class (``class_words`` from
    ``d``'s own word) is rewritten once: ``d`` itself for the first word,
    and each later word expanded to layers. The keys are the rewritten
    presentations themselves, not canonical forms. They are in discovery
    order, so the exploration that queues them does not depend on the
    process's string-hash seed.
    """
    out = dict.fromkeys(_oriented_successors_one(d))
    for word in class_words(compact_word(d.layers))[1:]:
        rep = Diagram(d.source, d.target, expand_word(d.source, word))
        for nxt in _oriented_successors_one(rep):
            out[nxt] = None
    return out


def _closed_layer(layer: Layer) -> Layer:
    """``_absorbed`` on the right, then on the left, until it returns
    None, in one step; ``layer`` itself when it absorbs nothing."""
    if not isinstance(layer.gen, Coherence):
        return layer
    left, right = layer.left.tokens, layer.right.tokens
    k = next((i for i, t in enumerate(right) if not isinstance(t, Star)), len(right))
    j = len(left)
    while j and isinstance(left[j - 1], Star):
        j -= 1
    return layer if not k and j == len(left) else _absorb(layer, k, j)


def absorb_closure(d: Diagram) -> Diagram:
    """Apply whisker-absorption steps until none applies.

    Each coherence layer absorbs all its whisker strands in one step
    (``_closed_layer``); absorbing into one layer changes no other, and
    ``d`` itself is returned when nothing is absorbed. Absorption steps
    strictly commute with each other and with deletion and merging of
    other layers (statewise diamonds, checked by property tests), so the
    closure is well defined and the set of reachable terminal forms is
    unchanged when exploration is restricted to closed diagrams.
    """
    layers = tuple(map(_closed_layer, d.layers))
    return d if layers == d.layers else Diagram(d.source, d.target, layers)


def normal_forms(d: Diagram, limit: int = 10000) -> set[Diagram]:
    """All terminal diagrams reachable by oriented rewriting, modulo isotopy.

    Exploration is breadth-first over deletion and merge redex choices,
    with absorption applied up to closure between steps; the commutation
    diamonds recorded at ``absorb_closure`` make this reach exactly the
    terminals of the unrestricted system. States are kept as the
    presentations rewriting produced, not as canonical forms; each
    state's successors are taken in every presentation of its class.
    """
    _require_pure_chi(d)
    start = absorb_closure(d)
    seen = {start}
    frontier = deque([start])
    terminals = set()
    while frontier:
        if len(seen) > limit:
            raise RuntimeError("rewrite state space exceeded the exploration limit")
        cur = frontier.popleft()
        succs = dict.fromkeys(absorb_closure(nxt)
                              for nxt in oriented_successors(cur))
        if not succs:
            terminals.add(cur)
            continue
        for nxt in succs:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return terminals


# ---------------------------------------------------------------------------
# random coherence diagrams and the confluence probe


def random_chi_diagram(sig: Signature, rng: random.Random,
                       max_layers: int, max_path_len: int) -> Diagram:
    """A random coherence-only diagram built by rewriting a random base path.

    Each layer replaces a relation-instance subpath of the current base
    path, so every generated polygon type is valid by construction.
    """
    base = sig.base
    arrows = sorted(base.arrows)
    if not arrows:
        raise InvalidBinding("the base has no arrows to sample from")
    # random composable path
    start = rng.choice(arrows)
    path_arrows = [start]
    while len(path_arrows) < max_path_len and rng.random() < 0.7:
        nxt = [a for a in arrows if a.src == path_arrows[-1].dst]
        if not nxt:
            break
        path_arrows.append(rng.choice(nxt))
    cur = path_of(*path_arrows)
    layers = []
    source = star_lift(cur)
    n_layers = rng.randrange(max_layers + 1)
    for _ in range(n_layers):
        options = []
        arr = cur.arrows
        # trivial polygons over any subpath (rule R1 shapes) and relation steps
        for i in range(len(arr) + 1):
            for j in range(i, len(arr) + 1):
                at_src = arr[i - 1].dst if i > 0 else cur.src
                at_dst = arr[j - 1].dst if j > 0 else cur.src
                sub = Path(at_src, arr[i:j], at_dst)
                if rng.random() < 0.15:
                    options.append((i, j, sub, sub))
        for rel in base.relations:
            for lhs, rhs in ((rel.lhs, rel.rhs), (rel.rhs, rel.lhs)):
                k = len(lhs.arrows)
                if len(arr) - k + len(rhs.arrows) > max_path_len:
                    continue  # keep every intermediate path within the bound
                for i in range(len(arr) - k + 1):
                    if arr[i : i + k] == lhs.arrows:
                        at = arr[i - 1].dst if i > 0 else cur.src
                        if lhs.src != at:
                            continue
                        options.append((i, i + k, lhs, rhs))
        if not options:
            break
        i, j, top, bottom = rng.choice(options)
        prefix = Path(cur.src, cur.arrows[:i], top.src)
        suffix = Path(top.dst, cur.arrows[j:], cur.dst)
        layer = Layer(star_lift(suffix), Coherence(PolygonType(top, bottom)),
                      star_lift(prefix))
        layers.append(layer)
        cur = compose_paths(compose_paths(prefix, bottom), suffix)
    return from_layers(layers, source=source)


@dataclass
class CheckReport:
    name: str
    verdict: str  # "Verified" or "Failed"
    failed_step: Optional[int] = None
    reason: Optional[str] = None
    stats: dict = field(default_factory=dict)

    @property
    def ok(self):
        return self.verdict == "Verified"

    def as_dict(self):
        out = {"name": self.name, "verdict": self.verdict}
        if self.failed_step is not None:
            out["failed_step"] = self.failed_step
        if self.reason is not None:
            out["reason"] = self.reason
        if self.stats:
            out["stats"] = self.stats
        return out


def confluence_probe(sig: Signature, size: tuple[int, int] = (5, 4),
                     samples: int = 100, seed: int = 0) -> CheckReport:
    """Exhaustively rewrite random coherence diagrams and check unique
    normal forms matching ``normalize_fib``.

    Terminals are compared exactly, with no canonical form: a terminal
    has at most one layer, since R3 absorbs every whisker strand (all are
    pullback strands) and R2 merges any two adjacent full-width layers,
    and a presentation with at most one layer is the only one of its
    class."""
    max_layers, max_path_len = size
    rng = random.Random(seed)
    violations = []
    checked = 0
    for idx in range(samples):
        d = random_chi_diagram(sig, rng, max_layers, max_path_len)
        terminals = normal_forms(d)
        expected = normalize_fib(d)
        if len(terminals) != 1 or next(iter(terminals)) != expected:
            violations.append(idx)
        checked += 1
    report = CheckReport(
        name="confluence-probe",
        verdict="Verified" if not violations else "Failed",
        stats={"samples": checked, "violations": len(violations)},
    )
    if violations:
        report.failed_step = violations[0]
        report.reason = f"non-unique or unexpected normal form at sample {violations[0]}"
    return report


# ---------------------------------------------------------------------------
# proof steps and the script checker


@dataclass(frozen=True)
class Region:
    """A contiguous sub-block location in some presentation reachable by
    exchange from the diagram as stated.

    Layers ``lo..hi`` (half-open) with the block's strand interval starting
    at ``strand`` and spanning ``width`` tokens at its top boundary.
    """

    lo: int
    hi: int
    strand: int
    width: int


@dataclass(frozen=True)
class Rule:
    name: str
    binding: tuple  # sorted (key, value) pairs
    direction: str  # "fwd" or "bwd"


@dataclass(frozen=True)
class FibCoherence:
    result_region: Region


@dataclass(frozen=True)
class Axiom:
    name: str
    direction: str


@dataclass(frozen=True)
class PriorEquality:
    script: str
    direction: str


@dataclass(frozen=True)
class Canonical:
    pass


Justification = Rule | FibCoherence | Axiom | PriorEquality | Canonical


@dataclass(frozen=True)
class ProofStep:
    justification: Justification
    region: Optional[Region]  # None only for Canonical
    result: Diagram


@dataclass
class ProofScript:
    name: str
    signature: Signature
    claim_lhs: Diagram
    claim_rhs: Diagram
    steps: list[ProofStep]
    deps: tuple[str, ...] = ()


def binding_key(binding: dict) -> tuple:
    return tuple(sorted(binding.items(), key=lambda kv: kv[0]))


def extract_block(d: Diagram, region: Region
                  ) -> tuple[Diagram, tuple[OneCellPath, OneCellPath]]:
    """Cut the sub-diagram at ``region`` out of a layer sequence.

    Returns the block (with stripped whiskers) and the strings left and
    right of it at its top, which whisker every layer of the block.
    Raises PatternNotFound when any generator in the range sticks out of
    the block's strand interval.
    """
    misfit = region_misfit(compact_word(d.layers), len(d.source), region.lo,
                           region.hi, region.strand, region.width)
    if misfit is not None:
        raise PatternNotFound(misfit)
    top = (d.layers[region.lo].boundary()[0] if region.lo < len(d.layers)
           else d.target)
    lo, hi = region.strand, region.strand + region.width
    block_src = slice_cells(top, lo, hi)
    beside = (slice_cells(top, 0, lo), slice_cells(top, hi))
    block_layers = []
    for layer in d.layers[region.lo : region.hi]:
        s_w, t_w = layer.gen_widths()
        pre, off = layer.boundary()[0], layer.offset
        block_layers.append(Layer(slice_cells(pre, lo, off), layer.gen,
                                  slice_cells(pre, off + s_w, hi)))
        hi += t_w - s_w
    return from_layers(block_layers, source=block_src), beside


def splice_block(d: Diagram, region: Region, replacement: Diagram) -> Diagram:
    """Replace the block at ``region`` with an equal-boundary diagram."""
    block, (left, right) = extract_block(d, region)
    if (replacement.source != block.source or replacement.target != block.target):
        raise BoundaryChanged(
            f"replacement boundary {replacement.source!r} => {replacement.target!r} "
            f"does not match the block"
        )
    new_mid = [Layer(concat_cells(left, l.left), l.gen,
                     concat_cells(l.right, right))
               for l in replacement.layers]
    layers = d.layers[: region.lo] + tuple(new_mid) + d.layers[region.hi :]
    return Diagram(d.source, d.target, layers)


@dataclass
class CheckerSession:
    """Append-only checking context: axiom table and verified equalities."""

    signature: Signature
    axioms: dict = field(default_factory=dict)  # name -> (lhs, rhs)
    verified: dict = field(default_factory=dict)  # script name -> (lhs, rhs)
    disabled_axioms: set = field(default_factory=set)

    def pattern_pair(self, just: Justification) -> tuple[Diagram, Diagram]:
        """The (pattern, replacement) pair named by a justification."""
        if isinstance(just, Rule):
            lhs, rhs = instantiate_rule(self.signature, just.name,
                                        dict(just.binding))
        elif isinstance(just, Axiom):
            if just.name not in AXIOM_NAMES:
                raise InvalidBinding(f"unknown axiom {just.name}")
            if just.name in self.disabled_axioms:
                raise UnprovenDependency(f"axiom {just.name} is disabled in this session")
            if just.name not in self.axioms:
                raise UnprovenDependency(f"axiom {just.name} not available for this signature")
            lhs, rhs = self.axioms[just.name]
        elif isinstance(just, PriorEquality):
            if just.script not in self.verified:
                raise UnprovenDependency(
                    f"equality {just.script} has not been verified in this session"
                )
            lhs, rhs = self.verified[just.script]
        else:
            raise InvalidBinding(f"no pattern pair for {just!r}")
        if getattr(just, "direction", "fwd") == "bwd":
            lhs, rhs = rhs, lhs
        return lhs, rhs


def _scan_regions(d: Diagram, lo: Optional[int] = None,
                  height: Optional[int] = None, strand: Optional[int] = None,
                  width: Optional[int] = None, coherence_only: bool = False):
    """(representative, region, block) for every region that extracts cleanly.

    The one region scanner, for checking and authoring alike. It walks
    ``exchange_walk`` from ``d``'s own word, lazily, so a caller that stops
    at the first block it can use walks no further; in each word, layer
    ranges top to bottom (shorter first), then strands left to right
    (narrower first). ``lo``, ``height``, ``strand`` and ``width`` fix the
    region's first layer, layer count, first strand and strand count; None
    leaves them free. With ``coherence_only`` only ranges of coherence
    layers are scanned. Regions are tried on compact words with
    ``region_misfit``, the one rule of fit, and fixed values reach it
    unfiltered, so a word is expanded only once a region fits, and at most
    once: every region of one presentation shares one representative.
    """
    top_width, n_l = len(d.source), len(d.layers)  # every word has n_l layers
    spans = [(l, l + h) for l in _sizes(lo, 0, n_l)
             for h in _sizes(height, 1, n_l - l)]
    for word in exchange_walk(compact_word(d.layers)):
        widths = (word_widths(word, top_width)
                  if strand is None or width is None else ())
        rep = None
        for l, hi in spans:
            if coherence_only and not all(
                    isinstance(word_generator(g), Coherence)
                    for g, _ in word[l:hi]):
                continue
            # a fixed l outside the word is never an index
            room = widths[l] if 0 <= l < len(widths) else -1
            for s in _sizes(strand, 0, room):
                for w in _sizes(width, 0, room - s):
                    if region_misfit(word, top_width, l, hi, s, w) is None:
                        if rep is None:
                            rep = Diagram(d.source, d.target,
                                          expand_word(d.source, word))
                        region = Region(l, hi, s, w)
                        block, _ = extract_block(rep, region)
                        yield rep, region, block


def _sizes(fixed: Optional[int], least: int, most: int):
    """``(fixed,)``, or every size least..most when ``fixed`` is None."""
    return range(least, most + 1) if fixed is None else (fixed,)


def _blocks_at(d: Diagram, region: Region):
    """(representative, block) pairs where the region extracts cleanly: the
    scanner with every field of the region fixed. A position names a
    contiguous sub-block in some presentation of the diagram's exchange
    class, searched from the diagram as stated."""
    yield from ((rep, block) for rep, _, block in _scan_regions(
        d, region.lo, region.hi - region.lo, region.strand, region.width))


def _pure_chi(d: Diagram) -> bool:
    return all(isinstance(l.gen, Coherence) for l in d.layers)


def apply_step(session: CheckerSession, d: Diagram, step: ProofStep) -> Diagram:
    """Validate one proof step against ``d`` and return its result.

    A positioned step is one pass over the blocks at its region. A block
    matches the named pattern (rule, axiom or prior equality) or,
    for a coherence step, any coherence-only block; each replacement with
    the block's boundary is spliced in and compared with the stated
    result. A coherence step's replacements are the coherence-only blocks
    of the stated result at the step's result region.

    Exchange keeps the number of layers and the boundary widths, so no
    block is isotopic to a pattern of another height or top width. A
    pattern step whose region differs from its pattern in either is
    rejected before any presentation is walked, with the message the
    whole walk would end with.
    """
    if step.result.source != d.source or step.result.target != d.target:
        raise BoundaryChanged("step result changed the claim boundary")
    just = step.justification
    if isinstance(just, Canonical):
        if not isotopic(d, step.result):
            raise ResultMismatch("canonical step result is not isotopic to the diagram")
        return step.result
    if step.region is None:
        raise PatternNotFound("step needs a position")
    if isinstance(just, FibCoherence):
        # filled only as far as the loop below reads: every copy of a tee
        # reads one shared buffer from its start
        replacements, = tee((nb for _, nb in _blocks_at(
            step.result, just.result_region) if _pure_chi(nb)), 1)
        matches = _pure_chi
    else:
        pattern, replacement = session.pattern_pair(just)
        region = step.region
        if (region.hi - region.lo != len(pattern.layers)
                or region.width != len(pattern.source)):
            # exchange keeps a block's layer count and top width
            raise PatternNotFound(
                f"pattern for {just!r} does not occur at {region}")
        replacements = [replacement]

        def matches(block):
            return isotopic(block, pattern)
    extracted = matched = False
    for rep, block in _blocks_at(d, step.region):
        extracted = True
        if not matches(block):
            continue
        matched = True
        for new in copy(replacements):
            if (new.source == block.source and new.target == block.target
                    and isotopic(splice_block(rep, step.region, new), step.result)):
                return step.result
    if isinstance(just, FibCoherence):
        if not extracted:
            raise PatternNotFound(f"no block at {step.region}")
        if not matched:
            raise RegionNotPureChi(f"region {step.region} is not coherence-only")
        raise ResultMismatch("coherence replacement does not yield the stated result")
    if matched:
        raise ResultMismatch("stated result differs from the rewritten diagram")
    raise PatternNotFound(f"pattern for {just!r} does not occur at {step.region}")


def check_script(session: CheckerSession, script: ProofScript) -> CheckReport:
    """Validate a proof script; on success record it in the session."""
    stats = {"steps": len(script.steps), "rules": {}}
    try:
        validate_diagram(session.signature, script.claim_lhs)
        validate_diagram(session.signature, script.claim_rhs)
        if (script.claim_lhs.source != script.claim_rhs.source
                or script.claim_lhs.target != script.claim_rhs.target):
            raise BoundaryChanged("claim sides are not parallel")
    except StrandcheckError as exc:
        return CheckReport(script.name, "Failed", failed_step=-1,
                           reason=f"claim validation: {exc}", stats=stats)
    cur = script.claim_lhs
    for i, step in enumerate(script.steps):
        try:
            validate_diagram(session.signature, step.result)
            cur = apply_step(session, cur, step)
        except StrandcheckError as exc:
            return CheckReport(script.name, "Failed", failed_step=i,
                               reason=str(exc), stats=stats)
        label = type(step.justification).__name__
        stats["rules"][label] = stats["rules"].get(label, 0) + 1
    if not isotopic(cur, script.claim_rhs):
        return CheckReport(script.name, "Failed", failed_step=len(script.steps),
                           reason="final diagram is not the claimed right-hand side",
                           stats=stats)
    session.verified[script.name] = (script.claim_lhs, script.claim_rhs)
    return CheckReport(script.name, "Verified", stats=stats)


# ---------------------------------------------------------------------------
# derivation builder (used to author the bundled scripts)


class DerivationBuilder:
    """Constructs a proof script by searching step positions automatically.

    Each tactic finds the first position (scanning layer ranges
    top-to-bottom, strands left-to-right) where the requested pattern
    occurs in the current diagram, applies it, and records the fully
    positioned step for later re-checking. The current diagram is always
    a canonical form: the claim's left side is canonicalized once, and
    every step result is canonical. So every scan walks from a canonical
    word, and the steps found depend on the diagram's class alone.
    """

    def __init__(self, session: CheckerSession, name: str,
                 claim_lhs: Diagram, claim_rhs: Diagram, deps: tuple[str, ...] = ()):
        self.session = session
        self.name = name
        self.claim_lhs = claim_lhs
        self.claim_rhs = claim_rhs
        self.deps = deps
        self.steps: list[ProofStep] = []
        self.current = exchange_canonical(claim_lhs)

    def _find_and_apply(self, just: Justification, skip: int = 0):
        pattern, replacement = self.session.pattern_pair(just)
        pattern = exchange_canonical(pattern)
        seen_results = []
        for rep, region, block in _scan_regions(
                self.current, height=len(pattern.layers),
                width=len(pattern.source)):
            if not isotopic(block, pattern):
                continue
            result = exchange_canonical(splice_block(rep, region, replacement))
            if result in seen_results:
                continue
            seen_results.append(result)
            if len(seen_results) <= skip:
                continue
            step = ProofStep(just, region, result)
            self.current = apply_step(self.session, self.current, step)
            self.steps.append(step)
            return self
        raise PatternNotFound(
            f"{self.name}: no occurrence of the pattern for {just!r} "
            f"(skip={skip}) in\n{self.current!r}"
        )

    def rule(self, name: str, direction: str = "fwd", skip: int = 0, **binding):
        return self._find_and_apply(Rule(name, binding_key(binding), direction), skip)

    def axiom(self, name: str, direction: str = "fwd", skip: int = 0):
        return self._find_and_apply(Axiom(name, direction), skip)

    def prior(self, script: str, direction: str = "fwd", skip: int = 0):
        return self._find_and_apply(PriorEquality(script, direction), skip)

    def coherence(self, region: Region, replacement: Diagram):
        """Replace the pure-coherence block at ``region`` by ``replacement``."""
        spliced = None
        for rep, block in _blocks_at(self.current, region):
            if (_pure_chi(block) and block.source == replacement.source
                    and block.target == replacement.target):
                spliced = splice_block(rep, region, replacement)
                break
        if spliced is None:
            raise PatternNotFound(
                f"{self.name}: no coherence block of that shape at {region}"
            )
        result = exchange_canonical(spliced)
        repl_c = exchange_canonical(replacement)
        for _, cand, blk in _scan_regions(result, height=len(replacement.layers),
                                          width=len(replacement.source)):
            if not isotopic(blk, repl_c):
                continue
            step = ProofStep(FibCoherence(cand), region, result)
            self.current = apply_step(self.session, self.current, step)
            self.steps.append(step)
            return self
        raise PatternNotFound(f"{self.name}: replacement block lost in the result")

    def coherence_swap(self, replacement: Diagram, skip: int = 0):
        """Swap some pure-coherence block for a parallel decomposition.

        Scans representatives for a contiguous coherence-only block whose
        boundary matches the replacement and whose substitution changes the
        diagram; ``skip`` passes over earlier distinct outcomes.
        """
        seen = []
        for rep, region, block in _scan_regions(
                self.current, width=len(replacement.source),
                coherence_only=True):
            if (block.source != replacement.source
                    or block.target != replacement.target):
                continue
            result = exchange_canonical(splice_block(rep, region, replacement))
            if result == self.current or result in seen:
                continue
            seen.append(result)
            if len(seen) <= skip:
                continue
            return self.coherence(region, replacement)
        raise PatternNotFound(
            f"{self.name}: no replaceable coherence block matches the "
            f"replacement boundary (skip={skip})"
        )

    def simplify_coherence(self):
        """Collapse pure-coherence blocks to their normal forms, repeatedly.

        Finds the largest contiguous coherence-only block (in any isotopy
        representative) whose normal form has strictly fewer layers and
        records the replacement as a coherence step; stops at a fixpoint.
        """
        while True:
            best = None
            for rep, region, block in _scan_regions(self.current,
                                                    coherence_only=True):
                if best is not None and rep is not best[3]:
                    break  # the best block of the first representative
                try:
                    nf = normalize_fib(block)
                except NotFibFragment:
                    continue
                gain = len(block.layers) - len(nf.layers)
                if gain > 0 and (best is None or gain > best[0]):
                    best = (gain, region, nf, rep)
            if best is None:
                return self
            _, region, nf, _ = best
            self.coherence(region, nf)

    def finish(self) -> ProofScript:
        if not isotopic(self.current, self.claim_rhs):
            raise ResultMismatch(
                f"{self.name}: derivation ends at\n{self.current!r}\n"
                f"but the claim is\n{exchange_canonical(self.claim_rhs)!r}"
            )
        return ProofScript(self.name, self.session.signature, self.claim_lhs,
                           self.claim_rhs, self.steps, self.deps)
