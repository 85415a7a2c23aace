"""Layered string-diagram terms over a bifibrational signature.

A two-cell is a ``Diagram``: an ordered list of layers read top to bottom,
each layer a single generator flanked by identity whiskers. Planar isotopy
is modelled by exchange moves (sliding generators past each other on
disjoint strands), each one a branch of ``_swap_branches``; the relation
they generate is symmetric, and ``isotopic`` decides it by a search
between the two presentations.

``exchange_walk`` is the one walk over an exchange class: lazy and
breadth-first from a given word. The region scanner that resolves step
positions walks it, and ``class_words`` lists it whole for the callers
that need every presentation at once (canonical forms and the
confluence probe). The walk and ``isotopic`` search on byte strings
through a letter table of their own (``_Letters``), which works out
each adjacent pair's moves once per search. ``exchange_canonical``
returns the least presentation of a diagram's exchange class, so it is
a property of the class: every presentation has the same form.
``_CANON_MEMO`` only caches it.
Canonical forms serve only the bundle authoring tool; no proof step is
checked through them.

Token order convention: in a one-cell string the leftmost token is the first
applied. ``star_lift`` therefore reverses a base path, ``shriek_lift``
preserves it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .base import (
    ArrowGen,
    BasePresentation,
    ObjectId,
    Path,
    PolygonType,
    PullbackSquare,
    hash_once,
    validate_polygon_type,
)
from .errors import (
    BoundaryMismatch,
    InvalidGenerator,
    NonComposable,
)


# ---------------------------------------------------------------------------
# fiber symbols and one-cell tokens


@hash_once
@dataclass(frozen=True, order=True)
class FiberSym:
    """A zero-cell: the fiber over a base object, or the terminal symbol."""

    obj: Optional[ObjectId]  # None encodes the terminal symbol 1

    @property
    def is_terminal(self):
        return self.obj is None

    def __repr__(self):
        return "1" if self.obj is None else f"E_{self.obj}"


TERMINAL = FiberSym(None)


def fiber(obj: ObjectId) -> FiberSym:
    return FiberSym(obj)


@hash_once
@dataclass(frozen=True)
class Star:
    """Pullback one-cell f^* for a base arrow f: A -> B; runs E_B -> E_A."""

    arrow: ArrowGen

    @property
    def dom(self):
        return fiber(self.arrow.dst)

    @property
    def cod(self):
        return fiber(self.arrow.src)

    def __repr__(self):
        return f"{self.arrow.name}*"


@hash_once
@dataclass(frozen=True)
class Shriek:
    """Direct-image one-cell f_! for a base arrow f: A -> B; runs E_A -> E_B."""

    arrow: ArrowGen

    @property
    def dom(self):
        return fiber(self.arrow.src)

    @property
    def cod(self):
        return fiber(self.arrow.dst)

    def __repr__(self):
        return f"{self.arrow.name}!"


@hash_once
@dataclass(frozen=True)
class ObjTok:
    """An object of a fiber, seen as a one-cell out of the terminal symbol."""

    name: str
    fiber_obj: ObjectId

    @property
    def dom(self):
        return TERMINAL

    @property
    def cod(self):
        return fiber(self.fiber_obj)

    def __repr__(self):
        return f"{self.name}@{self.fiber_obj}"


OneCellToken = Star | Shriek | ObjTok


@hash_once
@dataclass(frozen=True)
class OneCellPath:
    """A composable left-to-right string of one-cell tokens.

    An object token may only appear leftmost (the terminal region is always
    the leftmost region in a diagram).
    """

    dom: FiberSym
    tokens: tuple[OneCellToken, ...]

    def __post_init__(self):
        at = self.dom
        for i, t in enumerate(self.tokens):
            if isinstance(t, ObjTok) and i > 0:
                raise NonComposable("object token only allowed leftmost")
            if t.dom != at:
                raise NonComposable(f"token {t!r} expects {t.dom!r}, found {at!r}")
            at = t.cod
        object.__setattr__(self, "_cod", at)

    @property
    def cod(self) -> FiberSym:
        return self._cod

    def __len__(self):
        return len(self.tokens)

    def __repr__(self):
        if not self.tokens:
            return f"<{self.dom!r}>"
        return ".".join(repr(t) for t in self.tokens)


def _trusted_cells(dom: FiberSym, tokens: tuple, cod: FiberSym) -> OneCellPath:
    """Construct a path known valid, skipping the composability walk."""
    p = object.__new__(OneCellPath)
    object.__setattr__(p, "dom", dom)
    object.__setattr__(p, "tokens", tokens)
    object.__setattr__(p, "_cod", cod)
    return p


def cells(dom: FiberSym, *tokens: OneCellToken) -> OneCellPath:
    return OneCellPath(dom, tokens)


def identity_cells(at: FiberSym) -> OneCellPath:
    return _trusted_cells(at, (), at)


def concat_cells(p: OneCellPath, q: OneCellPath) -> OneCellPath:
    if p.cod != q.dom:
        raise NonComposable(f"cannot concatenate {p!r} with {q!r}")
    if not p.tokens:
        return q
    if not q.tokens:
        return p
    if isinstance(q.tokens[0], ObjTok):
        raise NonComposable("object token only allowed leftmost")
    return _trusted_cells(p.dom, p.tokens + q.tokens, q.cod)


def slice_cells(p: OneCellPath, start: int, stop: Optional[int] = None) -> OneCellPath:
    """The sub-string of tokens [start:stop], with the induced domain."""
    stop = len(p) if stop is None else stop
    tokens = p.tokens[start:stop]
    if start >= len(p.tokens):
        return _trusted_cells(p.cod, (), p.cod)
    dom = p.dom if start == 0 else p.tokens[start - 1].cod
    cod = p.cod if stop >= len(p.tokens) else tokens[-1].cod if tokens else dom
    return _trusted_cells(dom, tokens, cod)


def star_lift(p: Path) -> OneCellPath:
    """Contravariant lift of a base path: <g1,...,gn> -> [gn*, ..., g1*]."""
    return OneCellPath(fiber(p.dst), tuple(Star(a) for a in reversed(p.arrows)))


def shriek_lift(p: Path) -> OneCellPath:
    """Covariant lift of a base path: <g1,...,gn> -> [g1!, ..., gn!]."""
    return OneCellPath(fiber(p.src), tuple(Shriek(a) for a in p.arrows))


def unstar(p: OneCellPath) -> Path:
    """Invert ``star_lift``: recover the base path from a pure-star string."""
    arrows = []
    for t in p.tokens:
        if not isinstance(t, Star):
            raise InvalidGenerator(f"not a pullback-only string: {p!r}")
        arrows.append(t.arrow)
    arrows.reverse()
    src = arrows[0].src if arrows else p.cod.obj
    if src is None:
        raise InvalidGenerator("pullback string cannot start at the terminal symbol")
    return Path(src, tuple(arrows), p.dom.obj)


# ---------------------------------------------------------------------------
# two-cell generators


@hash_once
@dataclass(frozen=True)
class Coherence:
    """Pseudofunctoriality two-cell indexed by a polygon type."""

    pt: PolygonType

    def __repr__(self):
        return f"chi{self.pt!r}"


@hash_once
@dataclass(frozen=True)
class Unit:
    """Adjunction unit for an arrow h: identity => h* h_!."""

    arrow: ArrowGen

    def __repr__(self):
        return f"eta({self.arrow.name})"


@hash_once
@dataclass(frozen=True)
class Counit:
    """Adjunction counit for an arrow h: h_! h* => identity."""

    arrow: ArrowGen

    def __repr__(self):
        return f"eps({self.arrow.name})"


@hash_once
@dataclass(frozen=True)
class SquareInv:
    """Backward comparison cell of a marked pullback square: b* d_! => c_! a*."""

    square: PullbackSquare

    def __repr__(self):
        return f"bcbar({self.square.label})"


@hash_once
@dataclass(frozen=True)
class DescentCell:
    """The single extra generator of a descent extension.

    ``name`` is one of ``alpha`` (algebra structure, system TA), ``phi``
    (gluing isomorphism, system DD) or ``beta`` (internal action, system AC).
    ``aux`` carries the kernel-pair projections needed by phi and beta.
    """

    name: str
    obj: ObjTok
    f: ArrowGen
    aux: tuple[ArrowGen, ...] = ()

    @property
    def system(self):
        return {"alpha": "TA", "phi": "DD", "beta": "AC"}[self.name]

    def __repr__(self):
        return self.name


GenTwoCell = Coherence | Unit | Counit | SquareInv | DescentCell


def generator_boundary(g: GenTwoCell) -> tuple[OneCellPath, OneCellPath]:
    """Source and target one-cell strings of a generator."""
    return _GEN_LIST[_gen_id(g)][1]


def _generator_boundary(g: GenTwoCell) -> tuple[OneCellPath, OneCellPath]:
    if isinstance(g, Coherence):
        return star_lift(g.pt.top), star_lift(g.pt.bottom)
    if isinstance(g, Unit):
        h = g.arrow
        return identity_cells(fiber(h.src)), cells(fiber(h.src), Shriek(h), Star(h))
    if isinstance(g, Counit):
        h = g.arrow
        return cells(fiber(h.dst), Star(h), Shriek(h)), identity_cells(fiber(h.dst))
    if isinstance(g, SquareInv):
        s = g.square
        return (
            cells(fiber(s.d.src), Shriek(s.d), Star(s.b)),
            cells(fiber(s.a.dst), Star(s.a), Shriek(s.c)),
        )
    if isinstance(g, DescentCell):
        x = g.obj
        if g.name == "alpha":
            return cells(TERMINAL, x, Shriek(g.f), Star(g.f)), cells(TERMINAL, x)
        if g.name == "phi":
            f1, f2 = g.aux
            return cells(TERMINAL, x, Star(f1)), cells(TERMINAL, x, Star(f2))
        if g.name == "beta":
            f1, f2 = g.aux
            return cells(TERMINAL, x, Star(f1), Shriek(f2)), cells(TERMINAL, x)
        raise InvalidGenerator(f"unknown descent cell {g.name}")
    raise InvalidGenerator(f"unknown generator {g!r}")


def gen_sort_key(g: GenTwoCell) -> str:
    """A deterministic total order on generators, used only to break ties."""
    return repr(g)


# ---------------------------------------------------------------------------
# signatures


EXTENSION_GENERATOR = {"TA": "alpha", "DD": "phi", "AC": "beta"}


@dataclass
class Signature:
    """A base presentation plus an optional one-generator descent extension.

    ``extension`` is None (the plain bifibrational signature) or one of
    "TA", "DD", "AC"; the extension is parameterized by the distinguished
    arrow ``f`` and object generator ``obj``, with ``pair`` holding the
    kernel-pair projections (f1, f2) required by the DD and AC generators.
    """

    base: BasePresentation
    extension: Optional[str] = None
    f: Optional[ArrowGen] = None
    obj: Optional[ObjTok] = None
    pair: Optional[tuple[ArrowGen, ArrowGen]] = None

    def __post_init__(self):
        if self.extension is not None:
            if self.extension not in EXTENSION_GENERATOR:
                raise InvalidGenerator(f"unknown extension {self.extension!r}")
            if self.f is None or self.obj is None:
                raise InvalidGenerator("an extension needs its arrow and object")
            if self.extension in ("DD", "AC") and len(self.pair or ()) != 2:
                raise InvalidGenerator(f"extension {self.extension} needs kernel-pair projections")

    def descent_generator(self) -> DescentCell:
        name = EXTENSION_GENERATOR[self.extension]
        aux = () if name == "alpha" else self.pair
        return DescentCell(name, self.obj, self.f, aux)


def validate_generator(sig: Signature, g: GenTwoCell) -> None:
    """Raise unless the generator is licensed by the signature."""
    if isinstance(g, Coherence):
        validate_polygon_type(sig.base, g.pt)
    elif isinstance(g, (Unit, Counit)):
        if g.arrow not in sig.base.arrows:
            raise InvalidGenerator(f"arrow {g.arrow!r} not in the base")
    elif isinstance(g, SquareInv):
        if g.square not in sig.base.squares:
            raise InvalidGenerator(
                f"square {g.square.label} is not marked in the base presentation"
            )
    elif isinstance(g, DescentCell):
        if sig.extension is None or EXTENSION_GENERATOR[sig.extension] != g.name:
            raise InvalidGenerator(
                f"generator {g.name} requires the {g.system} extension"
            )
        if g != sig.descent_generator():
            raise InvalidGenerator(f"generator {g!r} does not match the extension parameters")
    else:
        raise InvalidGenerator(f"unknown generator {g!r}")


def validate_diagram(sig: Signature, d: "Diagram") -> None:
    for layer in d.layers:
        validate_generator(sig, layer.gen)


# ---------------------------------------------------------------------------
# layers and diagrams


@hash_once
@dataclass(frozen=True)
class Layer:
    """One generator with identity whiskers on either side."""

    left: OneCellPath
    gen: GenTwoCell
    right: OneCellPath

    def __post_init__(self):
        # intern the generator and cache the whiskered boundary; malformed
        # layers fail early
        gid = _gen_id(self.gen)
        gs, gt = _GEN_LIST[gid][1]
        top = concat_cells(concat_cells(self.left, gs), self.right)
        bottom = concat_cells(concat_cells(self.left, gt), self.right)
        object.__setattr__(self, "_gid", gid)
        object.__setattr__(self, "_boundary", (top, bottom))

    def boundary(self) -> tuple[OneCellPath, OneCellPath]:
        return self._boundary

    @property
    def offset(self) -> int:
        return len(self.left)

    def gen_widths(self) -> tuple[int, int]:
        return _GEN_W[self._gid]

    def __repr__(self):
        return f"[{self.left!r} | {self.gen!r} | {self.right!r}]"


@hash_once
@dataclass(frozen=True)
class Diagram:
    """A two-cell term: boundary strings plus layers read top to bottom."""

    source: OneCellPath
    target: OneCellPath
    layers: tuple[Layer, ...]

    def __post_init__(self):
        at = self.source
        for i, layer in enumerate(self.layers):
            top, bottom = layer.boundary()
            if top != at:
                raise BoundaryMismatch(
                    f"layer {i} expects source {top!r}, chain gives {at!r}"
                )
            at = bottom
        if at != self.target:
            raise BoundaryMismatch(f"layer chain ends at {at!r}, target is {self.target!r}")
        if self.source.dom != self.target.dom or self.source.cod != self.target.cod:
            raise BoundaryMismatch("diagram boundary strings are not parallel")

    def generators(self):
        return tuple(layer.gen for layer in self.layers)

    def is_identity(self):
        return not self.layers

    def __repr__(self):
        body = "; ".join(repr(l) for l in self.layers) or "id"
        return f"<{self.source!r} => {self.target!r} : {body}>"


def identity_diagram(p: OneCellPath) -> Diagram:
    return Diagram(p, p, ())


def from_layers(layers, source: Optional[OneCellPath] = None) -> Diagram:
    """Assemble a diagram from a layer chain, inferring the boundary."""
    layers = tuple(layers)
    if not layers:
        if source is None:
            raise BoundaryMismatch("an empty layer list needs an explicit boundary")
        return identity_diagram(source)
    src = layers[0].boundary()[0] if source is None else source
    tgt = layers[-1].boundary()[1]
    return Diagram(src, tgt, layers)


def single(gen: GenTwoCell, left: Optional[OneCellPath] = None,
           right: Optional[OneCellPath] = None) -> Diagram:
    """The diagram consisting of one whiskered generator."""
    gs, gt = generator_boundary(gen)
    left = identity_cells(gs.dom) if left is None else left
    right = identity_cells(gs.cod) if right is None else right
    return from_layers([Layer(left, gen, right)])


def vcompose(d1: Diagram, d2: Diagram) -> Diagram:
    """Top-to-bottom pasting."""
    if d1.target != d2.source:
        raise BoundaryMismatch(f"vcompose: {d1.target!r} != {d2.source!r}")
    return Diagram(d1.source, d2.target, d1.layers + d2.layers)


def whisker(side: str, p: OneCellPath, d: Diagram) -> Diagram:
    """Extend every layer (and the boundary) by an identity string ``p``."""
    if side == "left":
        layers = [Layer(concat_cells(p, l.left), l.gen, l.right) for l in d.layers]
        return Diagram(concat_cells(p, d.source), concat_cells(p, d.target), tuple(layers))
    if side == "right":
        layers = [Layer(l.left, l.gen, concat_cells(l.right, p)) for l in d.layers]
        return Diagram(concat_cells(d.source, p), concat_cells(d.target, p), tuple(layers))
    raise BoundaryMismatch(f"unknown whisker side {side!r}")


def hcompose(d1: Diagram, d2: Diagram) -> Diagram:
    """Left-to-right pasting, realized via the interchange identity."""
    if d1.source.cod != d2.source.dom:
        raise BoundaryMismatch(f"hcompose: {d1.source.cod!r} != {d2.source.dom!r}")
    upper = whisker("right", d2.source, d1)
    lower = whisker("left", d1.target, d2)
    return vcompose(upper, lower)


# ---------------------------------------------------------------------------
# the exchange relation and its canonical form


# Layers carry whisker paths, which makes building and first hashing them
# costly. The exchange search therefore runs on compact words of (generator
# id, offset) pairs, the letters; a word plus the top boundary determines
# the layer sequence. Generators are interned to small integers, so a word
# holds only integers and each generator's boundary is computed once:
# generator -> id, id -> (generator, boundary), id -> boundary widths. Ids
# are labels only; no order on words reads them. A search goes one step
# further and numbers the letters it meets (``_Letters``), so the words it
# hashes and stores are flat byte strings.

_GEN_IDS: dict = {}
_GEN_LIST: list = []
_GEN_W: list = []


def _gen_id(gen) -> int:
    gid = _GEN_IDS.get(gen)
    if gid is None:
        gs, gt = _generator_boundary(gen)
        gid = _GEN_IDS[gen] = len(_GEN_LIST)
        _GEN_LIST.append((gen, (gs, gt)))
        _GEN_W.append((len(gs), len(gt)))
    return gid


def _swap_branches(i1, i2) -> tuple:
    """Every exchange move of adjacent layers ``i1`` over ``i2``: 0, 1 or 2.

    The lower cell slides up past the upper one on its left or on its
    right. Both apply only when the upper cell has no outputs, the lower
    has no inputs and both sit at one offset; then the lower cell may end
    up on either side. Each branch is undone by the other one's move, so
    exchange under both branches is symmetric.
    """
    g1, a = i1
    g2, c = i2
    s1, t1 = _GEN_W[g1]
    s2, t2 = _GEN_W[g2]
    left = ((g2, c), (g1, a - s2 + t2)) if c + s2 <= a else None
    right = ((g2, c - t1 + s1), (g1, a)) if c >= a + t1 else None
    if left is None:
        return () if right is None else (right,)
    return (left,) if right is None or right == left else (left, right)


def compact_word(layers: tuple[Layer, ...]) -> tuple:
    return tuple((l._gid, l.offset) for l in layers)


class _Letters:
    """One search's letter table: each letter a number written in ``k``
    bytes, each word the ``bytes`` of its letters' numbers.

    ``k`` comes from a bound known before the search: exchange keeps the
    generators and the top boundary, and every letter's offset stays below
    the widest boundary of any presentation, at most the least top width
    the start words allow plus every strand a generator adds. Letters are
    numbered as met, and each adjacent pair's moves are computed with
    ``_swap_branches`` once, then looked up.
    """

    __slots__ = ("k", "codes", "letters", "moves")

    def __init__(self, words):
        gens, top, grow = set(), 0, 0
        for word in words:
            width = added = 0  # width relative to the top
            for gid, off in word:
                gens.add(gid)
                s, t = _GEN_W[gid]
                if off + s - width > top:
                    top = off + s - width
                if t > s:
                    added += t - s
                width += t - s
            if added > grow:
                grow = added
        most = len(gens) * (top + grow + 1)
        self.k = max(1, ((most - 1).bit_length() + 7) // 8)
        self.codes = {}  # letter -> its k bytes
        self.letters = []  # number -> letter
        self.moves = {}  # an adjacent pair of numbers -> the pairs it moves to

    def code(self, letter) -> bytes:
        code = self.codes.get(letter)
        if code is None:
            code = self.codes[letter] = len(self.letters).to_bytes(self.k, "big")
            self.letters.append(letter)
        return code

    def encode(self, word: tuple) -> bytes:
        return b"".join(map(self.code, word))

    def numbers(self, word: bytes):
        """The letter numbers of a word, in order."""
        k = self.k
        if k == 1:
            return word
        return [int.from_bytes(word[j : j + k], "big")
                for j in range(0, len(word), k)]

    def decode(self, word: bytes) -> tuple:
        return tuple(map(self.letters.__getitem__, self.numbers(word)))

    def neighbours(self, word: bytes) -> list:
        """Every word one exchange move from ``word`` under both branches,
        pair by pair from the left of the word."""
        k, moves, letters = self.k, self.moves, self.letters
        nums = self.numbers(word)
        out = []
        for j, pair in enumerate(zip(nums, nums[1:])):
            moved = moves.get(pair)
            if moved is None:
                a, b = pair
                moved = _swap_branches(letters[a], letters[b])
                if moved:
                    moved = tuple(self.code(x) + self.code(y) for x, y in moved)
                moves[pair] = moved
            for m in moved:
                out.append(word[: j * k] + m + word[(j + 2) * k :])
        return out


def exchange_walk(word: tuple):
    """Every word of ``word``'s exchange class, lazily, in breadth-first
    discovery order over exchange moves from ``word`` itself. Each word
    is yielded once found, and a word's neighbours are generated only
    once the caller asks for a word not yet found, so a caller that stops
    early walks no further. Nothing outlives the
    walk: the same start word always gives the same words in the same
    order, and every start word of a class gives the same set."""
    yield word
    if not any(map(_swap_branches, word, word[1:])):
        return  # no move applies: the word is its whole class
    letters = _Letters((word,))
    start = letters.encode(word)
    seen = {start}
    frontier = deque([start])
    while frontier:
        for nxt in letters.neighbours(frontier.popleft()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
                yield letters.decode(nxt)


def class_words(word: tuple) -> list:
    """The whole of ``exchange_walk(word)``, as a list."""
    return list(exchange_walk(word))


def expand_word(source: OneCellPath, word: tuple) -> tuple[Layer, ...]:
    layers = []
    top = source
    for gid, off in word:
        s, _ = _GEN_W[gid]
        layer = Layer(slice_cells(top, 0, off), _GEN_LIST[gid][0],
                      slice_cells(top, off + s))
        layers.append(layer)
        top = layer.boundary()[1]
    return tuple(layers)


def word_generator(gid: int) -> GenTwoCell:
    """The generator interned as ``gid`` in a compact word."""
    return _GEN_LIST[gid][0]


def word_widths(word: tuple, top_width: int) -> list[int]:
    """The boundary width above each layer of a word, then below the last."""
    widths = [top_width]
    for gid, _ in word:
        s, t = _GEN_W[gid]
        widths.append(widths[-1] + t - s)
    return widths


def region_misfit(word: tuple, top_width: int, lo: int, hi: int,
                  strand: int, width: int) -> Optional[str]:
    """Why layers ``lo..hi`` of a word leave the strand interval, or None.

    The interval starts at ``strand`` and spans ``width`` strands of the
    boundary above layer ``lo``; it follows the block down, growing or
    shrinking with each generator inside it. The region fits when the
    layer range and the interval are in bounds and every generator in the
    range acts inside the interval. Only offsets and widths are read, so
    a presentation need not be expanded to layers to be ruled out.
    """
    if not (0 <= lo <= hi <= len(word)):
        return f"layer range {lo}..{hi} out of bounds"
    above = top_width
    for gid, _ in word[:lo]:
        s, t = _GEN_W[gid]
        above += t - s
    if strand < 0 or strand + width > above:
        return "strand interval out of bounds"
    cur_hi = strand + width
    for i in range(lo, hi):
        gid, off = word[i]
        s, t = _GEN_W[gid]
        if off < strand or off + s > cur_hi:
            return f"layer {i} acts outside the block's strand interval"
        cur_hi += t - s
    return None


_CANON_MEMO: dict = {}


def _canonical_layers(layers: tuple[Layer, ...]) -> tuple[Layer, ...]:
    """Lexicographically minimal exchange-equivalent layer sequence.

    The minimum is taken over every presentation of the exchange class
    (``class_words``), so it does not depend on the presentation given.
    Level-by-level greedy emission is not sound here: a zero-width
    generator sitting at the edge of a deletion interval can slide through
    the deletion, which changes which other layers it overlaps, so the set
    of layers movable to the top depends on the chosen presentation.
    ``_CANON_MEMO`` maps every word of a walked class to its result, a
    cache only: any word of the class would give the same result.
    """
    if not layers:
        return ()
    source = layers[0].boundary()[0]
    word = compact_word(layers)
    cached = _CANON_MEMO.get((source, word))
    if cached is not None:
        return cached
    words = class_words(word)
    genkeys = {}
    for g, _ in word:
        if g not in genkeys:
            genkeys[g] = gen_sort_key(_GEN_LIST[g][0])
    best = min(words, key=lambda w: tuple((o, genkeys[g]) for g, o in w))
    result = expand_word(source, best)
    for w in words:
        _CANON_MEMO[(source, w)] = result
    return result


def exchange_canonical(d: Diagram) -> Diagram:
    """The least presentation of ``d``'s exchange class (see
    ``_canonical_layers``)."""
    if len(_CANON_MEMO) > 400000:
        _CANON_MEMO.clear()
    return Diagram(d.source, d.target, _canonical_layers(d.layers))


def isotopic(d1: Diagram, d2: Diagram) -> bool:
    """Whether two diagrams are presentations of one exchange class.

    Exchange keeps the boundary and the multiset of generators, so those
    are compared first. Then a breadth-first search runs from both words
    at once over exchange moves, always growing the smaller frontier, until
    the two meet or one side has no word left to visit. Both sides share
    one letter table, so the search runs on byte strings. The relation is
    symmetric and nothing is memoized, so the answer depends on neither
    the argument order nor what the process searched before.
    """
    if d1.source != d2.source or d1.target != d2.target:
        return False
    w1, w2 = compact_word(d1.layers), compact_word(d2.layers)
    if w1 == w2:
        return True
    if sorted(g for g, _ in w1) != sorted(g for g, _ in w2):
        return False
    letters = _Letters((w1, w2))
    e1, e2 = letters.encode(w1), letters.encode(w2)
    near, far = [e1], [e2]
    near_seen, far_seen = {e1}, {e2}
    while near and far:
        if len(near) > len(far):
            near, far, near_seen, far_seen = far, near, far_seen, near_seen
        grown = []
        for word in near:
            for nxt in letters.neighbours(word):
                if nxt in far_seen:
                    return True
                if nxt not in near_seen:
                    near_seen.add(nxt)
                    grown.append(nxt)
        near = grown
    return False
