"""Finitely presented base categories.

Objects, generating arrows, composable paths, declared commutativity
relations, polygon types and marked pullback squares, together with a
bounded breadth-first decision procedure for path-value equality.

Path equality is three-valued in spirit: ``paths_equal`` answers ``True``
(a rewrite chain inside the bound was found) or ``False`` (no chain found;
this is *not* a disequality claim).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Iterable

from .errors import (
    InvalidBinding,
    NonComposable,
    NotParallel,
    ValueEqualityNotProven,
)

DEFAULT_SEARCH_BOUND = 8


def hash_once(cls):
    """Make a frozen dataclass hash its term tree once and keep the value.

    The value is the generated one, ``hash`` of the field tuple, so dict
    and set orders stay; it is kept on first use, since some paths are
    built without ``__init__``."""
    names = [f.name for f in fields(cls)]
    key, single = attrgetter(*names), len(names) == 1

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((key(self),) if single else key(self))
            object.__setattr__(self, "_hash", h)
            return h

    cls.__hash__ = __hash__
    return cls


@hash_once
@dataclass(frozen=True, order=True)
class ObjectId:
    name: str

    def __repr__(self):
        return self.name


@hash_once
@dataclass(frozen=True, order=True)
class ArrowGen:
    name: str
    src: ObjectId
    dst: ObjectId

    def __repr__(self):
        return f"{self.name}:{self.src}->{self.dst}"


@hash_once
@dataclass(frozen=True)
class Path:
    """A composable sequence of generating arrows, listed in application order.

    The empty sequence is the identity path; it requires ``src == dst``.
    """

    src: ObjectId
    arrows: tuple[ArrowGen, ...]
    dst: ObjectId

    def __post_init__(self):
        at = self.src
        for a in self.arrows:
            if a.src != at:
                raise NonComposable(f"arrow {a} does not start at {at}")
            at = a.dst
        if at != self.dst:
            raise NonComposable(f"path ends at {at}, declared dst {self.dst}")

    @property
    def is_empty(self):
        return not self.arrows

    def names(self):
        return tuple(a.name for a in self.arrows)

    def __repr__(self):
        if self.is_empty:
            return f"id({self.src})"
        return ";".join(self.names())


def empty_path(obj: ObjectId) -> Path:
    return Path(obj, (), obj)


def path_of(*arrows: ArrowGen) -> Path:
    if not arrows:
        raise InvalidBinding("path_of needs at least one arrow; use empty_path")
    return Path(arrows[0].src, tuple(arrows), arrows[-1].dst)


def compose_paths(p: Path, q: Path) -> Path:
    """Concatenate ``p`` then ``q``. Associative; empty paths are neutral."""
    if p.dst != q.src:
        raise NonComposable(f"cannot compose {p!r} ({p.dst}) with {q!r} ({q.src})")
    return Path(p.src, p.arrows + q.arrows, q.dst)


@hash_once
@dataclass(frozen=True)
class PathRelation:
    lhs: Path
    rhs: Path

    def __post_init__(self):
        if self.lhs.src != self.rhs.src or self.lhs.dst != self.rhs.dst:
            raise NotParallel(f"relation sides not parallel: {self.lhs!r} = {self.rhs!r}")


@hash_once
@dataclass(frozen=True)
class PolygonType:
    """A pair of parallel paths recording a commutative polygon's boundary.

    One or both sides may be empty (degenerate polygon types).
    """

    top: Path
    bottom: Path

    def __post_init__(self):
        if self.top.src != self.bottom.src or self.top.dst != self.bottom.dst:
            raise NotParallel(f"polygon sides not parallel: {self.top!r}, {self.bottom!r}")

    @property
    def src(self):
        return self.top.src

    @property
    def dst(self):
        return self.top.dst

    def __repr__(self):
        return f"({self.top!r} => {self.bottom!r})"


def opposite(pt: PolygonType) -> PolygonType:
    """Swap top and bottom; involutive."""
    return PolygonType(pt.bottom, pt.top)


def paste_polygon_types(kind: str, pt1: PolygonType, pt2: PolygonType) -> PolygonType:
    """Paste two polygon types vertically or horizontally.

    ``kind`` is ``"vertical"`` (middle boundaries must agree) or
    ``"horizontal"`` (pt1's target object must be pt2's source object).
    """
    if kind == "vertical":
        if pt1.bottom != pt2.top:
            raise NotParallel(f"vertical pasting needs {pt1.bottom!r} = {pt2.top!r}")
        return PolygonType(pt1.top, pt2.bottom)
    if kind == "horizontal":
        return PolygonType(
            compose_paths(pt1.top, pt2.top), compose_paths(pt1.bottom, pt2.bottom)
        )
    raise InvalidBinding(f"unknown pasting kind {kind!r}")


@hash_once
@dataclass(frozen=True)
class PullbackSquare:
    """A marked pullback square: (a then d) = (c then b).

    ``a`` is the top edge, ``c`` the left, ``d`` the right, ``b`` the bottom.
    """

    label: str
    a: ArrowGen
    c: ArrowGen
    d: ArrowGen
    b: ArrowGen

    def __post_init__(self):
        if self.a.src != self.c.src:
            raise InvalidBinding(f"square {self.label}: a and c must share a source")
        if self.a.dst != self.d.src or self.c.dst != self.b.src:
            raise InvalidBinding(f"square {self.label}: edges do not meet")
        if self.d.dst != self.b.dst:
            raise InvalidBinding(f"square {self.label}: d and b must share a target")

    def commutativity(self) -> PolygonType:
        return PolygonType(path_of(self.a, self.d), path_of(self.c, self.b))


@dataclass
class BasePresentation:
    objects: set[ObjectId] = field(default_factory=set)
    arrows: set[ArrowGen] = field(default_factory=set)
    relations: list[PathRelation] = field(default_factory=list)
    squares: list[PullbackSquare] = field(default_factory=list)
    search_bound: int = DEFAULT_SEARCH_BOUND

    def object(self, name: str) -> ObjectId:
        obj = ObjectId(name)
        self.objects.add(obj)
        return obj

    def arrow(self, name: str, src: ObjectId, dst: ObjectId) -> ArrowGen:
        if src not in self.objects or dst not in self.objects:
            raise InvalidBinding(f"arrow {name}: unknown endpoint object")
        if any(a.name == name for a in self.arrows):
            raise InvalidBinding(f"duplicate arrow name {name}")
        arr = ArrowGen(name, src, dst)
        self.arrows.add(arr)
        return arr

    def relate(self, lhs: Path, rhs: Path) -> PathRelation:
        rel = PathRelation(lhs, rhs)
        self.relations.append(rel)
        return rel

    def mark_square(self, label, a, c, d, b) -> PullbackSquare:
        if any(s.label == label for s in self.squares):
            raise InvalidBinding(f"duplicate square label {label}")
        sq = PullbackSquare(label, a, c, d, b)
        if not paths_equal(self, path_of(a, d), path_of(c, b)):
            raise ValueEqualityNotProven(
                f"square {label}: commutativity not derivable from declared relations"
            )
        self.squares.append(sq)
        return sq

    def square(self, label: str) -> PullbackSquare:
        for s in self.squares:
            if s.label == label:
                return s
        raise InvalidBinding(f"no marked square {label}")

    def arrow_by_name(self, name: str) -> ArrowGen:
        for a in self.arrows:
            if a.name == name:
                return a
        raise InvalidBinding(f"no arrow named {name}")

    def object_by_name(self, name: str) -> ObjectId:
        obj = ObjectId(name)
        if obj not in self.objects:
            raise InvalidBinding(f"no object named {name}")
        return obj


def _rewrites(base: BasePresentation, p: Path) -> Iterable[Path]:
    """All paths obtained from ``p`` by one relation application, either way."""
    arrows = p.arrows
    for rel in base.relations:
        for src_side, dst_side in ((rel.lhs, rel.rhs), (rel.rhs, rel.lhs)):
            k = len(src_side.arrows)
            for i in range(len(arrows) - k + 1):
                if arrows[i : i + k] == src_side.arrows:
                    # empty src_side also needs a matching insertion point
                    at = arrows[i - 1].dst if i > 0 else p.src
                    if src_side.src != at:
                        continue
                    yield Path(p.src, arrows[:i] + dst_side.arrows + arrows[i + k :], p.dst)


def paths_equal(base: BasePresentation, p: Path, q: Path) -> bool:
    """Bounded breadth-first search for a relation chain connecting p and q.

    ``True`` means provably equal within ``base.search_bound`` rewrite steps;
    ``False`` only means no proof was found within the bound.
    """
    if p.src != q.src or p.dst != q.dst:
        raise NotParallel(f"{p!r} and {q!r} are not parallel")
    if p == q:
        return True
    seen = {p}
    frontier = deque([(p, 0)])
    while frontier:
        cur, depth = frontier.popleft()
        if depth >= base.search_bound:
            continue
        for nxt in _rewrites(base, cur):
            if nxt == q:
                return True
            if nxt not in seen:
                seen.add(nxt)
                frontier.append((nxt, depth + 1))
    return False


def validate_polygon_type(base: BasePresentation, pt: PolygonType) -> None:
    """Raise unless the polygon type's sides are provably value-equal."""
    if not paths_equal(base, pt.top, pt.bottom):
        raise ValueEqualityNotProven(f"polygon sides not provably equal: {pt!r}")
