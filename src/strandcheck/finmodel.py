"""Families of finite sets as a concrete model of the calculus.

Every base object is interpreted as a finite set, every base arrow as a
total function, every one-cell as an operation on finite families and
every diagram as a concrete function between families. Reindexing is
strictly functorial here, so every coherence cell is interpreted as an
identity; the model is therefore exact and serves as an independent
semantic oracle: two diagrams proven equal by the checker must evaluate
to the same function on every sampled instance.

Conventions. A family over an object is one finite set per carrier
element; the terminal symbol carries a single one-point fiber. ``g*``
reindexes, so the fiber of ``g* Y`` over ``a`` is the fiber of ``Y``
over ``g(a)``; ``g!`` is the disjoint union that tags each element with
its fiber index, so an element of ``g! X`` over ``b`` is a pair
``(a, v)`` with ``g(a) = b``.

Reading a diagram. Every generator acts one fiber at a time, so a
diagram is a function on elements, and an element (a base point and a
fiber element over it) is carried down the layers one at a time. At a
layer the right whisker is peeled off from the outside in: a ``g*``
strand moves the base point to its image under ``g``, a ``g!`` strand
unpacks its ``(a, v)`` tag. The generator then acts at the base point
reached: the unit is ``v |-> (a, v)``, the counit the fold
``(a, v) |-> v``, a coherence cell the identity (once both polygon
sides are seen to send the base point to the same element), a descent
cell a lookup in its environment map, and the inverted comparison cell
of a marked square a corner lookup: ``(x, v) |-> (w, v)`` for the
unique corner element ``w`` over ``x`` and the base point. The whisker
is then wrapped back on. The left whisker only says which family the
element lives in, so it is never interpreted.

Sampling. A claim's draws depend only on the seed, on whether it needs
a descent environment and on the object of its input family, so
``oracle_claims`` draws each sample once per group of claims that agree
on these and interprets every claim of the group on it before the next
draw: each claim sees exactly the samples it would see alone.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Union

from .base import ArrowGen, BasePresentation, ObjectId, Path, PullbackSquare
from .calculus import (
    Coherence,
    Counit,
    DescentCell,
    Diagram,
    GenTwoCell,
    ObjTok,
    OneCellPath,
    OneCellToken,
    Shriek,
    SquareInv,
    Star,
    Unit,
    generator_boundary,
    single,
)
from .errors import (
    BoundaryMismatch,
    EnvMissing,
    InvalidGenerator,
    RelationViolated,
    TypeMismatch,
)

_TERMINAL_POINT = "*"


# ---------------------------------------------------------------------------
# families and family maps


@dataclass(frozen=True)
class Family:
    """A finite family: one finite set of labels per carrier element.

    ``over`` is a base object, or None for the terminal symbol (whose
    carrier is the single point ``"*"``). ``fibers`` pairs each carrier
    element with the tuple of its fiber labels; tuples keep element
    order, which makes strictly functorial constructions compare equal
    structurally.
    """

    over: Optional[ObjectId]
    fibers: tuple[tuple[object, tuple], ...]

    def fiber(self, elem) -> tuple:
        for e, fib in self.fibers:
            if e == elem:
                return fib
        raise TypeMismatch(f"element {elem!r} is not in the carrier of {self.over!r}")

    def total_size(self) -> int:
        return sum(len(fib) for _, fib in self.fibers)

    def __repr__(self):
        shown = ", ".join(f"{e!r}:{len(fib)}" for e, fib in self.fibers)
        return f"Family({self.over!r}; {shown})"


def terminal_family() -> Family:
    return Family(None, ((_TERMINAL_POINT, (_TERMINAL_POINT,)),))


@dataclass
class FamilyMap:
    """A fiberwise function between two families over the same object."""

    src: Family
    dst: Family
    components: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.src.over != self.dst.over:
            raise TypeMismatch(
                f"map endpoints over different objects: {self.src.over!r}, {self.dst.over!r}"
            )


# ---------------------------------------------------------------------------
# finite instances of a base presentation


@dataclass
class FinInstance:
    """A finite-set realization of a base presentation.

    ``carrier`` maps each object to a tuple of element labels and
    ``action`` maps each arrow to a dict realizing a total function
    between the carriers.
    """

    base: BasePresentation
    carrier: dict
    action: dict

    def apply_arrow(self, arrow: ArrowGen, elem):
        return self.action[arrow][elem]

    def apply_path(self, path: Path, elem):
        for arrow in path.arrows:
            elem = self.action[arrow][elem]
        return elem


def validate_instance(inst: FinInstance) -> None:
    """Raise RelationViolated unless the instance realizes the base.

    Checks totality of every arrow action, extensional validity of every
    declared path relation, and that every marked square is a genuine
    pullback (the canonical comparison into the subset of the product is
    a bijection).
    """
    for arrow in inst.base.arrows:
        act = inst.action.get(arrow)
        if act is None:
            raise RelationViolated(f"no action for arrow {arrow!r}")
        for e in inst.carrier[arrow.src]:
            if e not in act or act[e] not in inst.carrier[arrow.dst]:
                raise RelationViolated(f"action of {arrow!r} is not total at {e!r}")
    for rel in inst.base.relations:
        for e in inst.carrier[rel.lhs.src]:
            if inst.apply_path(rel.lhs, e) != inst.apply_path(rel.rhs, e):
                raise RelationViolated(
                    f"relation {rel.lhs!r} = {rel.rhs!r} fails at {e!r}"
                )
    for sq in inst.base.squares:
        corner = inst.carrier[sq.a.src]
        images = [(inst.apply_arrow(sq.a, w), inst.apply_arrow(sq.c, w)) for w in corner]
        expected = [
            (x, y)
            for x in inst.carrier[sq.d.src]
            for y in inst.carrier[sq.b.src]
            if inst.apply_arrow(sq.d, x) == inst.apply_arrow(sq.b, y)
        ]
        if len(images) != len(set(images)) or set(images) != set(expected):
            raise RelationViolated(f"square {sq.label} is not a genuine pullback")


@functools.cache
def _descent_base() -> BasePresentation:
    from .descent import builtin_descent_base
    return builtin_descent_base()


def unrealized(d: Diagram) -> Optional[str]:
    """The first object, arrow, object token or descent cell of ``d`` that
    the instances of ``make_instance`` and the environments of
    ``free_algebra_env`` do not realize, or None: the oracle can interpret
    ``d`` only when they realize every one. Each object of a string is an
    end of the string or an end of one of its arrows."""
    base = _descent_base()
    for path in (d.source, d.target, *(p for l in d.layers for p in l.boundary())):
        for obj in (path.dom.obj, path.cod.obj):
            if obj is not None and obj not in base.objects:
                return f"object {obj}"
        for t in path.tokens:
            if isinstance(t, ObjTok):
                if t != _free_template()[0].x:
                    return f"object token {t!r}"
            elif t.arrow not in base.arrows:
                return f"arrow {t.arrow!r}"
    for g in (layer.gen for layer in d.layers):
        if isinstance(g, DescentCell) and g not in _free_template()[1:4]:
            arrows = ", ".join(a.name for a in (g.f, *g.aux))
            return f"descent cell {g!r}({arrows})"
    return None


def make_instance(A, B, f: Union[Mapping, Callable]) -> FinInstance:
    """The canonical finite-set instance of the built-in kernel-pair base.

    ``A`` and ``B`` are finite iterables of labels and ``f`` a total
    function (mapping or callable) from B to A. Q and R are built as the
    canonical pullbacks: Q the pairs of B-elements identified by f, R
    the pairs (q1, q2) of Q-elements with f2(q2) = f1(q1), with
    pi(q1, q2) = (f1(q2), f2(q1)).
    """
    base = _descent_base()
    elems_a = tuple(A)
    elems_b = tuple(B)
    fmap = dict(f) if isinstance(f, Mapping) else {b: f(b) for b in elems_b}
    for b in elems_b:
        if b not in fmap or fmap[b] not in elems_a:
            raise RelationViolated(f"f is not a total function into A at {b!r}")
    elems_q = tuple(
        (b1, b2) for b1 in elems_b for b2 in elems_b if fmap[b1] == fmap[b2]
    )
    f1 = {q: q[0] for q in elems_q}
    f2 = {q: q[1] for q in elems_q}
    elems_r = tuple(
        (q1, q2) for q1 in elems_q for q2 in elems_q if f2[q2] == f1[q1]
    )
    obj = {o.name: o for o in base.objects}
    arr = {a.name: a for a in base.arrows}
    carrier = {
        obj["A"]: elems_a,
        obj["B"]: elems_b,
        obj["Q"]: elems_q,
        obj["R"]: elems_r,
    }
    action = {
        arr["f"]: dict(fmap),
        arr["f1"]: f1,
        arr["f2"]: f2,
        arr["delta"]: {b: (b, b) for b in elems_b},
        arr["pi1"]: {r: r[0] for r in elems_r},
        arr["pi2"]: {r: r[1] for r in elems_r},
        arr["pi"]: {r: (f1[r[1]], f2[r[0]]) for r in elems_r},
    }
    inst = FinInstance(base, carrier, action)
    validate_instance(inst)
    return inst


# ---------------------------------------------------------------------------
# interpreting one-cells


def interpret_token(
    t: OneCellToken, inst: FinInstance, x: Family, env: Optional[dict] = None
) -> Family:
    """Apply one one-cell token to a family.

    Star reindexes fibers along the arrow's action, Shriek forms the
    fiberwise disjoint union with elements tagged by their index, and an
    object token returns the family assigned by ``env``.
    """
    if isinstance(t, Star):
        g = t.arrow
        if x.over != g.dst:
            raise TypeMismatch(f"{t!r} expects a family over {g.dst!r}, got {x.over!r}")
        return Family(
            g.src,
            tuple((a, x.fiber(inst.apply_arrow(g, a))) for a in inst.carrier[g.src]),
        )
    if isinstance(t, Shriek):
        g = t.arrow
        if x.over != g.src:
            raise TypeMismatch(f"{t!r} expects a family over {g.src!r}, got {x.over!r}")
        fibers = []
        for b in inst.carrier[g.dst]:
            fibers.append(
                (
                    b,
                    tuple(
                        (a, v)
                        for a in inst.carrier[g.src]
                        if inst.apply_arrow(g, a) == b
                        for v in x.fiber(a)
                    ),
                )
            )
        return Family(g.dst, tuple(fibers))
    if isinstance(t, ObjTok):
        if x.over is not None:
            raise TypeMismatch(f"object token {t!r} applies at the terminal symbol only")
        if env is None or t not in env:
            raise EnvMissing(f"no family assigned to object token {t!r}")
        fam = env[t]
        if fam.over != t.fiber_obj:
            raise TypeMismatch(
                f"family for {t!r} must be over {t.fiber_obj!r}, got {fam.over!r}"
            )
        return fam
    raise TypeMismatch(f"unknown one-cell token {t!r}")


def interpret_path(
    p: OneCellPath, inst: FinInstance, x: Family, env: Optional[dict] = None
) -> Family:
    expected = None if p.dom.is_terminal else p.dom.obj
    if x.over != expected:
        raise TypeMismatch(f"path {p!r} expects a family over {expected!r}")
    for t in p.tokens:
        x = interpret_token(t, inst, x, env)
    return x


# ---------------------------------------------------------------------------
# interpreting diagrams element by element


def _comparison_inverse(sq: PullbackSquare, inst: FinInstance):
    """The step of ``bcbar`` at a marked square: a corner lookup.

    An element ``(x, v)`` over ``y`` goes to ``(w, v)``, where ``w`` is the
    corner element with ``a(w) = x`` and ``c(w) = y``; a genuine pullback
    has exactly one.
    """
    act_a, act_c = inst.action[sq.a], inst.action[sq.c]
    corner = {}
    for w in inst.carrier[sq.a.src]:
        corner.setdefault((act_a[w], act_c[w]), []).append(w)

    def bcbar(y, tagged):
        x, v = tagged
        found = corner.get((x, y), ())
        if len(found) > 1:
            raise RelationViolated(
                f"square {sq.label}: comparison is not injective at {y!r}"
            )
        if not found:
            raise RelationViolated(
                f"square {sq.label}: comparison is not onto at {y!r}"
            )
        return (found[0], v)

    return bcbar


def _generator_step(g: GenTwoCell, inst: FinInstance, env: Optional[dict]):
    """The action of one generator on one element of its source family.

    The step takes a base point ``x`` over the generator's codomain and an
    element ``v`` of the fiber over ``x``, and returns the image element,
    which lies over the same point.
    """
    if isinstance(g, Unit):
        return lambda x, v: (x, v)
    if isinstance(g, Counit):
        return lambda x, v: v[1]
    if isinstance(g, Coherence):
        top, bottom = g.pt.top, g.pt.bottom
        passed = set()  # the check reads only the point, not the element

        def chi(x, v):
            if x not in passed:
                if inst.apply_path(top, x) != inst.apply_path(bottom, x):
                    raise RelationViolated(
                        f"coherence {g!r}: polygon sides differ extensionally at {x!r}"
                    )
                passed.add(x)
            return v

        return chi
    if isinstance(g, SquareInv):
        return _comparison_inverse(g.square, inst)
    if isinstance(g, DescentCell):
        if env is None or g not in env:
            raise EnvMissing(f"no family map assigned to descent cell {g!r}")
        m = env[g]
        gs, gt = generator_boundary(g)
        if (m.src != interpret_path(gs, inst, terminal_family(), env)
                or m.dst != interpret_path(gt, inst, terminal_family(), env)):
            raise TypeMismatch(f"assigned map for {g!r} has the wrong boundary")
        components = m.components
        return lambda x, v: components[x][v]
    raise InvalidGenerator(f"unknown generator {g!r}")


def _carry(point, value, steps: list, inst: FinInstance):
    """The image of the element ``value`` over ``point`` under ``steps``,
    each a layer's right whisker paired with its generator step."""
    action = inst.action
    stack = []
    for right, step in steps:
        for t in reversed(right):
            stack.append(point)
            if isinstance(t, Star):
                point = action[t.arrow][point]
            else:
                point, value = value
        value = step(point, value)
        for t in right:
            if isinstance(t, Shriek):
                value = (point, value)
            point = stack.pop()
    return value


def interpret_diagram(
    d: Diagram,
    inst: FinInstance,
    env: Optional[dict] = None,
    input_family: Optional[Family] = None,
) -> FamilyMap:
    """The family map of a diagram, computed element by element.

    Every element of the source family is carried down the layers (see
    the module docstring); the left whiskers are never interpreted.
    ``env`` assigns a Family to each object token and a FamilyMap to
    each descent cell occurring in the diagram. A diagram whose boundary
    starts at the terminal symbol needs no ``input_family``; otherwise
    one over the boundary's domain object is required.
    """
    if d.source.dom.is_terminal:
        start = terminal_family()
    else:
        if input_family is None:
            raise EnvMissing(
                f"diagram over {d.source.dom!r} needs an input family"
            )
        if input_family.over != d.source.dom.obj:
            raise TypeMismatch(
                f"input family must be over {d.source.dom.obj!r}, "
                f"got {input_family.over!r}"
            )
        start = input_family
    src = interpret_path(d.source, inst, start, env)
    gens = {layer._gid: layer.gen for layer in d.layers}
    made = {gid: _generator_step(g, inst, env) for gid, g in gens.items()}
    steps = [(layer.right.tokens, made[layer._gid]) for layer in d.layers]
    components = {
        e: {v: _carry(e, v, steps, inst) for v in fib} for e, fib in src.fibers
    }
    return FamilyMap(src, interpret_path(d.target, inst, start, env), components)


# ---------------------------------------------------------------------------
# sampling and the oracle


def random_family(
    rng: random.Random, inst: FinInstance, obj: ObjectId, max_fiber: int
) -> Family:
    fibers = []
    for i, e in enumerate(inst.carrier[obj]):
        size = rng.randint(0, max_fiber)
        fibers.append((e, tuple(f"v{i}_{k}" for k in range(size))))
    return Family(obj, tuple(fibers))


def random_instance(rng: random.Random, max_size: int) -> FinInstance:
    """A random canonical instance with carriers of at most ``max_size``."""
    n_a = rng.randint(1, max_size)
    n_b = rng.randint(0, max_size)
    elems_a = tuple(f"a{i}" for i in range(n_a))
    elems_b = tuple(f"b{i}" for i in range(n_b))
    fmap = {b: rng.choice(elems_a) for b in elems_b}
    return make_instance(elems_a, elems_b, fmap)


@functools.cache
def _free_template() -> tuple:
    """The names of the descent base, its three descent cells, alpha's
    source boundary, and the translations of alpha and of phi."""
    from .descent import _Names, signature_for, translate_F, translate_G

    base = _descent_base()
    alpha, phi, beta = (signature_for(kind, base).descent_generator()
                        for kind in ("TA", "DD", "AC"))
    return (_Names(base), alpha, phi, beta, generator_boundary(alpha)[0],
            translate_F(single(alpha), base), translate_G(single(phi), base))


def free_algebra_env(
    rng: random.Random, inst: FinInstance, max_fiber: int
) -> dict:
    """An environment whose descent cells all satisfy their axioms.

    Samples a family Y over A and takes X := f*Y with the free algebra
    structure (the reindexed counit); the gluing and action maps are the
    images of that structure under the two translations, so every axiom
    system holds extensionally.
    """
    n, alpha, phi, beta, alpha_src, phi_map, beta_map = _free_template()
    family_y = random_family(rng, inst, n.f.dst, max_fiber)
    family_x = interpret_token(Star(n.f), inst, family_y)
    env = {n.x: family_x}
    src_fam = interpret_path(alpha_src, inst, terminal_family(), env)
    components = {b: {(b2, v): v for b2, v in fib} for b, fib in src_fam.fibers}
    env[alpha] = FamilyMap(src_fam, family_x, components)
    env[phi] = interpret_diagram(phi_map, inst, env)
    env[beta] = interpret_diagram(beta_map, inst, env)
    return env


def _needs_env(d: Diagram) -> bool:
    if any(isinstance(t, ObjTok) for t in d.source.tokens + d.target.tokens):
        return True
    for layer in d.layers:
        if isinstance(layer.gen, DescentCell):
            return True
        if any(isinstance(t, ObjTok) for t in layer.left.tokens):
            return True
    return False


def oracle_claims(pairs, inst_count: int = 100, max_size: int = 4,
                  seed: int = 0, max_fiber: Optional[int] = None) -> list:
    """Compare pairs of parallel diagrams extensionally, one report each.

    Samples ``inst_count`` canonical instances with carriers of at most
    ``max_size`` elements and random families with fibers of at most
    ``max_fiber`` (default ``max_size``) elements; a pair is equal iff its
    interpretations agree on every sample. Descent cells are interpreted
    by freely generated structures, which satisfy all three axiom systems.
    """
    from .rewrite import CheckReport

    pairs = list(pairs)
    if any(d1.source != d2.source or d1.target != d2.target for d1, d2 in pairs):
        raise BoundaryMismatch("oracle_equal needs parallel diagrams")
    max_fiber = max_size if max_fiber is None else max_fiber
    mismatches = [[] for _ in pairs]
    groups: dict = {}
    for (d1, d2), found in zip(pairs, mismatches):
        key = (_needs_env(d1) or _needs_env(d2), d1.source.dom)
        groups.setdefault(key, []).append((d1, d2, found))
    for (needs_env, dom), group in groups.items():
        rng = random.Random(seed)
        for idx in range(inst_count):
            inst = random_instance(rng, max_size)
            env = free_algebra_env(rng, inst, max_fiber) if needs_env else None
            x = None if dom.is_terminal \
                else random_family(rng, inst, dom.obj, max_fiber)
            for d1, d2, found in group:
                if interpret_diagram(d1, inst, env, x) != \
                        interpret_diagram(d2, inst, env, x):
                    found.append(idx)
    return [CheckReport(
        "model-oracle", "Failed" if found else "Verified",
        failed_step=found[0] if found else None,
        reason=f"interpretations differ at sample {found[0]}" if found else None,
        stats={"samples": inst_count, "mismatches": len(found)},
    ) for found in mismatches]


def oracle_equal(d1: Diagram, d2: Diagram, inst_count: int = 100,
                 max_size: int = 4, seed: int = 0,
                 max_fiber: Optional[int] = None):
    """``oracle_claims`` for the one pair ``(d1, d2)``."""
    return oracle_claims([(d1, d2)], inst_count, max_size, seed, max_fiber)[0]
