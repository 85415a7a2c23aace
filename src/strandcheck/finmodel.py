"""Families of finite sets as a concrete model of the calculus.

Every base object is interpreted as a finite set, every base arrow as a
total function, every one-cell as an operation on finite families and
every diagram as a concrete function between families. Reindexing is
strictly functorial here, so every coherence cell is interpreted as an
identity; the model is therefore exact and serves as an independent
semantic oracle: two diagrams proven equal by the checker must evaluate
to the same function on every sampled instance.

Conventions. A family over an object is one finite set per carrier
element; the terminal symbol carries a single one-point fiber. The
direct image along g tags elements with their fiber index, so the unit
is x |-> (a, x) and the counit is the fold (a, x) |-> x. The inverted
comparison cell of a marked square is computed by building the forward
comparison bijection and inverting it pointwise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Union

from .base import ArrowGen, BasePresentation, ObjectId, Path
from .calculus import (
    Coherence,
    Counit,
    DescentCell,
    Diagram,
    FiberSym,
    GenTwoCell,
    MacroCell,
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

    @property
    def carrier(self) -> tuple:
        return tuple(e for e, _ in self.fibers)

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

    def apply(self, elem, x):
        return self.components[elem][x]


def identity_map(fam: Family) -> FamilyMap:
    return FamilyMap(fam, fam, {e: {x: x for x in fib} for e, fib in fam.fibers})


def compose_maps(m1: FamilyMap, m2: FamilyMap) -> FamilyMap:
    """The composite ``m2`` after ``m1``."""
    if m1.dst != m2.src:
        raise TypeMismatch("family maps do not compose: middle families differ")
    components = {
        e: {x: m2.components[e][y] for x, y in comp.items()}
        for e, comp in m1.components.items()
    }
    return FamilyMap(m1.src, m2.dst, components)


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

    def carrier_of(self, sym: FiberSym) -> tuple:
        if sym.is_terminal:
            return (_TERMINAL_POINT,)
        return self.carrier[sym.obj]

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


def make_instance(A, B, f: Union[Mapping, Callable]) -> FinInstance:
    """The canonical finite-set instance of the built-in kernel-pair base.

    ``A`` and ``B`` are finite iterables of labels and ``f`` a total
    function (mapping or callable) from B to A. Q and R are built as the
    canonical pullbacks: Q the pairs of B-elements identified by f, R
    the pairs (q1, q2) of Q-elements with f2(q2) = f1(q1), with
    pi(q1, q2) = (f1(q2), f2(q1)).
    """
    from .descent import builtin_descent_base

    base = builtin_descent_base()
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


def map_along_token(t: OneCellToken, inst: FinInstance, m: FamilyMap) -> FamilyMap:
    """The functorial action of a one-cell token on a family map."""
    if isinstance(t, Star):
        g = t.arrow
        src = interpret_token(t, inst, m.src)
        dst = interpret_token(t, inst, m.dst)
        components = {
            a: dict(m.components[inst.apply_arrow(g, a)]) for a in inst.carrier[g.src]
        }
        return FamilyMap(src, dst, components)
    if isinstance(t, Shriek):
        g = t.arrow
        src = interpret_token(t, inst, m.src)
        dst = interpret_token(t, inst, m.dst)
        components = {}
        for b, fib in src.fibers:
            components[b] = {(a, v): (a, m.components[a][v]) for a, v in fib}
        return FamilyMap(src, dst, components)
    raise TypeMismatch(f"token {t!r} cannot act on a family map")


def map_along_path(p: OneCellPath, inst: FinInstance, m: FamilyMap) -> FamilyMap:
    for t in p.tokens:
        m = map_along_token(t, inst, m)
    return m


# ---------------------------------------------------------------------------
# interpreting two-cell generators and diagrams


def _square_inverse(g: SquareInv, inst: FinInstance, x: Family) -> FamilyMap:
    """Invert the forward comparison of a marked square pointwise."""
    sq = g.square
    gs, gt = generator_boundary(g)
    src_fam = interpret_path(gs, inst, x)
    dst_fam = interpret_path(gt, inst, x)
    components = {}
    for y in inst.carrier[sq.c.dst]:
        forward = {}
        for w in inst.carrier[sq.a.src]:
            if inst.apply_arrow(sq.c, w) != y:
                continue
            for v in x.fiber(inst.apply_arrow(sq.a, w)):
                forward[(w, v)] = (inst.apply_arrow(sq.a, w), v)
        inverse = {}
        for key, val in forward.items():
            if val in inverse:
                raise RelationViolated(
                    f"square {sq.label}: comparison is not injective at {y!r}"
                )
            inverse[val] = key
        if set(inverse) != set(src_fam.fiber(y)):
            raise RelationViolated(
                f"square {sq.label}: comparison is not onto at {y!r}"
            )
        components[y] = inverse
    return FamilyMap(src_fam, dst_fam, components)


def interpret_generator(
    g: GenTwoCell, inst: FinInstance, x: Family, env: Optional[dict] = None
) -> FamilyMap:
    """The family map of one generator applied at input family ``x``.

    ``x`` is the family reached at the generator's position, that is the
    interpretation of the layer's left whisker.
    """
    gs, gt = generator_boundary(g)
    if isinstance(g, Coherence):
        src_fam = interpret_path(gs, inst, x, env)
        dst_fam = interpret_path(gt, inst, x, env)
        if src_fam != dst_fam:
            raise RelationViolated(
                f"coherence {g!r}: polygon sides differ extensionally"
            )
        return identity_map(src_fam)
    if isinstance(g, Unit):
        dst_fam = interpret_path(gt, inst, x, env)
        components = {a: {v: (a, v) for v in fib} for a, fib in x.fibers}
        return FamilyMap(x, dst_fam, components)
    if isinstance(g, Counit):
        src_fam = interpret_path(gs, inst, x, env)
        components = {b: {(a, v): v for a, v in fib} for b, fib in src_fam.fibers}
        return FamilyMap(src_fam, x, components)
    if isinstance(g, SquareInv):
        return _square_inverse(g, inst, x)
    if isinstance(g, DescentCell):
        if env is None or g not in env:
            raise EnvMissing(f"no family map assigned to descent cell {g!r}")
        m = env[g]
        src_fam = interpret_path(gs, inst, x, env)
        dst_fam = interpret_path(gt, inst, x, env)
        if m.src != src_fam or m.dst != dst_fam:
            raise TypeMismatch(f"assigned map for {g!r} has the wrong boundary")
        return m
    if isinstance(g, MacroCell):
        raise InvalidGenerator(
            f"folded macro {g!r} has no extensional interpretation; unfold it first"
        )
    raise InvalidGenerator(f"unknown generator {g!r}")


def interpret_diagram(
    d: Diagram,
    inst: FinInstance,
    env: Optional[dict] = None,
    input_family: Optional[Family] = None,
) -> FamilyMap:
    """The composite family map of a diagram.

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
    cur = identity_map(interpret_path(d.source, inst, start, env))
    for layer in d.layers:
        left_fam = interpret_path(layer.left, inst, start, env)
        gen_map = interpret_generator(layer.gen, inst, left_fam, env)
        layer_map = map_along_path(layer.right, inst, gen_map)
        cur = compose_maps(cur, layer_map)
    return cur


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


def free_algebra_env(
    rng: random.Random, inst: FinInstance, max_fiber: int
) -> dict:
    """An environment whose descent cells all satisfy their axioms.

    Samples a family Y over A and takes X := f*Y with the free algebra
    structure (the reindexed counit); the gluing and action maps are the
    images of that structure under the two translations, so every axiom
    system holds extensionally.
    """
    from .descent import _Names, signature_for, translate_F, translate_G

    base = inst.base
    n = _Names(base)
    A = n.f.dst
    family_y = random_family(rng, inst, A, max_fiber)
    family_x = interpret_token(Star(n.f), inst, family_y)
    alpha_cell = signature_for("TA", base).descent_generator()
    phi_cell = signature_for("DD", base).descent_generator()
    beta_cell = signature_for("AC", base).descent_generator()
    env = {n.x: family_x}
    gs, _ = generator_boundary(alpha_cell)
    src_fam = interpret_path(gs, inst, terminal_family(), env)
    components = {b: {(b2, v): v for b2, v in fib} for b, fib in src_fam.fibers}
    env[alpha_cell] = FamilyMap(src_fam, family_x, components)
    env[phi_cell] = interpret_diagram(
        translate_F(single(alpha_cell), base), inst, env
    )
    env[beta_cell] = interpret_diagram(
        translate_G(single(phi_cell), base), inst, env
    )
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


def oracle_equal(
    d1: Diagram,
    d2: Diagram,
    inst_count: int = 100,
    max_size: int = 4,
    seed: int = 0,
    max_fiber: Optional[int] = None,
):
    """Compare two parallel diagrams extensionally on random instances.

    Samples ``inst_count`` canonical instances with carriers of at most
    ``max_size`` elements and random families with fibers of at most
    ``max_fiber`` (default ``max_size``) elements, and reports equal iff
    the interpretations agree pointwise on every sample. Descent cells
    are interpreted by freely generated structures, which satisfy all
    three axiom systems.
    """
    from .rewrite import CheckReport

    if d1.source != d2.source or d1.target != d2.target:
        raise BoundaryMismatch("oracle_equal needs parallel diagrams")
    max_fiber = max_size if max_fiber is None else max_fiber
    rng = random.Random(seed)
    needs_env = _needs_env(d1) or _needs_env(d2)
    mismatches = []
    for idx in range(inst_count):
        inst = random_instance(rng, max_size)
        env = free_algebra_env(rng, inst, max_fiber) if needs_env else None
        if d1.source.dom.is_terminal:
            input_family = None
        else:
            input_family = random_family(rng, inst, d1.source.dom.obj, max_fiber)
        m1 = interpret_diagram(d1, inst, env, input_family)
        m2 = interpret_diagram(d2, inst, env, input_family)
        if m1 != m2:
            mismatches.append(idx)
    report = CheckReport(
        name="model-oracle",
        verdict="Verified" if not mismatches else "Failed",
        stats={"samples": inst_count, "mismatches": len(mismatches)},
    )
    if mismatches:
        report.failed_step = mismatches[0]
        report.reason = f"interpretations differ at sample {mismatches[0]}"
    return report
