"""Whole-family transport, the test oracle for the element-wise interpreter.

It reads a diagram layer by layer as family maps: each layer's left
whisker is interpreted from the top, the generator's map is built on the
whole family it reaches, and that map is pushed through the right
whisker token by token. The inverted comparison cell builds the forward
comparison bijection and inverts it pointwise. None of this shares code
with ``strandcheck.finmodel.interpret_diagram`` beyond the one-cell
interpretation of families.

``reference_oracle`` is the one-claim sampling loop, which draws every
sample for one claim alone; it is the oracle for ``oracle_claims``, which
shares samples between claims.
"""

import random
from typing import Optional

from strandcheck.calculus import (
    Coherence,
    Counit,
    DescentCell,
    Diagram,
    GenTwoCell,
    OneCellPath,
    OneCellToken,
    Shriek,
    SquareInv,
    Star,
    Unit,
    generator_boundary,
)
from strandcheck.errors import (
    EnvMissing,
    InvalidGenerator,
    RelationViolated,
    TypeMismatch,
)
from strandcheck.finmodel import (
    Family,
    FamilyMap,
    FinInstance,
    _needs_env,
    free_algebra_env,
    interpret_diagram,
    interpret_path,
    interpret_token,
    random_family,
    random_instance,
    terminal_family,
)
from strandcheck.rewrite import CheckReport


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


def map_along_token(t: OneCellToken, inst: FinInstance, m: FamilyMap) -> FamilyMap:
    """The functorial action of a one-cell token on a family map."""
    src = interpret_token(t, inst, m.src)
    dst = interpret_token(t, inst, m.dst)
    if isinstance(t, Star):
        g = t.arrow
        components = {
            a: dict(m.components[inst.apply_arrow(g, a)]) for a in inst.carrier[g.src]
        }
        return FamilyMap(src, dst, components)
    if isinstance(t, Shriek):
        components = {
            b: {(a, v): (a, m.components[a][v]) for a, v in fib}
            for b, fib in src.fibers
        }
        return FamilyMap(src, dst, components)
    raise TypeMismatch(f"token {t!r} cannot act on a family map")


def map_along_path(p: OneCellPath, inst: FinInstance, m: FamilyMap) -> FamilyMap:
    for t in p.tokens:
        m = map_along_token(t, inst, m)
    return m


def square_inverse(g: SquareInv, inst: FinInstance, x: Family) -> FamilyMap:
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
    """The family map of one generator applied at input family ``x``,
    the interpretation of the layer's left whisker."""
    gs, gt = generator_boundary(g)
    if isinstance(g, Coherence):
        src_fam = interpret_path(gs, inst, x, env)
        if src_fam != interpret_path(gt, inst, x, env):
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
        return square_inverse(g, inst, x)
    if isinstance(g, DescentCell):
        if env is None or g not in env:
            raise EnvMissing(f"no family map assigned to descent cell {g!r}")
        m = env[g]
        if (m.src != interpret_path(gs, inst, x, env)
                or m.dst != interpret_path(gt, inst, x, env)):
            raise TypeMismatch(f"assigned map for {g!r} has the wrong boundary")
        return m
    raise InvalidGenerator(f"unknown generator {g!r}")


def reference_interpret(
    d: Diagram,
    inst: FinInstance,
    env: Optional[dict] = None,
    input_family: Optional[Family] = None,
) -> FamilyMap:
    """The composite of the layer maps of ``d``."""
    start = terminal_family() if d.source.dom.is_terminal else input_family
    cur = identity_map(interpret_path(d.source, inst, start, env))
    for layer in d.layers:
        left_fam = interpret_path(layer.left, inst, start, env)
        gen_map = interpret_generator(layer.gen, inst, left_fam, env)
        cur = compose_maps(cur, map_along_path(layer.right, inst, gen_map))
    return cur


def reference_oracle(
    d1: Diagram,
    d2: Diagram,
    inst_count: int = 100,
    max_size: int = 4,
    seed: int = 0,
    max_fiber: Optional[int] = None,
) -> CheckReport:
    """One claim on its own samples: ``inst_count`` draws from
    ``Random(seed)``, each an instance, then an environment when the claim
    needs one, then an input family when its source is not terminal."""
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
