"""Per-module spans and counts for one strandcheck invocation.

The tracer wraps public functions of the ``strandcheck`` modules from
outside, so the program under test is not edited. Run it as

    python3 bench/tracer.py OUT.json -- <strandcheck arguments>

with ``src`` on ``PYTHONPATH``. It runs ``strandcheck.cli.main`` with the
arguments, exits with its exit code and writes the aggregated spans to
``OUT.json``.

A span is one call of a wrapped function, or one resumption of a wrapped
generator between two yields. Spans are aggregated in memory by
(span name, name of the enclosing span):

- ``calls``: calls (a generator counts once, at its first resumption);
- ``incl_ns``: wall time inside the span, counted only for spans with no
  enclosing span of the same name, so recursion is not counted twice;
- ``self_ns``: wall time inside the span minus the time covered by the
  spans it directly encloses;
- ``raised``: calls that ended in an exception;
- ``yields``: values a generator produced;
- ``size_sum`` and ``size_max``: ``len`` of the results of sized targets.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time

# (module, attribute path, span name, record len(result)). Several targets
# may share a span name; the recursion rule above then keeps a span that
# calls another of its group from being counted twice.
_DERIVE_TACTICS = ("rule", "axiom", "prior", "unfold", "fold", "canonical",
                   "coherence", "coherence_swap", "simplify_coherence",
                   "coherence_collapse", "finish")
TARGETS = [
    ("strandcheck.descent", "_build_bundle", "descent.build_bundle", False),
    ("strandcheck.descent", "verify_theorem", "descent.verify", False),
    *(("strandcheck.rewrite", f"DerivationBuilder.{t}", "rewrite.derive",
       False) for t in _DERIVE_TACTICS),
    ("strandcheck.calculus", "exchange_canonical", "calculus.canonical", False),
    ("strandcheck.calculus", "_canonical_layers", "calculus.canonical_layers",
     False),
    ("strandcheck.calculus", "class_words", "calculus.class_words", True),
    ("strandcheck.calculus", "expand_word", "calculus.expand_word", False),
    ("strandcheck.calculus", "validate_diagram", "calculus.validate", False),
    ("strandcheck.rewrite", "check_script", "rewrite.check_script", False),
    ("strandcheck.rewrite", "apply_step", "rewrite.apply_step", False),
    ("strandcheck.rewrite", "_blocks_at", "rewrite.blocks_at", False),
    ("strandcheck.rewrite", "extract_block", "rewrite.extract_block", False),
    ("strandcheck.rewrite", "splice_block", "rewrite.splice_block", False),
    ("strandcheck.rewrite", "normal_forms", "rewrite.normal_forms", False),
    ("strandcheck.rewrite", "oriented_successors", "rewrite.successors", False),
    ("strandcheck.finmodel", "oracle_equal", "finmodel.oracle", False),
    ("strandcheck.finmodel", "make_instance", "finmodel.make_instance", False),
    ("strandcheck.finmodel", "interpret_diagram", "finmodel.interpret", False),
    ("strandcheck.finmodel", "free_algebra_env", "finmodel.env", False),
    ("strandcheck.parser", "parse_script_file", "parser.parse", False),
    ("strandcheck.base", "paths_equal", "base.paths_equal", False),
]

CALLS, INCL, SELF, RAISED, YIELDS, SIZE_SUM, SIZE_MAX = range(7)


class Recorder:
    """Open spans on a stack and per-(name, parent) aggregates."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stack: list = []  # open spans: [name, start_ns, child_ns]
        self.depth: dict = {}  # span name -> open spans of that name
        self.stats: dict = {}  # (name, parent name) -> list indexed above
        self.root_ns = 0  # time covered by spans with no enclosing span

    def enter(self, name: str) -> None:
        self.depth[name] = self.depth.get(name, 0) + 1
        self.stack.append([name, self.clock(), 0])

    def leave(self, call=True, raised=False, size=None, yielded=False):
        end = self.clock()
        name, start, child = self.stack.pop()
        dur = end - start
        depth = self.depth[name] - 1
        self.depth[name] = depth
        if self.stack:
            outer = self.stack[-1]
            outer[2] += dur
            parent = outer[0]
        else:
            parent = None
            self.root_ns += dur
        st = self.stats.get((name, parent))
        if st is None:
            st = self.stats[(name, parent)] = [0, 0, 0, 0, 0, 0, 0]
        st[SELF] += dur - child
        if depth == 0:
            st[INCL] += dur
        if call:
            st[CALLS] += 1
        if raised:
            st[RAISED] += 1
        if yielded:
            st[YIELDS] += 1
        if size is not None:
            st[SIZE_SUM] += size
            if size > st[SIZE_MAX]:
                st[SIZE_MAX] = size

    def wrap(self, name: str, fn, sized: bool = False):
        """A function that records a span around each call of ``fn``."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.leave(raised=True)
                raise
            self.leave(size=len(result) if sized else None)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            first = True
            try:
                while True:
                    self.enter(name)
                    try:
                        value = next(inner)
                    except StopIteration:
                        self.leave(call=first)
                        return
                    except BaseException:
                        self.leave(call=first, raised=True)
                        raise
                    self.leave(call=first, yielded=True)
                    first = False
                    yield value
            finally:
                inner.close()

        return traced

    def dump(self) -> dict:
        return {"root_ns": self.root_ns,
                "stats": [[name, parent, *st]
                          for (name, parent), st in self.stats.items()]}


class Agg:
    """The dumps of one round's invocations, summed."""

    def __init__(self, dumps: list):
        self.stats: dict = {}
        self.main_ns = sum(d["main_ns"] for d in dumps)
        self.root_ns = sum(d["root_ns"] for d in dumps)
        missing = {t for d in dumps for t in d["missing"]}
        self.missing_spans = {
            span for span in {t[2] for t in TARGETS}
            if all(f"{m}.{p}" in missing for m, p, s, _ in TARGETS if s == span)}
        for d in dumps:
            for name, parent, *st in d["stats"]:
                acc = self.stats.setdefault((name, parent), [0] * 7)
                for i, v in enumerate(st):
                    acc[i] = max(acc[i], v) if i == SIZE_MAX else acc[i] + v

    def sum(self, span: str, field: int, parent=...) -> int:
        return sum(st[field] for (n, p), st in self.stats.items()
                   if n == span and (parent is ... or p == parent))

    def max(self, span: str, field: int) -> int:
        return max((st[field] for (n, _), st in self.stats.items()
                    if n == span), default=0)


def _ratio(num, den):
    return num / den if den else 0.0


def _incl_s(span):
    return "s", (span,), lambda a: a.sum(span, INCL) / 1e9


def _calls(span, parent=...):
    spans = (span,) if parent is ... else (span, parent)
    return "count", spans, lambda a: a.sum(span, CALLS, parent)


# metric name -> (unit, spans it needs, value from an Agg). DESIGN.md gives
# the end-to-end metric and workload each one should move.
PER_LAYER = {
    "descent.build_bundle_s": _incl_s("descent.build_bundle"),
    "descent.verify_s": _incl_s("descent.verify"),
    "rewrite.derive_s": _incl_s("rewrite.derive"),
    "calculus.canonical_s": _incl_s("calculus.canonical"),
    "calculus.canonical_calls": _calls("calculus.canonical"),
    "calculus.canon_memo_hit_ratio": (
        "ratio", ("calculus.canonical_layers", "calculus.class_words"),
        lambda a: _ratio(
            a.sum("calculus.canonical_layers", CALLS) - a.sum(
                "calculus.class_words", CALLS, "calculus.canonical_layers"),
            a.sum("calculus.canonical_layers", CALLS))),
    "calculus.class_words_s": _incl_s("calculus.class_words"),
    "calculus.class_presentations": (
        "count", ("calculus.class_words",),
        lambda a: a.sum("calculus.class_words", SIZE_SUM)),
    "calculus.class_max": (
        "count", ("calculus.class_words",),
        lambda a: a.max("calculus.class_words", SIZE_MAX)),
    "calculus.expand_s": _incl_s("calculus.expand_word"),
    "calculus.presentations_expanded": _calls("calculus.expand_word"),
    "calculus.validate_s": _incl_s("calculus.validate"),
    "rewrite.check_script_s": _incl_s("rewrite.check_script"),
    "rewrite.steps_checked": _calls("rewrite.apply_step"),
    "rewrite.steps_rejected": (
        "count", ("rewrite.apply_step",),
        lambda a: a.sum("rewrite.apply_step", RAISED)),
    "rewrite.apply_step_self_s": (
        "s", ("rewrite.apply_step",),
        lambda a: a.sum("rewrite.apply_step", SELF) / 1e9),
    "rewrite.presentations_tried": _calls("rewrite.extract_block",
                                          "rewrite.blocks_at"),
    "rewrite.extract_calls": _calls("rewrite.extract_block"),
    "rewrite.extract_ok_ratio": (
        "ratio", ("rewrite.extract_block", "rewrite.blocks_at"),
        lambda a: _ratio(
            a.sum("rewrite.blocks_at", YIELDS),
            a.sum("rewrite.extract_block", CALLS, "rewrite.blocks_at"))),
    "rewrite.splice_calls": _calls("rewrite.splice_block"),
    "rewrite.normal_forms_s": _incl_s("rewrite.normal_forms"),
    "rewrite.successor_calls": _calls("rewrite.successors"),
    "finmodel.oracle_s": _incl_s("finmodel.oracle"),
    "finmodel.instances": _calls("finmodel.make_instance"),
    "finmodel.interpret_s": _incl_s("finmodel.interpret"),
    "finmodel.interpret_calls": _calls("finmodel.interpret"),
    "finmodel.env_s": _incl_s("finmodel.env"),
    "parser.parse_s": _incl_s("parser.parse"),
    "parser.files": _calls("parser.parse"),
    "base.paths_equal_s": _incl_s("base.paths_equal"),
    "base.paths_equal_calls": _calls("base.paths_equal"),
    "cli.self_s": ("s", (), lambda a: (a.main_ns - a.root_ns) / 1e9),
}


def layer_metrics(rounds: list) -> dict:
    """Per-module metrics from traced rounds (each a list of dumps).

    Times are medians over rounds; counts and ratios come from the first
    round and must repeat in the others. A metric whose functions no
    longer exist in the program is ``None``.
    """
    aggs = [Agg(dumps) for dumps in rounds]
    out = {}
    for name, (unit, spans, value) in PER_LAYER.items():
        if any(s in aggs[0].missing_spans for s in spans):
            out[name] = {"value": None, "unit": unit}
            continue
        values = [value(a) for a in aggs]
        if unit == "s":
            v = statistics.median(values)
        else:
            v = values[0]
            if any(x != v for x in values):
                print(f"warning: {name} differs between traced rounds: "
                      f"{values}", file=sys.stderr)
        out[name] = {"value": v, "unit": unit}
    return out


def _resolve(module, path: str):
    """(holder, attribute, object) for a dotted path, or None if missing."""
    holder = module
    parts = path.split(".")
    for part in parts[:-1]:
        holder = getattr(holder, part, None)
        if holder is None:
            return None
    obj = getattr(holder, parts[-1], None)
    return None if obj is None else (holder, parts[-1], obj)


def install(rec: Recorder, targets=TARGETS) -> list:
    """Wrap every target that exists and return the names of those that
    do not. A module-level function is rebound in every loaded
    ``strandcheck`` module that holds the same object, so callers that
    imported it by name (``from .calculus import exchange_canonical``)
    also go through the wrapper."""
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "strandcheck" or n.startswith("strandcheck.")]
    missing = []
    for modname, path, span, sized in targets:
        found = _resolve(sys.modules.get(modname), path)
        if found is None:
            missing.append(f"{modname}.{path}")
            continue
        holder, attr, obj = found
        traced = rec.wrap(span, obj, sized)
        if inspect.isclass(holder):
            setattr(holder, attr, traced)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is obj:
                    setattr(mod, key, traced)
    return missing


def main(argv: list) -> int:
    out_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT.json -- <strandcheck arguments>")
    import strandcheck.cli as cli  # loads every module the command uses

    rec = Recorder()
    missing = install(rec)
    start = time.perf_counter_ns()
    try:
        return cli.main(cli_args)
    finally:
        main_ns = time.perf_counter_ns() - start
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"main_ns": main_ns, "missing": missing, **rec.dump()},
                      handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
