"""Text format for proof-script files: parser and pretty-printer.

A script file is a sequence of sections. ``[base]`` declares the finitely
presented base category, ``[signature]`` the optional one-generator
extension, each ``[diagram <name> : <src> => <tgt>]`` a named two-cell
term given layer by layer, and each ``[script <name>]`` a claim with its
proof steps. Lines are UTF-8 with LF endings; ``#`` starts a comment.

Grammar sketch::

    [base]
    object B
    arrow f : B -> A
    relation f1;f = f2;f
    relation delta;f1 = id(B)
    pullback P1 : a=f1 c=f2 d=f b=f

    [signature]
    extension AC
    arrow f
    object X @ B
    pair f1 f2

    [diagram d0 : X@B f1* => X@B f2*]
    layer X@B | eta(f) | f1*
    layer X@B f! | chi(f1;f = f2;f) | id(Q)

    [script phi_iso_left]
    deps eta_trans
    claim d0 = d1
    step axiom TA2 bwd @ layers:0..2, strand:1, width:4 -> d2
    step rule R4.2(arrow=f) fwd @ layers:1..3, strand:2, width:1 -> d3
    step coherence(layers:1..2, strand:1, width:2) @ layers:1..4, strand:1, width:2 -> d4
    step canonical -> d5

A v1 file may also hold ``[macros]`` with ``builtin <name>`` lines; they
are accepted and have no effect.

Pretty-printing a parsed file reproduces it token for token, so parse
then print then parse is a fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .base import (
    ArrowGen,
    BasePresentation,
    DEFAULT_SEARCH_BOUND,
    Path,
    PolygonType,
    PullbackSquare,
    empty_path,
)
from .calculus import (
    Coherence,
    Counit,
    DescentCell,
    Diagram,
    FiberSym,
    Layer,
    ObjTok,
    OneCellPath,
    Shriek,
    Signature,
    SquareInv,
    Star,
    TERMINAL,
    Unit,
    fiber,
    identity_diagram,
)
from .errors import ParseError, StrandcheckError
from .rewrite import (
    Axiom,
    Canonical,
    FibCoherence,
    PriorEquality,
    ProofScript,
    ProofStep,
    Region,
    Rule,
)

# The names a v1 file may declare in [macros]. The checker has no macros, so
# a declaration is accepted and has no effect.
_V1_MACRO_NAMES = ("BC", "mate", "mate2", "mu", "etaprime", "muprime",
                   "k1", "k2", "F_phi", "G_beta", "H_alpha")


@dataclass
class ScriptFile:
    """A parsed proof-script file."""

    base: BasePresentation
    signature: Signature
    diagrams: dict = field(default_factory=dict)
    scripts: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# pretty-printing


def format_fiber(sym: FiberSym) -> str:
    return "1" if sym.is_terminal else sym.obj.name


def format_base_path(p: Path) -> str:
    if p.is_empty:
        return f"id({p.src.name})"
    return ";".join(p.names())


def format_path(p: OneCellPath) -> str:
    if not p.tokens:
        return f"id({format_fiber(p.dom)})"
    return " ".join(format_token(t) for t in p.tokens)


def format_token(t) -> str:
    if isinstance(t, Star):
        return f"{t.arrow.name}*"
    if isinstance(t, Shriek):
        return f"{t.arrow.name}!"
    if isinstance(t, ObjTok):
        return f"{t.name}@{t.fiber_obj.name}"
    raise ParseError(f"token {t!r} has no text form")


def format_generator(g) -> str:
    if isinstance(g, Coherence):
        return (f"chi({format_base_path(g.pt.top)} = "
                f"{format_base_path(g.pt.bottom)})")
    if isinstance(g, Unit):
        return f"eta({g.arrow.name})"
    if isinstance(g, Counit):
        return f"eps({g.arrow.name})"
    if isinstance(g, SquareInv):
        return f"bcbar({g.square.label})"
    if isinstance(g, DescentCell):
        return g.name
    raise ParseError(f"generator {g!r} has no text form")


def format_diagram_block(name: str, d: Diagram) -> list[str]:
    lines = [f"[diagram {name} : {format_path(d.source)} => {format_path(d.target)}]"]
    for layer in d.layers:
        lines.append(
            f"layer {format_path(layer.left)} | {format_generator(layer.gen)}"
            f" | {format_path(layer.right)}"
        )
    return lines


def format_region(r: Region) -> str:
    return f"layers:{r.lo}..{r.hi}, strand:{r.strand}, width:{r.width}"


def _format_binding_value(v) -> str:
    if isinstance(v, ArrowGen):
        return v.name
    if isinstance(v, PullbackSquare):
        return v.label
    if isinstance(v, PolygonType):
        return f"({format_base_path(v.top)} = {format_base_path(v.bottom)})"
    if isinstance(v, Path):
        return format_base_path(v)
    raise ParseError(f"binding value {v!r} has no text form")


def format_binding(pairs: tuple) -> str:
    return ", ".join(f"{k}={_format_binding_value(v)}" for k, v in pairs)


def format_justification(j) -> str:
    if isinstance(j, Rule):
        return f"rule {j.name}({format_binding(j.binding)}) {j.direction}"
    if isinstance(j, Axiom):
        return f"axiom {j.name} {j.direction}"
    if isinstance(j, PriorEquality):
        return f"prior {j.script} {j.direction}"
    if isinstance(j, FibCoherence):
        return f"coherence({format_region(j.result_region)})"
    if isinstance(j, Canonical):
        return "canonical"
    raise ParseError(f"justification {j!r} has no text form")


def format_base_block(base: BasePresentation) -> list[str]:
    lines = ["[base]"]
    for obj in sorted(base.objects):
        lines.append(f"object {obj.name}")
    for arrow in sorted(base.arrows):
        lines.append(f"arrow {arrow.name} : {arrow.src.name} -> {arrow.dst.name}")
    for rel in base.relations:
        lines.append(
            f"relation {format_base_path(rel.lhs)} = {format_base_path(rel.rhs)}"
        )
    for sq in base.squares:
        lines.append(
            f"pullback {sq.label} : a={sq.a.name} c={sq.c.name}"
            f" d={sq.d.name} b={sq.b.name}"
        )
    if base.search_bound != DEFAULT_SEARCH_BOUND:
        lines.append(f"search_bound {base.search_bound}")
    return lines


def format_signature_block(sig: Signature) -> list[str]:
    lines = ["[signature]"]
    if sig.extension is None:
        lines.append("extension none")
        return lines
    lines.append(f"extension {sig.extension}")
    lines.append(f"arrow {sig.f.name}")
    lines.append(f"object {sig.obj.name} @ {sig.obj.fiber_obj.name}")
    if sig.pair is not None:
        lines.append(f"pair {sig.pair[0].name} {sig.pair[1].name}")
    return lines


def script_file_for(scripts: list[ProofScript]) -> ScriptFile:
    """Collect one or more scripts over a shared signature into a file.

    Claim sides and step results become named diagram sections; identical
    diagrams share a name.
    """
    if not scripts:
        raise ParseError("a script file needs at least one script")
    sig = scripts[0].signature
    for s in scripts:
        if s.signature != sig:
            raise ParseError("all scripts in one file must share a signature")
    diagrams: dict = {}
    names: dict = {}

    def intern(d: Diagram) -> str:
        key = (d.source, d.target, d.layers)
        if key not in names:
            name = f"d{len(names)}"
            names[key] = name
            diagrams[name] = d
        return names[key]

    for s in scripts:
        intern(s.claim_lhs)
        intern(s.claim_rhs)
        for step in s.steps:
            intern(step.result)
    return ScriptFile(sig.base, sig, diagrams, list(scripts))


def format_script_file(sf: ScriptFile) -> str:
    """Pretty-print a script file; the inverse of ``parse_script_file``."""
    names: dict = {}
    for name, d in sf.diagrams.items():
        names[(d.source, d.target, d.layers)] = name

    def name_of(d: Diagram) -> str:
        key = (d.source, d.target, d.layers)
        if key not in names:
            raise ParseError("script references a diagram missing from the file")
        return names[key]

    chunks = [format_base_block(sf.base), format_signature_block(sf.signature)]
    for name, d in sf.diagrams.items():
        chunks.append(format_diagram_block(name, d))
    for s in sf.scripts:
        lines = [f"[script {s.name}]"]
        if s.deps:
            lines.append("deps " + " ".join(s.deps))
        lines.append(f"claim {name_of(s.claim_lhs)} = {name_of(s.claim_rhs)}")
        for step in s.steps:
            just = format_justification(step.justification)
            if step.region is None:
                lines.append(f"step {just} -> {name_of(step.result)}")
            else:
                lines.append(
                    f"step {just} @ {format_region(step.region)}"
                    f" -> {name_of(step.result)}"
                )
        chunks.append(lines)
    return "\n\n".join("\n".join(c) for c in chunks) + "\n"


# ---------------------------------------------------------------------------
# parsing


def _split_top_commas(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return parts


class _FileParser:
    def __init__(self, text: str):
        self.lines = text.split("\n")
        self.lineno = 0
        self.base: Optional[BasePresentation] = None
        self.signature: Optional[Signature] = None
        self.diagrams: dict = {}
        self.scripts: list = []

    def fail(self, message: str):
        raise ParseError(message, line=self.lineno)

    # -- small literals ----------------------------------------------------

    def parse_fiber(self, text: str) -> FiberSym:
        text = text.strip()
        if text == "1":
            return TERMINAL
        return fiber(self.base.object_by_name(text))

    def parse_base_path(self, text: str) -> Path:
        text = text.strip()
        if text.startswith("id(") and text.endswith(")"):
            return empty_path(self.base.object_by_name(text[3:-1].strip()))
        arrows = [self.base.arrow_by_name(n.strip()) for n in text.split(";")]
        return Path(arrows[0].src, tuple(arrows), arrows[-1].dst)

    def parse_polygon(self, text: str) -> PolygonType:
        text = text.strip()
        if text.startswith("(") and text.endswith(")"):
            text = text[1:-1]
        if text.count("=") != 1:
            self.fail(f"polygon literal needs one '=': {text!r}")
        top, bottom = text.split("=")
        return PolygonType(self.parse_base_path(top), self.parse_base_path(bottom))

    def parse_token(self, text: str):
        if text.endswith("*"):
            return Star(self.base.arrow_by_name(text[:-1]))
        if text.endswith("!"):
            return Shriek(self.base.arrow_by_name(text[:-1]))
        if "@" in text:
            name, obj = text.split("@", 1)
            return ObjTok(name, self.base.object_by_name(obj))
        self.fail(f"unknown one-cell token {text!r}")

    def parse_path(self, text: str) -> OneCellPath:
        text = text.strip()
        if text.startswith("id(") and text.endswith(")"):
            dom = self.parse_fiber(text[3:-1])
            return OneCellPath(dom, ())
        tokens = tuple(self.parse_token(w) for w in text.split())
        if not tokens:
            self.fail("empty one-cell string; an identity is written id(<object>)")
        return OneCellPath(tokens[0].dom, tokens)

    def parse_generator(self, text: str):
        text = text.strip()
        if text.startswith("chi(") and text.endswith(")"):
            return Coherence(self.parse_polygon(text[4:-1]))
        if text.startswith("eta(") and text.endswith(")"):
            return Unit(self.base.arrow_by_name(text[4:-1].strip()))
        if text.startswith("eps(") and text.endswith(")"):
            return Counit(self.base.arrow_by_name(text[4:-1].strip()))
        if text.startswith("bcbar(") and text.endswith(")"):
            return SquareInv(self.base.square(text[6:-1].strip()))
        if text in ("alpha", "phi", "beta"):
            if self.signature is None or self.signature.extension is None:
                self.fail(f"generator {text} needs a signature extension")
            gen = self.signature.descent_generator()
            if gen.name != text:
                self.fail(
                    f"generator {text} does not match the "
                    f"{self.signature.extension} extension"
                )
            return gen
        self.fail(f"unknown generator {text!r}")

    def parse_region(self, text: str) -> Region:
        fields = {}
        for part in _split_top_commas(text):
            if ":" not in part:
                self.fail(f"malformed position field {part!r}")
            key, value = part.split(":", 1)
            fields[key.strip()] = value.strip()
        try:
            lo, hi = fields["layers"].split("..")
            return Region(int(lo), int(hi), int(fields["strand"]),
                          int(fields["width"]))
        except (KeyError, ValueError):
            self.fail(f"malformed position {text!r}")

    def parse_binding(self, text: str) -> tuple:
        binding = {}
        text = text.strip()
        if text:
            for part in _split_top_commas(text):
                if "=" not in part:
                    self.fail(f"malformed binding {part!r}")
                key, value = part.split("=", 1)
                key, value = key.strip(), value.strip()
                if key in ("pt", "pt1", "pt2"):
                    binding[key] = self.parse_polygon(value)
                elif key == "arrow":
                    binding[key] = self.base.arrow_by_name(value)
                elif key == "square":
                    binding[key] = self.base.square(value)
                elif key in ("left", "right"):
                    binding[key] = self.parse_base_path(value)
                else:
                    self.fail(f"unknown binding key {key!r}")
        return tuple(sorted(binding.items()))

    def parse_justification(self, text: str):
        text = text.strip()
        if text == "canonical":
            return Canonical()
        if text.startswith("coherence(") and text.endswith(")"):
            return FibCoherence(self.parse_region(text[10:-1]))
        words = text.split(None, 1)
        if not words:
            self.fail("step needs a justification")
        head = words[0]
        rest = words[1].strip() if len(words) > 1 else ""
        if head in ("axiom", "prior"):
            parts = rest.split()
            if len(parts) != 2 or parts[1] not in ("fwd", "bwd"):
                self.fail(f"malformed {head} justification {text!r}")
            if head == "axiom":
                return Axiom(parts[0], parts[1])
            return PriorEquality(parts[0], parts[1])
        if head == "rule":
            return self._parse_rule(rest)
        self.fail(f"unknown justification {text!r}")

    def _parse_rule(self, text: str) -> Rule:
        open_at = text.find("(")
        close_at = text.rfind(")")
        if open_at < 0 or close_at < open_at:
            self.fail(f"malformed call {text!r}")
        name = text[:open_at].strip()
        binding = self.parse_binding(text[open_at + 1 : close_at])
        direction = text[close_at + 1 :].strip()
        if direction not in ("fwd", "bwd"):
            self.fail(f"rule call needs fwd or bwd, got {direction!r}")
        return Rule(name, binding, direction)

    # -- sections ----------------------------------------------------------

    def run(self) -> ScriptFile:
        section = section_arg = section_line = None
        body: list = []
        for lineno, raw in enumerate(self.lines, 1):
            self.lineno = lineno
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("["):
                if not line.endswith("]"):
                    self.fail(f"malformed section header {line!r}")
                if section is not None:
                    self._close_section(section, section_arg, section_line, body)
                    self.lineno = lineno
                words = line[1:-1].strip().split(None, 1) or [""]
                section, section_line = words[0], lineno
                section_arg = words[1] if len(words) > 1 else None
                if section not in ("base", "signature", "macros",
                                   "diagram", "script"):
                    self.fail(f"unknown section {section!r}")
                if section != "base" and self.base is None:
                    self.fail("the [base] section must come first")
                body = []
            else:
                if section is None:
                    self.fail("content before the first section header")
                body.append((self.lineno, line))
        if section is not None:
            self._close_section(section, section_arg, section_line, body)
        if self.base is None:
            raise ParseError("missing [base] section")
        if self.signature is None:
            self.signature = Signature(self.base)
        return ScriptFile(self.base, self.signature, self.diagrams, self.scripts)

    def _close_section(self, section, arg, line, body):
        """Finish a section; an error in its header is reported at ``line``."""
        self.lineno = line
        handler = {
            "base": self._finish_base,
            "signature": self._finish_signature,
            "macros": self._finish_macros,
            "diagram": self._finish_diagram,
            "script": self._finish_script,
        }[section]
        handler(arg, body)

    def _finish_base(self, arg, body):
        if arg is not None:
            self.fail("the [base] header takes no argument")
        if self.base is not None:
            self.fail("duplicate [base] section")
        base = BasePresentation()
        self.base = base
        pending = []
        for lineno, line in body:
            self.lineno = lineno
            words = line.split(None, 1)
            head, rest = words[0], words[1] if len(words) > 1 else ""
            if head == "object":
                base.object(rest.strip())
            elif head == "arrow":
                try:
                    name, sig = rest.split(":", 1)
                    src, dst = sig.split("->")
                    base.arrow(name.strip(), base.object_by_name(src.strip()),
                               base.object_by_name(dst.strip()))
                except (ValueError, StrandcheckError) as exc:
                    self.fail(f"malformed arrow declaration: {exc}")
            elif head in ("relation", "pullback", "search_bound"):
                pending.append((lineno, head, rest))
            else:
                self.fail(f"unknown [base] declaration {head!r}")
        for lineno, head, rest in pending:
            self.lineno = lineno
            try:
                if head == "relation":
                    lhs, rhs = rest.split("=", 1)
                    base.relate(self.parse_base_path(lhs), self.parse_base_path(rhs))
                elif head == "search_bound":
                    base.search_bound = int(rest.strip())
                else:
                    label, edges = rest.split(":", 1)
                    named = dict(
                        part.split("=", 1) for part in edges.split()
                    )
                    base.mark_square(
                        label.strip(),
                        *(base.arrow_by_name(named[k].strip()) for k in "acdb"),
                    )
            except (ValueError, KeyError, StrandcheckError) as exc:
                self.fail(f"malformed {head} declaration: {exc}")

    def _finish_signature(self, arg, body):
        if arg is not None:
            self.fail("the [signature] header takes no argument")
        if self.signature is not None:
            self.fail("duplicate [signature] section")
        fields = {}
        for lineno, line in body:
            self.lineno = lineno
            words = line.split(None, 1)
            head, rest = words[0], words[1].strip() if len(words) > 1 else ""
            if head in fields:
                self.fail(f"duplicate signature field {head!r}")
            fields[head] = rest
        kind = fields.pop("extension", None)
        if kind is None:
            self.fail("the [signature] section needs an extension line")
        if kind == "none":
            if fields:
                self.fail("a plain signature takes no further fields")
            self.signature = Signature(self.base)
            return
        try:
            arrow = self.base.arrow_by_name(fields.pop("arrow"))
            obj_name, obj_fiber = (w.strip() for w in fields.pop("object").split("@"))
            obj = ObjTok(obj_name, self.base.object_by_name(obj_fiber))
            pair = None
            if "pair" in fields:
                pair = tuple(self.base.arrow_by_name(n)
                             for n in fields.pop("pair").split())
            if fields:
                self.fail(f"unknown signature fields {sorted(fields)!r}")
            self.signature = Signature(self.base, extension=kind, f=arrow,
                                       obj=obj, pair=pair)
        except (KeyError, ValueError, StrandcheckError) as exc:
            self.fail(f"malformed signature: {exc}")

    def _finish_macros(self, arg, body):
        if arg is not None:
            self.fail("the [macros] header takes no argument")
        for lineno, line in body:
            self.lineno = lineno
            words = line.split()
            if len(words) != 2 or words[0] != "builtin":
                self.fail(
                    "only 'builtin <name>' declarations are supported in [macros]"
                )
            if words[1] not in _V1_MACRO_NAMES:
                self.fail(f"unknown builtin macro {words[1]!r}")

    def _finish_diagram(self, arg, body):
        if arg is None or ":" not in arg:
            self.fail("diagram header needs '<name> : <src> => <tgt>'")
        name, boundary = arg.split(":", 1)
        name = name.strip()
        if name in self.diagrams:
            self.fail(f"duplicate diagram name {name!r}")
        if "=>" not in boundary:
            self.fail("diagram boundary needs '=>'")
        src_text, tgt_text = boundary.split("=>", 1)
        try:
            source = self.parse_path(src_text)
            target = self.parse_path(tgt_text)
            layers = []
            for lineno, line in body:
                self.lineno = lineno
                if not line.startswith("layer "):
                    self.fail(f"expected a layer line, got {line!r}")
                parts = line[len("layer "):].split("|")
                if len(parts) != 3:
                    self.fail("layer line needs '<left> | <generator> | <right>'")
                layers.append(Layer(self.parse_path(parts[0]),
                                    self.parse_generator(parts[1]),
                                    self.parse_path(parts[2])))
            if layers:
                d = Diagram(source, target, tuple(layers))
            else:
                if source != target:
                    self.fail("an identity diagram needs equal boundary strings")
                d = identity_diagram(source)
        except StrandcheckError as exc:
            if isinstance(exc, ParseError):
                raise
            self.fail(f"invalid diagram {name}: {exc}")
        self.diagrams[name] = d

    def _named_diagram(self, name: str) -> Diagram:
        name = name.strip()
        if name not in self.diagrams:
            self.fail(f"unknown diagram {name!r}")
        return self.diagrams[name]

    def _finish_script(self, arg, body):
        if arg is None:
            self.fail("script header needs a name")
        name = arg.strip()
        if any(s.name == name for s in self.scripts):
            self.fail(f"duplicate script name {name!r}")
        if self.signature is None:
            self.signature = Signature(self.base)
        deps: tuple = ()
        claim = None
        steps = []
        for lineno, line in body:
            self.lineno = lineno
            words = line.split(None, 1)
            head, rest = words[0], words[1] if len(words) > 1 else ""
            if head == "deps":
                deps = tuple(rest.split())
            elif head == "claim":
                if claim is not None:
                    self.fail("duplicate claim line")
                if "=" not in rest:
                    self.fail("claim line needs '<lhs> = <rhs>'")
                lhs, rhs = rest.split("=", 1)
                claim = (self._named_diagram(lhs), self._named_diagram(rhs))
            elif head == "step":
                if "->" not in rest:
                    self.fail("step line needs '-> <diagram>'")
                body_text, result_name = rest.rsplit("->", 1)
                result = self._named_diagram(result_name)
                body_text = body_text.strip()
                if " @ " in body_text:
                    just_text, pos_text = body_text.rsplit(" @ ", 1)
                    region = self.parse_region(pos_text)
                else:
                    just_text, region = body_text, None
                just = self.parse_justification(just_text)
                if isinstance(just, Canonical) and region is not None:
                    self.fail("a canonical step takes no position")
                if not isinstance(just, Canonical) and region is None:
                    self.fail("this step kind needs a position")
                steps.append(ProofStep(just, region, result))
            else:
                self.fail(f"unknown script line {head!r}")
        if claim is None:
            self.fail(f"script {name} has no claim")
        self.scripts.append(ProofScript(name, self.signature, claim[0],
                                        claim[1], steps, deps))


def parse_script_file(text: str) -> ScriptFile:
    """Parse a proof-script file; raises ParseError with a line number."""
    return _FileParser(text).run()
