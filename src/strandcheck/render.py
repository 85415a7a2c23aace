"""Deterministic SVG and TikZ rendering of layered string diagrams.

Diagrams are drawn top-down: the source string at the top edge, one row
per layer with its generator as a labelled node, the target string at
the bottom edge. A strand keeps its horizontal position for its whole
lifetime; strands born at a node curve out of it into the gap freed by
the consumed ones, so strands never cross and every region between
strands can be coloured by its fiber. Output is a pure function of the
diagram, hence byte-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .calculus import Diagram, FiberSym, OneCellPath
from .errors import StrandcheckError
from .parser import format_generator, format_token

# Fibers of the built-in kernel-pair base keep the paper-style palette;
# other fibers get colours from a fixed extension list, assigned in
# first-seen order.

_NAMED_COLORS = {
    "EggShell": (240, 234, 214),
    "DustyRed": (180, 85, 85),
    "SlateBlue": (106, 90, 205),
    "SageGreen": (156, 175, 136),
    "Graphite": (71, 74, 81),
}

_FIBER_STYLE = {
    None: ("EggShell", 60),
    "B": ("DustyRed", 40),
    "Q": ("SlateBlue", 40),
    "A": ("SageGreen", 40),
    "R": ("Graphite", 40),
}

_EXTENSION_COLORS = [
    ("Apricot", (251, 206, 177)),
    ("Celadon", (172, 225, 175)),
    ("Periwinkle", (204, 204, 255)),
    ("Sand", (194, 178, 128)),
    ("Orchid", (218, 112, 214)),
    ("Steel", (70, 130, 180)),
]


def _tint(rgb: tuple, percent: int) -> str:
    r, g, b = (round(255 - (255 - c) * percent / 100) for c in rgb)
    return f"#{r:02x}{g:02x}{b:02x}"


def fiber_style(sym: FiberSym, extra: dict) -> tuple[str, tuple, int]:
    """(colour name, base rgb, tint percent) for a fiber region."""
    key = None if sym.is_terminal else sym.obj.name
    if key in _FIBER_STYLE:
        name, percent = _FIBER_STYLE[key]
        return name, _NAMED_COLORS[name], percent
    if key not in extra:
        name, rgb = _EXTENSION_COLORS[len(extra) % len(_EXTENSION_COLORS)]
        extra[key] = (name, rgb, 40)
    return extra[key]


# geometry constants (abstract units; SVG uses them as pixels)

DX_CANDIDATES = (46, 58, 72, 92, 120, 160, 220)
SLAB_H = 26        # vertical extent of a between-rows slab
NODE_H = 34        # vertical extent of a node row
MARGIN_X = 24
MARGIN_Y = 18
CHAR_W = 7.2       # estimated label character width (node sizing)
BOX_HALF_H = 10
CLEARANCE = 3      # minimum gap between a node box and a passing strand


@dataclass(frozen=True)
class _Node:
    x: float
    y: float
    label: str
    half_w: float


@dataclass(frozen=True)
class _Curve:
    """A strand piece, vertical or a cubic with vertical tangents."""

    x0: float
    y0: float
    x1: float
    y1: float
    label: str


@dataclass
class _Scene:
    """Resolved geometry: region rectangles, strand curves, nodes."""

    width: float
    height: float
    rects: list          # (x0, y0, x1, y1, fibersym)
    curves: list         # _Curve
    nodes: list          # _Node


def _region_edges(path: OneCellPath, xs: list, width: float) -> list:
    """(x0, x1, fiber) triples covering the full canvas width."""
    out = []
    at = path.dom
    x0 = 0.0
    for j, t in enumerate(path.tokens):
        out.append((x0, xs[j], at))
        x0, at = xs[j], t.cod
    out.append((x0, width, path.cod))
    return out


def _node_label(gen) -> str:
    text = format_generator(gen)
    if text.startswith("chi("):
        return "chi"
    return text


def _try_layout(d: Diagram, dx: float) -> _Scene:
    boundaries = [d.source]
    for layer in d.layers:
        boundaries.append(layer.boundary()[1])
    max_tokens = max(len(b) for b in boundaries)
    width = 2 * MARGIN_X + max(1, max_tokens) * dx
    height = 2 * MARGIN_Y + len(d.layers) * (SLAB_H + NODE_H) + SLAB_H
    rects, curves, nodes = [], [], []

    def emit_slab(path, xs, y0, y1):
        for x0, x1, sym in _region_edges(path, xs, width):
            rects.append((x0, y0, x1, y1, sym))
        for j, t in enumerate(path.tokens):
            curves.append(_Curve(xs[j], y0, xs[j], y1, format_token(t)))

    n0 = len(d.source.tokens)
    xs = [width * (j + 1) / (n0 + 1) for j in range(n0)]

    if not d.layers:
        emit_slab(d.source, xs, 0.0, height)
        return _Scene(width, height, rects, curves, nodes)

    emit_slab(d.source, xs, 0.0, MARGIN_Y + SLAB_H)
    y = MARGIN_Y + SLAB_H
    for i, layer in enumerate(d.layers):
        top, bottom = layer.boundary()
        o = layer.offset
        s, t = layer.gen_widths()
        label = _node_label(layer.gen)
        half_w = len(label) * CHAR_W / 2 + 8
        # produced strands live in the open gap between the surviving
        # neighbours (the gap also contains the consumed strands)
        gap_lo = xs[o - 1] if o > 0 else 0.0
        gap_hi = xs[o + s] if o + s < len(xs) else width
        if s > 0:
            cx = sum(xs[o:o + s]) / s
        else:
            cx = (gap_lo + gap_hi) / 2
        new_xs = [gap_lo + (gap_hi - gap_lo) * (k + 1) / (t + 1)
                  for k in range(t)]
        node_top, node_bottom = y, y + NODE_H
        mid = (node_top + node_bottom) / 2
        bottom_xs = xs[:o] + new_xs + xs[o + s:]
        # colour the node row by its surrounding regions (top half above
        # the node centreline, bottom half below)
        for x0, x1, sym in _region_edges(top, xs, width):
            rects.append((x0, node_top, x1, mid, sym))
        for x0, x1, sym in _region_edges(bottom, bottom_xs, width):
            rects.append((x0, mid, x1, node_bottom, sym))
        # strands through the node row: consumed strands curve into the
        # node, produced strands curve out of it, the rest pass straight
        # through at their fixed position
        for j, tok in enumerate(top.tokens):
            text = format_token(tok)
            if o <= j < o + s:
                curves.append(_Curve(xs[j], node_top, cx, mid, text))
            else:
                curves.append(_Curve(xs[j], node_top, xs[j], node_bottom,
                                     text))
        for k, x in enumerate(new_xs):
            curves.append(_Curve(cx, mid, x, node_bottom,
                                 format_token(bottom.tokens[o + k])))
        # collision check: the node box must stay on the canvas and no
        # passing strand may enter it
        if cx - half_w < MARGIN_X / 2 or cx + half_w > width - MARGIN_X / 2:
            raise StrandcheckError(
                f"layout collision: node box of layer {i} leaves the canvas"
            )
        for j, x in enumerate(xs):
            if o <= j < o + s:
                continue
            if abs(x - cx) < half_w + CLEARANCE:
                raise StrandcheckError(
                    f"layout collision: strand {j} crosses the node "
                    f"box of layer {i}"
                )
        nodes.append(_Node(cx, mid, label, half_w))
        y = node_bottom
        xs = bottom_xs
        emit_slab(bottom, xs, y, y + SLAB_H)
        y += SLAB_H
    # bottom margin continues the target-string regions
    emit_slab(d.target, xs, y, height)
    return _Scene(width, height, rects, curves, nodes)


def layout(d: Diagram) -> _Scene:
    """Deterministic geometry for a diagram.

    Strand spacing is the smallest candidate that passes the collision
    check; StrandcheckError propagates when none does.
    """
    last = None
    for dx in DX_CANDIDATES:
        try:
            return _try_layout(d, dx)
        except StrandcheckError as err:
            last = err
    raise last


# ---------------------------------------------------------------------------
# SVG


def _fmt(v: float) -> str:
    out = f"{v:.1f}"
    return out[:-2] if out.endswith(".0") else out


def _curve_path(c: _Curve) -> str:
    if c.x0 == c.x1:
        return (f"M {_fmt(c.x0)} {_fmt(c.y0)} L {_fmt(c.x1)} {_fmt(c.y1)}")
    ym = _fmt((c.y0 + c.y1) / 2)
    return (f"M {_fmt(c.x0)} {_fmt(c.y0)} C {_fmt(c.x0)} {ym}"
            f" {_fmt(c.x1)} {ym} {_fmt(c.x1)} {_fmt(c.y1)}")


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def render_svg(d: Diagram) -> str:
    """A static SVG document for a diagram; byte-identical per input."""
    scene = layout(d)
    extra: dict = {}
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(scene.width)}"'
        f' height="{_fmt(scene.height)}"'
        f' viewBox="0 0 {_fmt(scene.width)} {_fmt(scene.height)}">',
    ]
    for x0, y0, x1, y1, sym in scene.rects:
        name, rgb, percent = fiber_style(sym, extra)
        lines.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}"'
            f' height="{_fmt(y1 - y0)}" fill="{_tint(rgb, percent)}">'
            f'<title>{name}</title></rect>'
        )
    for c in scene.curves:
        lines.append(
            f'<path d="{_curve_path(c)}" fill="none" stroke="#222222"'
            f' stroke-width="1.6"><title>{_escape(c.label)}</title></path>'
        )
    for node in scene.nodes:
        lines.append(
            f'<rect x="{_fmt(node.x - node.half_w)}"'
            f' y="{_fmt(node.y - BOX_HALF_H)}" width="{_fmt(2 * node.half_w)}"'
            f' height="{_fmt(2 * BOX_HALF_H)}" rx="6" fill="#ffffff"'
            f' stroke="#222222" stroke-width="1.2"/>'
        )
        lines.append(
            f'<text x="{_fmt(node.x)}" y="{_fmt(node.y + 4)}"'
            f' text-anchor="middle" font-family="monospace"'
            f' font-size="12">{_escape(node.label)}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# TikZ


def render_tikz(d: Diagram) -> str:
    """A standalone TikZ picture for a diagram; byte-identical per input."""
    scene = layout(d)
    extra: dict = {}
    used: dict = {}
    scale = 0.02

    def color_of(sym) -> str:
        name, rgb, percent = fiber_style(sym, extra)
        used[name] = rgb
        return f"{name}!{percent}"

    def pt(x, y) -> str:
        return f"({_fmt(x * scale)},{_fmt(-y * scale)})"

    body = []
    for x0, y0, x1, y1, sym in scene.rects:
        body.append(
            f"\\fill[{color_of(sym)}] {pt(x0, y0)} rectangle {pt(x1, y1)};"
        )
    for c in scene.curves:
        if c.x0 == c.x1:
            body.append(
                f"\\draw[thick] {pt(c.x0, c.y0)} -- {pt(c.x1, c.y1)};"
            )
        else:
            ym = (c.y0 + c.y1) / 2
            body.append(
                f"\\draw[thick] {pt(c.x0, c.y0)} .. controls"
                f" {pt(c.x0, ym)} and {pt(c.x1, ym)} .. {pt(c.x1, c.y1)};"
            )
    for node in scene.nodes:
        label = node.label.replace("_", "\\_")
        body.append(
            f"\\node[draw, fill=white, rounded corners,"
            f" font=\\ttfamily\\small] at {pt(node.x, node.y)} {{{label}}};"
        )
    header = ["% deterministic output; regenerating from the same diagram"
              " reproduces this file byte for byte"]
    for name in sorted(used):
        r, g, b = used[name]
        header.append(f"\\definecolor{{{name}}}{{RGB}}{{{r},{g},{b}}}")
    return "\n".join(
        header + ["\\begin{tikzpicture}"] + body + ["\\end{tikzpicture}"]
    ) + "\n"


def render(d: Diagram, fmt: str) -> str:
    if fmt == "svg":
        return render_svg(d)
    if fmt == "tikz":
        return render_tikz(d)
    raise StrandcheckError(f"unknown render format {fmt!r}")
