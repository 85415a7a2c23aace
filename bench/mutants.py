"""Seeded one-line mutants of the stored v1 bundle.

A mutant shifts one field of the position of one ``step`` line by one:
the first layer ``lo``, the end layer ``hi`` or the first strand. Every
other byte of the file is kept, so the checker must reject the mutated
script and the scripts that depend on it, and accept the others.

Why each mutant is wrong: exchange moves only reorder layers, so every
presentation of a diagram has the same number of layers. Moving ``lo`` or
``hi`` changes the height of the located block by one, so it can match
neither the rule's pattern nor, after splicing, the stated result. A
strand shift keeps the height; that each one is rejected was checked once
against the full mutant set of this bundle (see DESIGN.md). Shifting
``lo`` and ``hi`` together is not used: a position names a block of *some*
presentation of the diagram, and several such shifts name an equivalent
block, so the proof stays right.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

# The position after "@"; a coherence step also has a region inside its
# justification, which this pattern leaves alone.
_STEP = re.compile(
    r"^(?P<head>step .* @ layers:)(?P<lo>\d+)\.\.(?P<hi>\d+)"
    r"(?P<mid>, strand:)(?P<strand>\d+)(?P<tail>, width:\d+ -> \S+)$")

KINDS = ("lo+1", "lo-1", "hi+1", "hi-1", "strand+1", "strand-1")


@dataclass(frozen=True)
class Site:
    """One step line: where it is and which script and step it belongs to."""

    file: str
    line: int  # 0-based line number in the file
    script: str
    step: int  # 0-based step index inside the script


@dataclass(frozen=True)
class Mutant:
    site: Site
    kind: str
    text: str  # the whole mutated file

    @property
    def name(self) -> str:
        stem = self.site.file.rsplit(".", 1)[0]
        return f"{stem}.{self.site.script}.s{self.site.step}.{self.kind}"


def step_sites(file: str, text: str) -> list[Site]:
    out = []
    script, step = None, 0
    for no, line in enumerate(text.split("\n")):
        if line.startswith("[script "):
            script, step = line[len("[script "):-1], 0
        elif line.startswith("step "):
            if _STEP.match(line) is None:
                raise ValueError(f"{file}:{no + 1}: unrecognised step line")
            out.append(Site(file, no, script, step))
            step += 1
    return out


def mutate_line(line: str, kind: str) -> str | None:
    """The line with one position field shifted, or None when the shift
    would make a field negative or reverse the range (those are parse
    errors, not wrong proofs)."""
    m = _STEP.match(line)
    pos = {"lo": int(m["lo"]), "hi": int(m["hi"]), "strand": int(m["strand"])}
    pos[kind[:-2]] += int(kind[-2:])
    lo, hi, strand = pos["lo"], pos["hi"], pos["strand"]
    if min(lo, strand) < 0 or lo > hi:
        return None
    return f"{m['head']}{lo}..{hi}{m['mid']}{strand}{m['tail']}"


def mutant(site: Site, kind: str, text: str) -> Mutant | None:
    lines = text.split("\n")
    new = mutate_line(lines[site.line], kind)
    if new is None:
        return None
    lines[site.line] = new
    return Mutant(site, kind, "\n".join(lines))


def all_mutants(files: dict[str, str]) -> list[Mutant]:
    """Every valid mutant, in file, line and kind order."""
    out = []
    for name in sorted(files):
        for site in step_sites(name, files[name]):
            for kind in KINDS:
                m = mutant(site, kind, files[name])
                if m is not None:
                    out.append(m)
    return out
