"""The four workloads: lists of strandcheck invocations, built from
the workload seed, and the known answer each invocation must produce.

Every invocation runs in a fresh process: the module-level memos of
``calculus`` and ``rewrite`` make a rerun inside one process about 40 times
faster than what a user waiting for a verdict sees.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import mutants

HERE = Path(__file__).resolve().parent
BUNDLE = HERE / "data" / "bundle_v1"
ANSWERS = json.loads((HERE / "data" / "answers.json").read_text(encoding="utf-8"))
BUNDLE_FILES = sorted(ANSWERS["files"])

# check-mutants draws one mutant from each group, so a run's cost does not
# depend on the seed while its mutants do. The cost of a rejected step is
# set by the exchange class the checker walks, so a group holds steps of
# similar cost (DESIGN.md has the measured cost of every mutant). The
# groups cover all three files:
# - "mu_trans:big": step 1 of mu_trans, whose rejection walks the
#   22,758-presentation class (about 6 s);
# - "ac:rest": ac steps rejected at about the cost of checking the honest
#   file (about 2.3 s), mostly because mu_trans is still verified in full;
# - "dd", "ta", "small": steps of the small files (0.1 to 0.3 s). With
#   five mutants a round, the median verdict time is that of a small file.
# Step 6 of mu_trans is left out: its rejection takes 14 to 19 s, which
# would not leave a run two rounds of its time budget.
MUTANT_GROUPS = {
    "mu_trans:big": {"ac_bundle.strand": {"mu_trans": (1,)}},
    "ac:rest": {"ac_bundle.strand": {"eta_trans": (0, 1, 2),
                                     "mu_trans": (7, 8),
                                     "H_TA1": (0, 1, 2), "H_TA2": (0, 1),
                                     "roundtrip_GFH": (0,)}},
    "dd": {"dd_bundle.strand": None},
    "ta": {"ta_bundle.strand": None},
    "small": {"dd_bundle.strand": None, "ta_bundle.strand": None},
}


@dataclass(frozen=True)
class Invocation:
    """One strandcheck command line and its known answer."""

    args: tuple
    exit: int
    lines: tuple = ()  # exact stdout lines, when the answer is fixed
    mutant: mutants.Mutant | None = None

    def judge(self, code: int, stdout: str, stderr: str) -> str | None:
        """None for a right verdict, else what was wrong."""
        if "Traceback (most recent call last)" in stderr or code not in (0, 1, 2):
            return f"crashed with exit code {code}"
        if code != self.exit:
            return f"exit code {code}, expected {self.exit}"
        got = stdout.splitlines()
        if self.mutant is None:
            return None if tuple(got) == self.lines else "verdict lines differ"
        return _judge_mutant(self.mutant, got)


def _judge_mutant(m: mutants.Mutant, got: list) -> str | None:
    scripts = ANSWERS["files"][m.site.file]
    if len(got) != len(scripts):
        return f"{len(got)} verdict lines for {len(scripts)} scripts"
    failed = {m.site.script}
    for (name, deps), line in zip(scripts, got):
        if name == m.site.script:
            want_prefix = f"{name}: Failed at step {m.site.step} ("
        elif failed.intersection(deps):
            failed.add(name)
            want_prefix = f"{name}: Failed"
        else:
            want_prefix = f"{name}: Verified"
        if not line.startswith(want_prefix) or (
                want_prefix.endswith("Verified") and line != want_prefix):
            return f"expected {want_prefix!r}, got {line!r}"
    return None


def _verified_lines(file: str) -> tuple:
    return tuple(f"{name}: Verified" for name, _ in ANSWERS["files"][file])


def bundle_texts() -> dict:
    return {name: (BUNDLE / name).read_text(encoding="utf-8")
            for name in BUNDLE_FILES}


def _in_group(site: mutants.Site, group: dict) -> bool:
    if site.file not in group:
        return False
    steps = group[site.file]
    return steps is None or site.step in steps.get(site.script, ())


def draw_mutants(seed: int) -> list:
    """One mutant per group, chosen by the seed."""
    rng = random.Random(seed)
    every = mutants.all_mutants(bundle_texts())
    return [rng.choice([m for m in every if _in_group(m.site, group)])
            for group in MUTANT_GROUPS.values()]


def round_seed(seed: int, index: int) -> int:
    """The seed of round ``index`` of a run: the workload seed itself for
    round 0, then values drawn from it.

    The work of one seed varies: the instances of ``model-check`` and the
    diagrams of ``probe-confluence`` differ in size, and the mutants of a
    group in cost. Counting calls, ``model-check`` of the three files at
    seeds 301 to 304 did 14.4 to 18.6 million. Giving every round its own
    seed makes a run's medians stand for many seeds, not one.
    """
    if index == 0:
        return seed
    return random.Random(f"round {seed} {index}").randrange(2**31)


def build(name: str, seed: int, workdir: Path, index: int = 0) -> list:
    """The invocations of round ``index`` of workload ``name``. Paths are
    relative to the repository root, where the children run."""
    bundle = [str(BUNDLE.relative_to(HERE.parent) / f) for f in BUNDLE_FILES]
    seed = round_seed(seed, index)
    if name == "verify-bundle":
        return [Invocation(("verify-benabou-roubaud", "--seed", str(seed)), 0,
                           tuple(ANSWERS["verify-benabou-roubaud"]))]
    if name == "check-bundle":
        lines = sum((_verified_lines(f) for f in BUNDLE_FILES), ())
        return [Invocation(("check", *bundle), 0, lines)]
    if name == "check-mutants":
        workdir.mkdir(parents=True, exist_ok=True)
        out = []
        for m in draw_mutants(seed):
            path = workdir / f"{m.name}.strand"
            path.write_text(m.text, encoding="utf-8")
            out.append(Invocation(("check", str(path)), 1, mutant=m))
        return out
    if name == "probe-and-oracle":
        probe = Invocation(("probe-confluence", "--size", "5", "--samples",
                            "1000", "--seed", str(seed)), 0,
                           tuple(ANSWERS["probe-confluence"]))
        # One seed per file: with a shared seed, every file of the round
        # would be checked on the same random instances.
        n = len(BUNDLE_FILES)
        return [probe, *(Invocation(("model-check", path, "--instances", "100",
                                     "--seed", str(n * seed + i)), 0,
                                    _verified_lines(f))
                         for i, (f, path) in enumerate(zip(BUNDLE_FILES,
                                                           bundle)))]
    raise KeyError(name)


NAMES = ("verify-bundle", "check-bundle", "check-mutants", "probe-and-oracle")
