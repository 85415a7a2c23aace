"""Command-line front end.

Commands: check, verify-benabou-roubaud, export-bundle, normalize,
render, probe-confluence, model-check. Exit codes: 0 success, 1
verification failure, 2 usage, parse or unsupported-input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from .descent import (
    bundle_file_name,
    bundled_scripts,
    session_for,
    signature_for,
    verify_theorem,
)
from .errors import ParseError, StrandcheckError
from .finmodel import oracle_claims, unrealized
from .parser import (
    format_diagram_block,
    format_script_file,
    parse_script_file,
    script_file_for,
)
from .render import render
from .rewrite import check_script, confluence_probe, normalize_fib

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2

BUNDLE_SUFFIX = ".strand"


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(args, payload: dict, lines: list) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _verdict_line(report) -> str:
    if report.ok:
        return f"{report.name}: Verified"
    where = "" if report.failed_step is None \
        else f" at step {report.failed_step}"
    return f"{report.name}: Failed{where} ({report.reason})"


def _dependency_order(scripts: list) -> list:
    by_name = {s.name: s for s in scripts}
    done, order = set(), []

    def visit(script, trail):
        if script.name in done:
            return
        if script.name in trail:
            raise ParseError(f"dependency cycle through {script.name!r}")
        for dep in script.deps:
            if dep in by_name:
                visit(by_name[dep], trail | {script.name})
        done.add(script.name)
        order.append(script)

    for s in scripts:
        visit(s, set())
    return order


def _input_files(paths: list) -> list:
    out = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            found = sorted(p.glob(f"*{BUNDLE_SUFFIX}"))
            if not found:
                raise ParseError(f"no {BUNDLE_SUFFIX} files in {p}")
            out.extend(found)
        else:
            out.append(p)
    return out


def _parse_file(path: Path):
    """Parse one input file; a parse error names the file."""
    text = path.read_text(encoding="utf-8")
    try:
        return parse_script_file(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def cmd_check(args) -> int:
    groups: list = []  # (signature, scripts, file of each script name)
    for path in _input_files(args.files):
        sf = _parse_file(path)
        group = next((g for g in groups if g[0] == sf.signature), None)
        if group is None:
            groups.append(group := (sf.signature, [], {}))
        for script in sf.scripts:  # one session checks a group: names differ
            if script.name in group[2]:
                raise ParseError(f"{path}: script {script.name!r} is already "
                                 f"defined in {group[2][script.name]}")
            group[2][script.name] = path
        group[1].extend(sf.scripts)
    reports = []
    for sig, scripts, _ in groups:
        session = session_for(sig)
        for script in _dependency_order(scripts):
            reports.append(check_script(session, script))
    failed = [r for r in reports if not r.ok]
    payload = {"command": "check",
               "scripts": [r.as_dict() for r in reports],
               "verdict": "Failed" if failed else "Verified"}
    _emit(args, payload, [_verdict_line(r) for r in reports])
    return EXIT_FAILED if failed else EXIT_OK


def cmd_verify(args) -> int:
    report = verify_theorem()
    lines = [_verdict_line(r) for r in report.stats["scripts"].values()]
    lines.append(f"theorem: {report.verdict} "
                 f"({report.stats['verified']}/{report.stats['total']} "
                 f"scripts)")
    payload = {
        "command": "verify-benabou-roubaud",
        "verdict": report.verdict,
        "scripts": {name: r.as_dict()
                    for name, r in report.stats["scripts"].items()},
    }
    ok = report.ok
    if args.skip_oracle:
        lines.append("oracle: skipped (--skip-oracle)")
        payload["oracle"] = "skipped"
    elif args.instances == 0:
        lines.append("warning: oracle skipped, --instances 0 checks nothing")
        payload["oracle"] = "skipped"
    else:
        oracle: dict = {}
        passed = 0
        scripts = bundled_scripts()
        reports = oracle_claims([(s.claim_lhs, s.claim_rhs) for s in scripts],
                                inst_count=args.instances,
                                max_size=args.max_size, seed=args.seed)
        for script, r in zip(scripts, reports):
            oracle[script.name] = r.as_dict()
            if r.ok:
                passed += 1
            else:
                ok = False
                lines.append(f"oracle {script.name}: Failed ({r.reason})")
        lines.append(f"oracle: {passed}/{len(oracle)} claims agree with the "
                     f"finite-set model")
        payload["oracle"] = oracle
    payload["verdict"] = "Verified" if ok else "Failed"
    _emit(args, payload, lines)
    return EXIT_OK if ok else EXIT_FAILED


def cmd_export_bundle(args) -> int:
    groups: dict = {}
    for script in bundled_scripts():
        groups.setdefault(script.signature.extension, []).append(script)
    outdir = Path(args.outdir)
    written = []
    for kind in sorted(groups):
        path = outdir / bundle_file_name(kind)
        _atomic_write(path, format_script_file(script_file_for(groups[kind])))
        written.append(str(path))
    _emit(args, {"command": "export-bundle", "files": written},
          [f"wrote {p}" for p in written])
    return EXIT_OK


def _load_diagram(args):
    sf = _parse_file(Path(args.file))
    if args.diagram not in sf.diagrams:
        raise ParseError(f"unknown diagram {args.diagram!r} in {args.file}")
    return sf.diagrams[args.diagram]


def cmd_normalize(args) -> int:
    try:
        normal = normalize_fib(_load_diagram(args))
    except StrandcheckError as exc:
        if isinstance(exc, ParseError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    block = format_diagram_block(args.diagram, normal)
    _emit(args, {"command": "normalize", "diagram": block},
          block)
    return EXIT_OK


def cmd_render(args) -> int:
    d = _load_diagram(args)
    text = render(d, args.format)
    if args.out:
        _atomic_write(Path(args.out), text)
        if args.verbose:
            print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_probe(args) -> int:
    if args.samples == 0:
        _emit(args, {"command": "probe-confluence", "verdict": "Verified",
                     "warning": "0 samples"},
              ["warning: 0 samples, the probe checked nothing"])
        return EXIT_OK
    report = confluence_probe(signature_for(None),
                              size=(args.size, args.arrows),
                              samples=args.samples, seed=args.seed)
    payload = {"command": "probe-confluence", **report.as_dict()}
    _emit(args, payload, [_verdict_line(report),
                          f"samples: {report.stats['samples']}, "
                          f"violations: {report.stats['violations']}"])
    return EXIT_OK if report.ok else EXIT_FAILED


def cmd_model_check(args) -> int:
    sf = _parse_file(Path(args.file))
    if not sf.scripts:
        raise ParseError(f"no scripts to model-check in {args.file}")
    if args.instances == 0:
        _emit(args, {"command": "model-check", "verdict": "Verified",
                     "warning": "0 instances"},
              ["warning: 0 instances, the oracle checked nothing"])
        return EXIT_OK
    for s in sf.scripts:
        for d in (s.claim_lhs, s.claim_rhs):
            if (missing := unrealized(d)) is not None:
                raise ParseError(f"the claim of {s.name} uses {missing}, which "
                                 f"the built-in kernel-pair instances do not realize")
    results = oracle_claims([(s.claim_lhs, s.claim_rhs) for s in sf.scripts],
                            inst_count=args.instances, max_size=args.max_size,
                            seed=args.seed, max_fiber=args.max_fiber)
    reports = [(s.name, r) for s, r in zip(sf.scripts, results)]
    failed = [name for name, r in reports if not r.ok]
    payload = {"command": "model-check",
               "claims": {name: r.as_dict() for name, r in reports},
               "verdict": "Failed" if failed else "Verified"}
    lines = [f"{name}: {r.verdict}"
             + ("" if r.ok else f" ({r.reason})") for name, r in reports]
    _emit(args, payload, lines)
    return EXIT_FAILED if failed else EXIT_OK


def _at_least(least: int):
    """An argparse type: an integer no smaller than ``least``, so that an
    out-of-range count is a usage error instead of an empty or crashed run."""

    # argparse reports a ValueError raised here as "invalid integer value"
    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(
                f"must be at least {least}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="machine-readable report on stdout")
    common.add_argument("--verbose", action="store_true",
                        help="extra progress output")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized commands")

    top = argparse.ArgumentParser(
        prog="strandcheck",
        description="proof-script checker for bifibrational string diagrams")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="check proof-script files")
    p.add_argument("files", nargs="+",
                   help=f"script files or directories of *{BUNDLE_SUFFIX}")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify-benabou-roubaud", parents=[common],
                       help="verify the full bundled theorem")
    p.add_argument("--skip-oracle", action="store_true",
                   help="syntactic check only")
    p.add_argument("--instances", type=_at_least(0), default=25,
                   help="model instances per claim (0 skips the oracle)")
    p.add_argument("--max-size", type=_at_least(1), default=3,
                   help="largest carrier size sampled by the oracle")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export-bundle", parents=[common],
                       help="write the bundled scripts as text files")
    p.add_argument("outdir")
    p.set_defaults(func=cmd_export_bundle)

    p = sub.add_parser("normalize", parents=[common],
                       help="normal form of a coherence-only diagram")
    p.add_argument("file")
    p.add_argument("diagram")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("render", parents=[common],
                       help="render a diagram to SVG or TikZ")
    p.add_argument("file")
    p.add_argument("diagram")
    p.add_argument("--format", choices=("svg", "tikz"), default="svg")
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("probe-confluence", parents=[common],
                       help="unique-normal-form probe on random diagrams")
    p.add_argument("--size", type=_at_least(0), default=5,
                   help="maximum layers per sampled diagram")
    p.add_argument("--arrows", type=_at_least(0), default=4,
                   help="maximum base-path length")
    p.add_argument("--samples", type=_at_least(0), default=100)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("model-check", parents=[common],
                       help="compare script claims in the finite-set model")
    p.add_argument("file")
    p.add_argument("--instances", type=_at_least(0), default=100)
    p.add_argument("--max-size", type=_at_least(1), default=4)
    p.add_argument("--max-fiber", type=_at_least(0), default=3)
    p.set_defaults(func=cmd_model_check)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StrandcheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
