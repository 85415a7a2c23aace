"""The command-line front end: commands, flags, exit codes."""

import json
import random
import re
from importlib.resources import files

import pytest

from strandcheck import calculus
from strandcheck.calculus import Diagram
from strandcheck.cli import main
from strandcheck.descent import (
    _Names,
    builtin_descent_base,
    bundle_file_name,
    signature_for,
)
from strandcheck.parser import (
    format_base_block,
    format_script_file,
    script_file_for,
)
from strandcheck.rewrite import ProofScript, random_chi_diagram

from exchange_oracle import symmetric_closure


@pytest.fixture(scope="module")
def base_text():
    return "\n".join(format_base_block(builtin_descent_base()))


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("bundle")
    assert main(["export-bundle", str(outdir)]) == 0
    return outdir


def test_export_then_check_bundle(bundle_dir, capsys):
    assert sorted(p.name for p in bundle_dir.glob("*.strand")) == [
        "ac_bundle.strand", "dd_bundle.strand", "ta_bundle.strand"]
    assert main(["check", str(bundle_dir)]) == 0
    out = capsys.readouterr().out
    assert out.count("Verified") == 13
    assert "Failed" not in out


def test_check_json_report(bundle_dir, capsys):
    assert main(["check", "--json", str(bundle_dir / "ta_bundle.strand")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "Verified"
    assert all(s["verdict"] == "Verified" for s in payload["scripts"])


def test_check_corrupted_step_exits_1(bundle_dir, tmp_path, capsys):
    text = (bundle_dir / "ta_bundle.strand").read_text()
    corrupt = text.replace(
        "step axiom TA1 fwd @ layers:0..2, strand:0, width:1 -> d1",
        "step axiom TA2 fwd @ layers:0..2, strand:0, width:1 -> d1", 1)
    assert corrupt != text
    bad = tmp_path / "bad.strand"
    bad.write_text(corrupt)
    assert main(["check", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "Failed at step" in out


# A reordering of the 7th diagram drawn below that the first branch of
# exchange reaches from it but cannot leave again: the 0->0 cell slides
# past the 0->2 cell only on its left.
_REORDERED = ("[<E_B> | chi(delta;f1 => id(B)) | f1*.delta*]; "
              "[<E_B> | chi(delta;f1 => id(B)) | <E_B>]; "
              "[<E_B> | chi(id(B) => id(B)) | <E_B>]; "
              "[<E_B> | chi(id(B) => delta;f1) | <E_B>]")


def test_check_isotopy_claims_in_either_direction(tmp_path, capsys,
                                                  monkeypatch):
    """A zero-step claim between two presentations of one diagram is
    Verified whichever side it states first, alone or after the other."""
    sig = signature_for(None)
    rng = random.Random(6)
    d0 = [random_chi_diagram(sig, rng, 6, 4) for _ in range(7)][-1]
    d1 = next(Diagram(d0.source, d0.target, layers)
              for layers in symmetric_closure(d0)
              if "; ".join(map(repr, layers)) == _REORDERED)
    forward = ProofScript("forward", sig, d0, d1, [])
    backward = ProofScript("backward", sig, d1, d0, [])
    for scripts in ([forward], [backward], [forward, backward],
                    [backward, forward]):
        path = tmp_path / ("_".join(s.name for s in scripts) + ".strand")
        path.write_text(format_script_file(script_file_for(scripts)),
                        encoding="utf-8")
        # a fresh process's memo: a verdict must not hang on it
        monkeypatch.setattr(calculus, "_CANON_MEMO", {})
        assert main(["check", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{s.name}: Verified" for s in scripts]


def test_check_malformed_header_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.strand"
    bad.write_text("[base\nobject A\n")
    assert main(["check", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


_IDENTITY_SCRIPT = ("[diagram d0 : id(B) => id(B)]\n\n"
                    "[script s]\nclaim d0 = d0\n")

# (command, text after the built-in [base] section or a whole file, the
# start of the line the error names or None, a fragment of the message).
# Each of these raised a traceback, read as a wrong proof (the macro steps,
# the base without f1) or, for the token off its fiber, was accepted.
_BAD_INPUTS = [
    pytest.param("check", "[diagram d0 :  => id(B)]\n", "[diagram d0",
                 "empty one-cell string", id="empty-boundary-string"),
    pytest.param("check", "[diagram d0 : id(B) => f! f*]\n"
                 "layer  | eta(f) | id(B)\n", "layer",
                 "empty one-cell string", id="empty-whisker-string"),
    pytest.param("check", _IDENTITY_SCRIPT + "step -> d0\n", "step",
                 "step needs a justification", id="step-without-justification"),
    pytest.param("check", _IDENTITY_SCRIPT + "step macro fold BC(square=P1)"
                 " @ layers:0..3, strand:0, width:2 -> d0\n", "step",
                 "unknown justification", id="macro-fold-step"),
    pytest.param("check", _IDENTITY_SCRIPT + "step macro unfold BC(square=P1)"
                 " @ layers:0..1, strand:0, width:2 -> d0\n", "step",
                 "unknown justification", id="macro-unfold-step"),
    pytest.param("check", "[]\n", "[]", "unknown section", id="empty-header"),
    pytest.param("check", "[signature]\nextension DD\narrow f\n"
                 "object X @ B\npair f1\n\n[diagram d0 : X@B f1* => X@B f2*]\n"
                 "layer id(1) | phi | id(Q)\n", "pair",
                 "needs kernel-pair projections", id="one-projection"),
    pytest.param("check", "# caf\xe9\n", None, "can't decode",
                 id="latin-1-bytes"),
    pytest.param("check", "[base]\nobject A\nobject B\narrow f : B -> A\n\n"
                 "[signature]\nextension TA\narrow f\nobject X @ B\n\n"
                 "[diagram d : X@B => X@B]\n\n[script s]\nclaim d = d\n",
                 None, "no arrow named f1", id="base-without-f1"),
    pytest.param("check", "[signature]\nextension TA\narrow f\nobject X @ A\n\n"
                 "[diagram d : X@A => X@A]\n\n[script s]\nclaim d = d\n",
                 None, "token f! expects E_B", id="object-token-off-fiber"),
]


@pytest.mark.parametrize("command, body, named, message", _BAD_INPUTS)
def test_bad_input_exits_2_with_a_message(command, body, named, message,
                                          base_text, tmp_path, capsys):
    text = body if body.startswith("[base]") else base_text + "\n\n" + body
    path = tmp_path / "bad.strand"
    path.write_bytes(text.encode("latin-1"))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert message in err
    if named is not None:
        line = next(i for i, l in enumerate(text.split("\n"), 1)
                    if l.startswith(named))
        assert err.startswith(f"error: {path}: line {line}: "), err


def test_model_check_outside_the_builtin_base_exits_2(tmp_path, capsys):
    """A claim over an object the oracle's instances do not realize is
    unsupported input; a file that only declares one still model-checks."""
    path = tmp_path / "other.strand"
    path.write_text("[base]\nobject A\nobject C\narrow g : C -> A\n\n"
                    "[diagram e : g* => g*]\n\n[script s]\nclaim e = e\n")
    assert main(["model-check", str(path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: the claim of s uses object C")
    path.write_text("[base]\nobject A\nobject B\narrow g : B -> A\n\n"
                    "[diagram e : id(B) => id(B)]\n\n[script s]\n"
                    "claim e = e\n")
    assert main(["model-check", str(path)]) == 0
    assert capsys.readouterr().out == "s: Verified\n"


def test_check_repeated_script_name_exits_2(bundle_dir, tmp_path, capsys):
    """Files that share a signature are checked in one session, so a script
    name used twice among them is an error, whichever file comes first."""
    good = bundle_dir / "ta_bundle.strand"
    lines = good.read_text().split("\n")
    at = next(i for i, l in enumerate(lines) if l.startswith("step "))
    lines[at] = lines[at].replace(", strand:0,", ", strand:1,")
    bad = tmp_path / "bad.strand"
    bad.write_text("\n".join(lines))
    assert main(["check", str(bad)]) == 1
    capsys.readouterr()
    for first, second in ((good, bad), (bad, good)):
        assert main(["check", str(first), str(second)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {second}: script 'phi_iso_left' is "
                                f"already defined in {first}\n")


def test_parse_error_names_its_file(bundle_dir, tmp_path, capsys):
    """With several files, a parse error says which file it is in,
    whichever argument comes first; the one-file commands name it too."""
    good = bundle_dir / "ta_bundle.strand"
    broken = tmp_path / "broken.strand"
    broken.write_text("[base]\nobject A\nfoo B\n")
    want = f"error: {broken}: line 3: unknown [base] declaration 'foo'\n"
    for files in ((good, broken), (broken, good)):
        assert main(["check", *map(str, files)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == want
    for command in (["model-check", str(broken)], ["normalize", str(broken), "d"],
                    ["render", str(broken), "d"]):
        assert main(command) == 2
        assert capsys.readouterr().err == want


def test_renamed_object_token(tmp_path, capsys):
    """The axioms are stated with the file's own object token, so the bundle
    with X renamed to Y checks; the oracle's environments assign X@B only,
    so model-check reports Y@B as unsupported input."""
    data = files("strandcheck") / "bundle"
    for kind in ("TA", "DD", "AC"):
        name = bundle_file_name(kind)
        text = re.sub(r"\bX\b", "Y", (data / name).read_text(encoding="utf-8"))
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert main(["check", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count(": Verified\n") == 13 and "Failed" not in out
    assert main(["model-check", str(tmp_path / "ta_bundle.strand")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the claim of phi_iso_left uses object "
                          "token Y@B"), err


def test_check_missing_file_exits_2(tmp_path):
    assert main(["check", str(tmp_path / "nope.strand")]) == 2


def test_verify_benabou_roubaud_default(capsys):
    assert main(["verify-benabou-roubaud", "--instances", "5"]) == 0
    out = capsys.readouterr().out
    assert "theorem: Verified (13/13 scripts)" in out
    assert "13/13 claims agree" in out


def test_verify_skip_oracle(capsys):
    assert main(["verify-benabou-roubaud", "--skip-oracle"]) == 0
    assert "oracle: skipped" in capsys.readouterr().out


def test_verify_zero_instances_warns(capsys):
    assert main(["verify-benabou-roubaud", "--instances", "0"]) == 0
    assert "warning" in capsys.readouterr().out


def test_probe_confluence(capsys):
    assert main(["probe-confluence", "--size", "3", "--samples", "25",
                 "--seed", "42"]) == 0
    assert "violations: 0" in capsys.readouterr().out


def test_probe_zero_samples_warns(capsys):
    assert main(["probe-confluence", "--samples", "0"]) == 0
    assert "warning" in capsys.readouterr().out


def test_normalize_pure_chi(base_text, tmp_path, capsys):
    src = tmp_path / "chi.strand"
    src.write_text(base_text + """

[signature]
extension none

[diagram d : f* f1* => f* f1*]
layer id(A) | chi(f1;f = f2;f) | id(Q)
layer id(A) | chi(f2;f = f1;f) | id(Q)
""")
    assert main(["normalize", str(src), "d"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("[diagram d : f* f1* => f* f1*]")
    assert "layer" not in out


def test_normalize_rejects_non_chi(base_text, tmp_path):
    src = tmp_path / "eta.strand"
    src.write_text(base_text + """

[signature]
extension none

[diagram z : f* => f*]
layer f* | eta(f) | id(B)
layer id(A) | eps(f) | f*
""")
    assert main(["normalize", str(src), "z"]) == 2


def test_render_to_stdout_and_file(bundle_dir, tmp_path, capsys):
    src = str(bundle_dir / "ta_bundle.strand")
    assert main(["render", src, "d0"]) == 0
    first = capsys.readouterr().out
    assert first.startswith("<?xml") and first.endswith("</svg>\n")
    out = tmp_path / "d0.svg"
    assert main(["render", src, "d0", "--out", str(out)]) == 0
    assert out.read_text() == first
    assert main(["render", src, "d0", "--format", "tikz"]) == 0
    assert "tikzpicture" in capsys.readouterr().out


def test_render_unknown_diagram_exits_2(bundle_dir):
    src = str(bundle_dir / "ta_bundle.strand")
    assert main(["render", src, "no_such_diagram"]) == 2


def test_model_check_file(bundle_dir, capsys):
    src = str(bundle_dir / "dd_bundle.strand")
    assert main(["model-check", src, "--instances", "5",
                 "--max-size", "3", "--max-fiber", "2"]) == 0
    out = capsys.readouterr().out
    assert "G_AC1: Verified" in out


def test_model_check_without_scripts_exits_2(base_text, tmp_path):
    src = tmp_path / "empty.strand"
    src.write_text(base_text + "\n")
    assert main(["model-check", str(src)]) == 2


def test_model_check_detects_inequality(base_text, tmp_path, capsys):
    names = _Names(builtin_descent_base())
    assert names  # the two counit placements below differ pointwise
    src = tmp_path / "neq.strand"
    src.write_text(base_text + """

[signature]
extension none

[diagram inner : f* f! f* f! => f* f!]
layer id(A) | eps(f) | f* f!

[diagram outer : f* f! f* f! => f* f!]
layer f* f! | eps(f) | id(A)

[script bogus]
claim inner = outer
""")
    assert main(["model-check", str(src), "--instances", "40",
                 "--max-size", "3", "--max-fiber", "2", "--seed", "1"]) == 1
    assert "Failed" in capsys.readouterr().out


def test_model_check_pins_the_draw_order(base_text, tmp_path, capsys):
    """The first differing sample of a false claim, after a true claim that
    shares its samples, is the one the per-claim loop found: sample 25."""
    src = tmp_path / "neq.strand"
    src.write_text(base_text + """

[signature]
extension none

[diagram inner : f* f! f* f! => f* f!]
layer id(A) | eps(f) | f* f!

[diagram outer : f* f! f* f! => f* f!]
layer f* f! | eps(f) | id(A)

[script same]
claim inner = inner

[script bogus]
claim inner = outer
""")
    assert main(["model-check", str(src), "--max-size", "3",
                 "--max-fiber", "1", "--seed", "7"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "same: Verified",
        "bogus: Failed (interpretations differ at sample 25)",
    ]


@pytest.mark.parametrize("args", [
    ["probe-confluence", "--samples", "-1"],
    ["probe-confluence", "--size", "-1"],
    ["probe-confluence", "--arrows", "-1"],
    ["model-check", "{dd}", "--instances", "-1"],
    ["model-check", "{dd}", "--max-size", "0"],
    ["model-check", "{dd}", "--max-fiber", "-1"],
    ["verify-benabou-roubaud", "--instances", "-3"],
    ["verify-benabou-roubaud", "--max-size", "0"],
    ["verify-benabou-roubaud", "--max-size", "three"],
])
def test_out_of_range_counts_exit_2(args, bundle_dir, capsys):
    """A count below its least value is a usage error: exit 2 with a usage
    message, neither an empty Verified run nor a crash."""
    argv = [a.format(dd=bundle_dir / "dd_bundle.strand") for a in args]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err and "Traceback" not in captured.err


def test_usage_errors_exit_2():
    assert main(["render"]) == 2
    assert main(["no-such-command"]) == 2
