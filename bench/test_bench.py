"""Self-tests of the benchmark: python3 -m pytest bench -q"""

import json
import sys
import time
import types

import mutants
import run
import tracer
import workloads


def test_same_seed_gives_identical_mutants():
    first = [(m.name, m.text.encode()) for m in workloads.draw_mutants(7)]
    again = [(m.name, m.text.encode()) for m in workloads.draw_mutants(7)]
    assert first == again
    names = {tuple(m.name for m in workloads.draw_mutants(s)) for s in range(8)}
    assert len(names) > 1


def test_mutant_changes_one_position_field():
    texts = workloads.bundle_texts()
    for m in workloads.draw_mutants(3):
        old = texts[m.site.file].split("\n")
        new = m.text.split("\n")
        diff = [i for i, (a, b) in enumerate(zip(old, new)) if a != b]
        assert len(old) == len(new) and diff == [m.site.line]
        assert old[m.site.line].startswith("step ")


def test_mutants_cover_all_files_and_mu_trans():
    drawn = workloads.draw_mutants(11)
    assert {m.site.file for m in drawn} == set(workloads.BUNDLE_FILES)
    assert any(m.site.script == "mu_trans" for m in drawn)


def test_shift_that_would_not_parse_is_skipped():
    line = "step rule R5.1(square=P1) bwd @ layers:5..5, strand:0, width:2 -> d6"
    assert mutants.mutate_line(line, "strand-1") is None
    assert mutants.mutate_line(line, "lo+1") is None
    assert mutants.mutate_line(line, "hi+1").endswith(
        "layers:5..6, strand:0, width:2 -> d6")


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def work(self, ns):
        self.now += ns


def test_self_time_on_synthetic_span_tree():
    clock = FakeClock()
    rec = tracer.Recorder(clock)

    def leaf(ns):
        clock.work(ns)
        return [0] * ns

    def gen():
        for ns in (2, 3):
            clock.work(ns)
            yield rec_leaf(ns)
        clock.work(1)

    def mid():
        clock.work(5)
        out = [rec_leaf(4), rec_leaf(1)]
        for x in rec_gen():
            clock.work(100)  # the consumer's own time, outside the generator
            out.append(x)
        return out

    def failing():
        clock.work(7)
        raise ValueError

    rec_leaf = rec.wrap("leaf", leaf, sized=True)
    rec_gen = rec.wrap("gen", gen)
    rec_mid = rec.wrap("mid", mid)
    rec_fail = rec.wrap("fail", failing)

    rec_mid()
    try:
        rec_fail()
    except ValueError:
        pass
    st = rec.stats
    # mid: 5 own + leaves 4 and 1 + generator 2+3+1 (own) + 2+3 (leaves) + 200
    assert st[("mid", None)][tracer.INCL] == 5 + 5 + 11 + 200
    assert st[("mid", None)][tracer.SELF] == 5 + 200
    # three resumptions of one generator: one call, two yields
    g = st[("gen", "mid")]
    assert (g[tracer.CALLS], g[tracer.YIELDS]) == (1, 2)
    assert (g[tracer.INCL], g[tracer.SELF]) == (11, 6)
    assert st[("leaf", "mid")][tracer.CALLS] == 2
    assert st[("leaf", "gen")][tracer.SELF] == 5
    assert st[("leaf", "mid")][tracer.SIZE_MAX] == 4
    assert st[("leaf", "gen")][tracer.SIZE_SUM] == 5
    assert st[("fail", None)][tracer.RAISED] == 1
    assert rec.root_ns == 221 + 7
    assert rec.stack == []


def test_recursion_counts_inclusive_time_once():
    clock = FakeClock()
    rec = tracer.Recorder(clock)

    def f(n):
        clock.work(1)
        if n:
            traced(n - 1)

    traced = rec.wrap("f", f)
    traced(2)
    total = sum(s[tracer.INCL] for s in rec.stats.values())
    assert total == 3
    assert sum(s[tracer.SELF] for s in rec.stats.values()) == 3
    assert sum(s[tracer.CALLS] for s in rec.stats.values()) == 3


def test_install_rebinds_every_importer_and_reports_missing(monkeypatch):
    def target():
        return 1

    home = types.ModuleType("strandcheck.fakehome")
    user = types.ModuleType("strandcheck.fakeuser")
    home.target = user.target = target  # as "from .fakehome import target"
    monkeypatch.setitem(sys.modules, home.__name__, home)
    monkeypatch.setitem(sys.modules, user.__name__, user)
    rec = tracer.Recorder()
    missing = tracer.install(rec, [
        (home.__name__, "target", "t", False),
        (home.__name__, "deleted_later", "gone", False)])
    assert missing == [f"{home.__name__}.deleted_later"]
    assert user.target is home.target is not target
    user.target()
    assert rec.stats[("t", None)][tracer.CALLS] == 1


def test_missing_function_gives_null_metric():
    dump = {"main_ns": 10, "root_ns": 4, "stats": [],
            "missing": ["strandcheck.calculus.class_words"]}
    metrics = tracer.layer_metrics([[dump]])
    assert metrics["calculus.class_max"]["value"] is None
    assert metrics["calculus.canon_memo_hit_ratio"]["value"] is None
    assert metrics["calculus.canonical_calls"]["value"] == 0
    assert metrics["cli.self_s"]["value"] == 6e-9


def test_honest_file_labelled_as_mutant_is_a_wrong_verdict():
    file = "dd_bundle.strand"
    honest = workloads.BUNDLE / file
    site = mutants.step_sites(file, honest.read_text(encoding="utf-8"))[0]
    labelled = workloads.Invocation(
        ("check", str(honest)), 1,
        mutant=mutants.Mutant(site, "lo+1", honest.read_text()))
    run.WORK.mkdir(exist_ok=True)
    child = run.run_child([*run.CLI, *labelled.args],
                          time.perf_counter() + 60)
    assert child.code == 0
    tally = run.Tally()
    assert not tally.judge(labelled, child)
    assert (tally.attempted, tally.wrong) == (1, 1)
    # the same output with the exit code of a rejection is still wrong
    assert labelled.judge(1, child.stdout, "") is not None
    honest_inv = workloads.Invocation(
        ("check", str(honest)), 0, workloads._verified_lines(file))
    assert honest_inv.judge(child.code, child.stdout, child.stderr) is None


def test_child_past_the_deadline_is_killed():
    run.WORK.mkdir(exist_ok=True)
    start = time.perf_counter()
    child = run.run_child(["-c", "import time; time.sleep(30)"], start + 0.5)
    assert child.code < 0 and child.wall_s < 10


def test_crash_is_a_wrong_verdict_even_with_the_right_exit_code():
    inv = workloads.build("probe-and-oracle", 1, run.WORK)[0]
    out = "\n".join(inv.lines) + "\n"
    assert inv.judge(0, out, "") is None
    assert inv.judge(0, out, "Traceback (most recent call last):\n") is not None
    assert inv.judge(-9, out, "") is not None


def test_benchmark_json_names_the_metrics_the_code_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    e2e = run.end_to_end([[run.Child(1.0, 1.0, 1.0, 0, "", "", True)]], [0.1])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in e2e.items()}
    layers = {k: unit for k, (unit, _, _) in tracer.PER_LAYER.items()}
    layers["trace.overhead_ratio"] = "ratio"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers


def test_rounds_have_their_own_reproducible_seeds():
    assert workloads.round_seed(42, 0) == 42
    seeds = [workloads.round_seed(42, i) for i in range(1, 6)]
    assert seeds == [workloads.round_seed(42, i) for i in range(1, 6)]
    assert len(set(seeds)) == 5 and 42 not in seeds
    first = workloads.build("probe-and-oracle", 42, run.WORK, 0)
    later = workloads.build("probe-and-oracle", 42, run.WORK, 1)
    assert first[0].args[-1] == "42"
    assert first[0].args != later[0].args
    # the model-check invocations of a round use distinct seeds
    assert len({inv.args[-1] for inv in first[1:]}) == len(first) - 1
